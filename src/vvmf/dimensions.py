"""Dimension formulas for holomorphic and cusp forms of every integer weight.

All values come from one Analysis per representation and settings.  The
single case the formulas do not pin down exactly is weight one for a
reducible odd part (commutant dimension above one); there the returned
value is a lower bound and is marked as such instead of silently
pretending to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .invariants import PartInvariants, part_invariants
from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure
from .modrep import (
    ASSERTED_REDUCIBLE,
    ModularRepresentation,
    commutant_dimension,
    contragredient,
    parity_split,
)

EXACT = "exact"
LOWER_BOUND = "lower-bound"

# Generator weights lie in 0..12; the product with (1-z^4)(1-z^6) is read
# up to weight 22 so that the ten coefficients above 12 can be checked.
TOP_GENERATOR_WEIGHT = 12
_PRODUCT_WEIGHTS = 23


class Weight1Indeterminate(ValueError):
    """Generator counts need weight-one dimensions the theory cannot pin down."""


@dataclass(frozen=True)
class DimResult:
    """One computed dimension with its provenance rule."""

    value: int
    status: str = EXACT
    rule: str = ""

    def __post_init__(self):
        assert self.value >= 0


def certify_irreducible(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> bool:
    """True when the representation is irreducible.

    Degree at most one settles it, and so does a direct sum, which is
    reducible by construction; otherwise the commutant of the image
    decides: by Schur's lemma it is one-dimensional exactly for an
    irreducible representation.
    """
    if rep.degree <= 1:
        return True
    if rep.irreducible_assertion == ASSERTED_REDUCIBLE:
        return False
    return commutant_dimension(rep, settings) == 1


class Analysis:
    """Everything derived from one representation under one Settings.

    Analysis.of memoises it on the representation, keyed by the settings:
    calls with equal settings share it, calls with other settings get
    their own, and it is freed together with the representation.
    """

    def __init__(self, rep: ModularRepresentation, settings: Settings):
        self.rep = rep
        self.settings = settings
        self.split = parity_split(rep, settings)
        self._invariants: dict[bool, PartInvariants] = {}
        self._numerators: dict[bool, tuple[int, ...]] = {}
        self._mirror: Analysis | None = None

    @classmethod
    def of(cls, rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> Analysis:
        analysis = rep.analyses.get(settings)
        if analysis is None:
            analysis = rep.analyses[settings] = cls(rep, settings)
        return analysis

    def invariants(self, odd: bool) -> PartInvariants:
        """Invariants of the odd or the even part, computed on first use."""
        inv = self._invariants.get(odd)
        if inv is None:
            inv = self._invariants[odd] = part_invariants(self.split, odd, self.settings)
        return inv

    @cached_property
    def weight1_exact(self) -> bool:
        if self._mirror is not None:
            return self._mirror.weight1_exact
        return certify_irreducible(self.split.odd_part, self.settings)

    @cached_property
    def dual(self) -> Analysis:
        """Analysis of the contragredient, which takes its weight-one certificate
        from here: x -> x^T maps one commutant onto the other."""
        dual = Analysis.of(contragredient(self.rep), self.settings)
        dual._mirror = self
        return dual

    def dim(self, w: int, cusp: bool = False) -> DimResult:
        """Dimension of the holomorphic (or cusp) forms of integer weight w."""
        odd = w % 2 == 1
        if (self.split.odd_part if odd else self.split.even_part).degree == 0:
            return DimResult(0, EXACT, "parity-zero")
        k = w // 2
        if k < 0:
            return DimResult(0, EXACT, "negative-weight")
        inv = self.invariants(odd)
        lam = inv.lambda_minus if cusp else inv.lambda_plus
        if k == 0 and odd:
            if self.weight1_exact:
                return DimResult(max(0, lam), EXACT, "odd-weight-1-irreducible")
            return DimResult(max(0, lam), LOWER_BOUND, "odd-weight-1-lower-bound")
        if k == 0 and cusp:
            return DimResult(0, EXACT, "weight-0-cusp")
        if k == 0:
            return DimResult(inv.h0, EXACT, "weight-0-h0")
        if odd:
            return DimResult(lam + inv.gamma(k), EXACT, "odd-cusp-k>0" if cusp else "odd-k>0")
        if not cusp:
            return DimResult(lam + inv.gamma(k), EXACT, "even-k>0")
        if k == 1:
            # The invariant vectors add to the weight-two cusp forms.
            return DimResult(lam + inv.gamma(1) + inv.h0, EXACT, "cusp-weight-2")
        return DimResult(lam + inv.gamma(k), EXACT, "even-cusp-k>1")

    def generator_numerator(self, cusp: bool) -> tuple[int, ...]:
        """Coefficients 0..12 of (1-z^4)(1-z^6) times the dimension series.

        The holomorphic and cusp modules are free over the ring of the
        weight 4 and weight 6 Eisenstein series, with generators in
        weights 0..12, so these are the generator counts by weight and
        every higher coefficient vanishes; one that does not raises
        SnapFailure.  Weight-one lower bounds raise Weight1Indeterminate.
        """
        numerator = self._numerators.get(cusp)
        if numerator is None:
            rows = [self.dim(w, cusp) for w in range(_PRODUCT_WEIGHTS)]
            if rows[1].status != EXACT:
                raise Weight1Indeterminate(
                    f"{self.rep.name}: odd part is not certified irreducible, weight-one "
                    "dimensions are only lower bounds")
            dims = [0] * 10 + [r.value for r in rows]
            coeffs = [dims[w + 10] - dims[w + 6] - dims[w + 4] + dims[w]
                      for w in range(_PRODUCT_WEIGHTS)]
            tail = coeffs[TOP_GENERATOR_WEIGHT + 1:]
            if any(tail):
                raise SnapFailure(
                    f"{self.rep.name}: dimensions are not those of a free module, "
                    f"(1-z^4)(1-z^6) leaves {tail} at weights 13..22")
            numerator = self._numerators[cusp] = tuple(coeffs[:TOP_GENERATOR_WEIGHT + 1])
        return numerator


def dim_holomorphic(rep: ModularRepresentation, w: int,
                    settings: Settings = DEFAULT_SETTINGS) -> DimResult:
    """Dimension of the holomorphic forms of integer weight w."""
    return Analysis.of(rep, settings).dim(w, cusp=False)


def dim_cusp(rep: ModularRepresentation, w: int,
             settings: Settings = DEFAULT_SETTINGS) -> DimResult:
    """Dimension of the cusp forms of integer weight w."""
    return Analysis.of(rep, settings).dim(w, cusp=True)


def dim_table(rep: ModularRepresentation, w_min: int, w_max: int,
              settings: Settings = DEFAULT_SETTINGS) -> list[tuple[int, DimResult, DimResult]]:
    """Rows (w, holomorphic, cusp) for every integer weight in the range."""
    if w_min > w_max:
        raise ValueError(f"empty weight range {w_min}..{w_max}")
    return [(w, dim_holomorphic(rep, w, settings), dim_cusp(rep, w, settings))
            for w in range(w_min, w_max + 1)]
