"""Dimension formulas for holomorphic and cusp forms of every integer weight.

All values come from one Analysis per representation and settings; a
representation whose contragredient has the very same images (any
permutation representation) shares it with its dual.  The single case
the formulas do not pin down exactly is weight one for a reducible odd
part (commutant dimension above one); there the returned value is a
lower bound and is marked as such instead of silently pretending to be
exact.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .invariants import PartInvariants, part_invariants
from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure
from .modrep import (
    ModularRepresentation,
    commutant_dimension,
    contragredient,
    parity_split,
)

EXACT = "exact"
LOWER_BOUND = "lower-bound"

TOP_GENERATOR_WEIGHT = 12


class Weight1Indeterminate(ValueError):
    """Generator counts need weight-one dimensions the theory cannot pin down."""


@dataclass(frozen=True)
class DimResult:
    """One computed dimension with its provenance rule."""

    value: int
    status: str = EXACT
    rule: str = ""


def certify_irreducible(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> bool:
    """True when the commutant of the image is one-dimensional, which by
    Schur's lemma is irreducibility.  Every input takes this test: a sum of
    two nonzero parts has a commutant of dimension at least 2, a degree-one
    input one of dimension 1, and the zero space one of dimension 0.
    """
    return commutant_dimension(rep, settings) == 1


class Analysis:
    """Everything derived from one representation under one Settings.

    Analysis.of memoises it on the representation, keyed by the settings:
    calls with equal settings share it, calls with other settings get
    their own, and it is freed together with the representation.  It
    keeps no dimension row: each is read off the part invariants per call.
    """

    def __init__(self, rep: ModularRepresentation, settings: Settings):
        self.rep = rep
        self.settings = settings
        self.split = parity_split(rep, settings)
        self._degrees = (self.split.even_part.degree, self.split.odd_part.degree)
        self._invariants: dict[bool, PartInvariants] = {}
        self._numerators: dict[bool, tuple[int, ...]] = {}

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
        return certify_irreducible(self.split.odd_part, self.settings)

    @cached_property
    def dual(self) -> Analysis:
        """Analysis of the contragredient, which takes its weight-one certificate
        from here: x -> x^T maps one commutant onto the other.

        When the contragredient's images equal this representation's entry
        for entry, as for a permutation representation, its analysis would
        repeat this one on the same numbers.  It then shares this Analysis's
        split, part invariants and generator numerators; only its rep,
        and so its name, is its own.  Images equal only up to rounding get
        their own analysis.
        """
        rep = contragredient(self.rep)
        if (np.array_equal(rep.s_image, self.rep.s_image)
                and np.array_equal(rep.t_image, self.rep.t_image)):
            dual = rep.analyses[self.settings] = copy.copy(self)
            dual.rep = rep
        else:
            dual = Analysis.of(rep, self.settings)
        dual.weight1_exact = self.weight1_exact
        return dual

    def dim(self, w: int, cusp: bool = False) -> DimResult:
        """Dimension of the holomorphic (or cusp) forms of integer weight w."""
        row = self._row(w, cusp)
        if row.value < 0:  # Possible only with no invariant positive-definite form.
            inv = self.invariants(w % 2 == 1)
            lam = f"lambda- = {inv.lambda_minus}" if cusp else f"lambda+ = {inv.lambda_plus}"
            raise SnapFailure(f"{self.rep.name}: weight {w} gives the "
                              f"{'cusp' if cusp else 'holomorphic'} dimension {row.value} < 0 "
                              f"by the rule {row.rule}, with {lam}")
        return row

    def _row(self, w: int, cusp: bool) -> DimResult:
        """Row w from its parity part's invariants.  Weight one on an
        irreducible odd part sigma assumes that M_1(sigma) or S_1(sigma*) is
        0: the formulas fix only M_1(sigma) - S_1(sigma*) = lambda+, so
        max(0, lambda+) is then exact.  S_1 assumes the same of sigma*."""
        odd = w % 2 == 1
        if not self._degrees[odd]:
            return DimResult(0, EXACT, "parity-zero")
        k = w // 2
        if k < 0:
            return DimResult(0, EXACT, "negative-weight")
        inv = self._invariants.get(odd) or self.invariants(odd)
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
        weights 0..12, so these are the generator counts by weight.  No
        row above 12 is read: a higher coefficient takes only rows of
        weight 3 or more, each lambda + gamma(w // 2), and vanishes since
        gamma(k) - gamma(k-2) - gamma(k-3) + gamma(k-5) = 0.  Weight-one
        lower bounds raise Weight1Indeterminate.
        """
        numerator = self._numerators.get(cusp)
        if numerator is None:
            rows = [self.dim(w, cusp) for w in range(TOP_GENERATOR_WEIGHT + 1)]
            if rows[1].status != EXACT:
                raise Weight1Indeterminate(
                    f"{self.rep.name}: odd part is not certified irreducible, weight-one "
                    "dimensions are only lower bounds")
            dims = [0] * 10 + [r.value for r in rows]
            numerator = self._numerators[cusp] = tuple(
                dims[w + 10] - dims[w + 6] - dims[w + 4] + dims[w]
                for w in range(TOP_GENERATOR_WEIGHT + 1))
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
