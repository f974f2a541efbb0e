"""Generator weight profiles, Hilbert series and duality reports.

The graded modules of holomorphic and cusp forms are free of rank d
over the ring generated by the two classical Eisenstein series, so each
module is described completely by the multiset of weights of its free
generators.  Those weights live in 0..12 (even parts on even weights,
odd parts on odd ones) and determine the Hilbert series with the fixed
denominator (1-z^4)(1-z^6).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimensions import Analysis, Weight1Indeterminate
from .linalg import DEFAULT_SETTINGS, Settings
from .modrep import ModularRepresentation

HOLOMORPHIC = "holomorphic"
CUSP = "cusp"

DENOMINATOR = "(1-z^4)(1-z^6)"


@dataclass(frozen=True)
class GeneratorProfile:
    """Weights of the free module generators, as weight -> count."""

    kind: str
    counts: dict[int, int]
    degree: int

    def __post_init__(self):
        assert self.kind in (HOLOMORPHIC, CUSP)
        for w, c in self.counts.items():
            if not (0 <= w <= 12 and c >= 0):
                raise ValueError(f"generator count {c} at weight {w} is out of range")
        if sum(self.counts.values()) != self.degree:
            raise ValueError("generator counts must total the degree")


@dataclass(frozen=True)
class HilbertSeries:
    """Rational generating function of the dimension sequence."""

    numerator: tuple[int, ...]
    denominator: str = DENOMINATOR

    def coefficient(self, w: int) -> int:
        if 0 <= w < len(self.numerator):
            return self.numerator[w]
        return 0

    def expand(self, max_weight: int) -> list[int]:
        """Taylor coefficients of numerator/denominator up to max_weight."""
        dims = [0] * (max_weight + 1)
        for u, c in enumerate(self.numerator):
            if c == 0 or u > max_weight:
                continue
            for a in range((max_weight - u) // 4 + 1):
                for b in range((max_weight - u - 4 * a) // 6 + 1):
                    dims[u + 4 * a + 6 * b] += c
        return dims


def generator_profile(rep: ModularRepresentation, kind: str = HOLOMORPHIC,
                      settings: Settings = DEFAULT_SETTINGS) -> GeneratorProfile:
    """Count free generators by weight.

    The counts are the numerator the Analysis reads off its own
    dimensions; odd parts additionally need exact weight-one dimensions
    and raise Weight1Indeterminate when those are only lower bounds.
    """
    if kind not in (HOLOMORPHIC, CUSP):
        raise ValueError(f"kind must be {HOLOMORPHIC!r} or {CUSP!r}")
    numerator = Analysis.of(rep, settings).generator_numerator(kind == CUSP)
    counts = {w: c for w, c in enumerate(numerator) if c}
    return GeneratorProfile(kind, counts, rep.degree)


def hilbert_series(rep: ModularRepresentation, kind: str = HOLOMORPHIC,
                   settings: Settings = DEFAULT_SETTINGS) -> HilbertSeries:
    """Numerator polynomial of the dimension generating function."""
    profile = generator_profile(rep, kind, settings)
    top = max(profile.counts, default=0)
    return HilbertSeries(tuple(profile.counts.get(w, 0) for w in range(top + 1)))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    status: str  # "pass", "fail" or "skipped"
    counterexamples: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class DualityReport:
    rep_name: str
    dual_name: str
    n_max: int
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _sum_check(name, a: Analysis, n_max, part_degree, weight_pair) -> IdentityCheck:
    if part_degree == 0:
        return IdentityCheck(name, "skipped", note="no part of this parity")
    bad = []
    for n in range(1, n_max + 1):
        for k in range(1, 6 * n):
            w_holo, w_cusp = weight_pair(n, k)
            total = a.dim(w_holo).value + a.dual.dim(w_cusp, cusp=True).value
            if total != n * part_degree:
                bad.append((n, k, total))
    if bad:
        return IdentityCheck(name, "fail", tuple(bad))
    return IdentityCheck(name, "pass")


def duality_report(rep: ModularRepresentation, n_max: int = 3,
                   settings: Settings = DEFAULT_SETTINGS) -> DualityReport:
    """Verify the dimension and generator identities tying rep to its dual.

    The pointwise checks sum a holomorphic dimension of rep and a cusp
    dimension of the dual at complementary weights; both only ever see
    weights where every status is exact.  The generator mirror needs
    exact weight-one data and is skipped, not failed, without it.
    """
    a = Analysis.of(rep, settings)
    dual = a.dual.rep
    checks = [
        _sum_check("even-weight-sum", a, n_max, a.split.even_part.degree,
                   lambda n, k: (2 * k, 12 * n + 2 - 2 * k)),
        _sum_check("odd-weight-sum", a, n_max, a.split.odd_part.degree,
                   lambda n, k: (2 * k + 1, 12 * n + 1 - 2 * k)),
    ]
    try:
        mirrors = (
            ("generator-mirror-holo", hilbert_series(rep, HOLOMORPHIC, settings),
             hilbert_series(dual, CUSP, settings)),
            ("generator-mirror-cusp", hilbert_series(rep, CUSP, settings),
             hilbert_series(dual, HOLOMORPHIC, settings)),
        )
    except Weight1Indeterminate as err:
        checks.append(IdentityCheck("generator-mirror-holo", "skipped", note=str(err)))
        checks.append(IdentityCheck("generator-mirror-cusp", "skipped", note=str(err)))
    else:
        for name, series_rep, series_dual in mirrors:
            bad = tuple(w for w in range(13)
                        if series_dual.coefficient(w) != series_rep.coefficient(12 - w))
            checks.append(IdentityCheck(name, "fail" if bad else "pass", bad))
    return DualityReport(rep.name, dual.name, n_max, tuple(checks))
