"""Generator weight profiles and duality reports.

The graded modules of holomorphic and cusp forms are free of rank d
over the ring generated by the two classical Eisenstein series, so each
module is described completely by the multiset of weights of its free
generators.  Those weights live in 0..12 (even parts on even weights,
odd parts on odd ones) and are the numerator of the Hilbert series with
the fixed denominator (1-z^4)(1-z^6).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimensions import Analysis, Weight1Indeterminate
from .linalg import DEFAULT_SETTINGS, Settings
from .modrep import ModularRepresentation

HOLOMORPHIC = "holomorphic"
CUSP = "cusp"


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
    names = ("generator-mirror-holo", "generator-mirror-cusp")
    try:
        mirrors = [(a.generator_numerator(cusp), a.dual.generator_numerator(not cusp))
                   for cusp in (False, True)]
    except Weight1Indeterminate as err:
        checks += [IdentityCheck(name, "skipped", note=str(err)) for name in names]
    else:
        for name, (numerator, dual_numerator) in zip(names, mirrors):
            bad = tuple(w for w in range(13) if dual_numerator[w] != numerator[12 - w])
            checks.append(IdentityCheck(name, "fail" if bad else "pass", bad))
    return DualityReport(rep.name, dual.name, n_max, tuple(checks))
