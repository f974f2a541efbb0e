"""Finite-image matrix representations of the modular group.

A representation is stored through the images of the two standard
generators s = [[0,-1],[1,0]] and t = [[1,1],[0,1]].  The defining
relations are s^4 = 1 and (st)^3 = s^2, with s^2 central; on top of
that we insist the image of t has finite order, which makes the whole
image finite and gives every construction here exact integer answers.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import (
    DEFAULT_SETTINGS,
    Matrix,
    Settings,
    SnapFailure,
    as_matrix,
    is_identity,
    mat_pow,
    max_abs,
    nullity,
    nullspace,
)

ASSERTED_REDUCIBLE = "asserted-reducible"
UNKNOWN = "unknown"

_ASSERTIONS = (ASSERTED_REDUCIBLE, UNKNOWN)

# Twelfth roots of unity, index j holds exp(2*pi*i*j/12).
_ROOT12 = tuple(cmath.exp(2j * math.pi * j / 12) for j in range(12))


class RelationViolation(ValueError):
    """One of the defining group relations fails beyond tolerance."""

    def __init__(self, relation: str, residual: float):
        super().__init__(f"relation {relation} fails with residual {residual:.3e}")
        self.relation = relation
        self.residual = residual


class TOrderNotFound(ValueError):
    """The t image has no certified finite order.

    check names the test that failed: "modulus" (an eigenvalue off the
    unit circle), "denominator" (an eigenphase with no denominator up to
    the order cap), "power" (t^n is not the identity) or "divisor"
    (t^(n/p) already is).  The message gives the numbers.
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class ProjectorDefect(ValueError):
    """The parity projectors failed to split the space cleanly."""


class ParityError(ValueError):
    """The representation does not have the parity the operation needs."""


@dataclass(frozen=True, eq=False, repr=False)
class ModularRepresentation:
    """Images of the two generators, immutable after construction."""

    s_image: Matrix
    t_image: Matrix
    name: str = "rep"
    irreducible_assertion: str = UNKNOWN
    # Derived data, which lives and dies with the representation and is not
    # part of its value: the Analysis (dimensions.Analysis.of) and the
    # certified t spectrum, each per Settings.
    analyses: dict = field(default_factory=dict, init=False, repr=False)
    spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        s = as_matrix(self.s_image)
        t = as_matrix(self.t_image)
        if s.shape != t.shape:
            raise ValueError(f"generator images differ in shape: {s.shape} vs {t.shape}")
        if self.irreducible_assertion not in _ASSERTIONS:
            raise ValueError(f"unknown irreducibility assertion {self.irreducible_assertion!r}")
        s.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "s_image", s)
        object.__setattr__(self, "t_image", t)

    @property
    def degree(self) -> int:
        return self.s_image.shape[0]

    def __repr__(self):
        return f"<ModularRepresentation {self.name!r} degree={self.degree}>"


@dataclass(frozen=True)
class ValidationReport:
    relations_ok: bool
    t_order: int
    max_residual: float


@dataclass(frozen=True)
class ParityDecomposition:
    """Splitting into the +1 and -1 eigenspaces of the central involution.

    The split is the proof of each part's parity: s^2 acts as +1 on
    even_part and as -1 on odd_part, so nothing that reads a part from
    here tests its parity again.
    """

    even_part: ModularRepresentation
    odd_part: ModularRepresentation
    even_basis: Matrix
    odd_basis: Matrix


def _rational_phase(x: float, order_cap: int, eps: float) -> tuple[int, int]:
    """First continued-fraction convergent p/q within eps of x, as (p mod q, q).

    The expansion of the float x is finite and its denominators grow at
    least like the Fibonacci numbers, so this takes a few dozen steps
    at most, whatever the cap.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > order_cap:
            break
        if abs(x - p1 / q1) <= eps:
            return p1 % q1, q1
    raise TOrderNotFound(
        "denominator",
        f"t eigenphase {x % 1:.12g} has no denominator up to the order cap "
        f"{order_cap} within {eps:.1e}")


def _prime_factors(n: int) -> set[int]:
    primes = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return primes


def _t_spectrum(rep: ModularRepresentation,
                settings: Settings) -> tuple[int, tuple[Fraction, ...]]:
    """Order of the t image and its eigenphases, sorted fractions in [0, 1).

    One eigenvalue solve gives the phases: each eigenvalue must lie
    within eps of the unit circle, and its phase is rationalised as the
    first continued-fraction convergent within eps, with denominator at
    most the order cap.  The order n is the lcm of the denominators and is
    certified by matrix powers: t^n is the identity, t^(n/p) is not for
    any prime p dividing n, and the phases reproduce the trace of t.
    The result is kept on the representation, by settings; a failure is
    not, and raises again on every call.
    """
    if settings in rep.spectra:
        return rep.spectra[settings]
    t = rep.t_image
    eps = settings.eps
    pairs = []
    # A real t with a real spectrum gives float eigenvalues; cmath reads both.
    for lam in np.linalg.eigvals(t):
        defect = abs(lam) - 1.0
        if not abs(defect) <= eps:
            raise TOrderNotFound(
                "modulus", f"t eigenvalue {complex(lam):.6g} has |lambda| - 1 = {defect:.3e}, "
                f"beyond the tolerance {eps:.1e}")
        pairs.append(_rational_phase(cmath.phase(lam) / (2 * math.pi), settings.order_cap, eps))
    # Distinct phases with denominators up to the cap differ by far more
    # than float resolution, so the float keys order them exactly.
    pairs.sort(key=lambda pq: pq[0] / pq[1])
    denominators = {q for _, q in pairs}
    n = math.lcm(*denominators)
    primes = sorted(set().union(*map(_prime_factors, denominators)))
    radical = math.prod(primes)
    # Each t^(n/p) is a power of one base, and t^n is the smallest prime's
    # power of its t^(n/p).
    base = mat_pow(t, n // radical)
    divisor_powers = [mat_pow(base, radical // p) for p in primes]
    t_n = mat_pow(divisor_powers[0], primes[0]) if primes else base
    residual = max_abs(t_n - np.eye(rep.degree))
    if not residual <= eps:
        raise TOrderNotFound(
            "power", f"t^{n} differs from the identity by {residual:.3e}, "
            f"beyond the tolerance {eps:.1e}")
    for p, power in zip(primes, divisor_powers):
        if is_identity(power, settings):
            raise TOrderNotFound(
                "divisor", f"t^{n // p} is already the identity, a proper divisor of the "
                f"eigenphase order {n}")
    roots = np.exp(2j * np.pi * np.array([p / q for p, q in pairs]))
    gap = abs(complex(np.sum(roots)) - complex(np.trace(t)))
    if not gap <= eps * rep.degree:
        raise SnapFailure(f"t eigenphases miss the trace of t by {gap:.3e}")
    spectrum = rep.spectra[settings] = (n, tuple(Fraction(p, q) for p, q in pairs))
    return spectrum


def find_t_order(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> int:
    """Least n >= 1 with t_image^n equal to the identity.

    The order cap of the settings bounds the denominator of each
    eigenphase, not n itself.
    """
    return _t_spectrum(rep, settings)[0]


def validate(rep: ModularRepresentation,
             settings: Settings = DEFAULT_SETTINGS) -> ValidationReport:
    """Check the defining relations and the finite order of the t image."""
    s, t = rep.s_image, rep.t_image
    eye = np.eye(rep.degree)
    # Products that overflow leave a NaN residual, which fails the gate.
    with np.errstate(all="ignore"):
        s2 = s @ s
        st = s @ t
        residuals = {
            "s^4 = 1": max_abs(s2 @ s2 - eye),
            "(st)^3 = s^2": max_abs(st @ st @ st - s2),
            "s^2 central": max_abs(s2 @ t - t @ s2),
        }
    for relation, residual in residuals.items():
        if not residual <= settings.eps:
            raise RelationViolation(relation, residual)
    n = find_t_order(rep, settings)
    return ValidationReport(True, n, max(residuals.values()))


def _parity_of_square(s2: Matrix, settings: Settings) -> int:
    if is_identity(s2, settings):
        return 1
    if is_identity(-s2, settings):
        return -1
    return 0


def parity(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> int:
    """+1 if s^2 acts as +1, -1 if as -1, 0 when both parities occur."""
    return _parity_of_square(rep.s_image @ rep.s_image, settings)


def st_inverse_image(rep: ModularRepresentation) -> Matrix:
    """Image of the order-three element s t^-1.

    The relations give t s t s t = s, hence s t^-1 = (t s)^2, so no power
    of t (and no t order) is needed.
    """
    ts = rep.t_image @ rep.s_image
    return ts @ ts


def _restrict(g: Matrix, basis: Matrix, eps: float) -> Matrix:
    """Matrix of g on the span of the orthonormal columns of basis."""
    image = g @ basis
    m = basis.conj().T @ image
    if not max_abs(basis @ m - image) <= eps:
        raise ProjectorDefect("generator image does not preserve the parity eigenspace")
    return m


def parity_split(rep: ModularRepresentation,
                 settings: Settings = DEFAULT_SETTINGS) -> ParityDecomposition:
    """Split into purely even and purely odd subrepresentations.

    s^2 is central, so its eigenspaces for +1 and -1 carry
    subrepresentations; their orthonormal bases are the null spaces of
    s^2 - 1 and s^2 + 1.  A representation of one parity is that part
    itself, with the identity as its basis, and the other part is empty.
    This is where an analysis decides parity, from the one s^2 it forms.
    """
    d = rep.degree
    eye = np.eye(d)
    s2 = rep.s_image @ rep.s_image
    sign = _parity_of_square(s2, settings)
    if sign:
        empty = ModularRepresentation(np.zeros((0, 0)), np.zeros((0, 0)),
                                      f"{rep.name}[{'odd' if sign == 1 else 'even'}]")
        no_basis = np.zeros((d, 0))
        if sign == 1:
            return ParityDecomposition(rep, empty, eye, no_basis)
        return ParityDecomposition(empty, rep, no_basis, eye)
    parts = []
    bases = []
    for sign, tag in ((1, "even"), (-1, "odd")):
        basis = nullspace(s2 - sign * eye, settings)
        s_part = _restrict(rep.s_image, basis, settings.eps)
        t_part = _restrict(rep.t_image, basis, settings.eps)
        if basis.shape[1] and not is_identity(sign * (s_part @ s_part), settings):
            raise ProjectorDefect(f"{tag} part does not have parity {sign:+d}")
        parts.append(ModularRepresentation(s_part, t_part, f"{rep.name}[{tag}]"))
        bases.append(basis)
    if parts[0].degree + parts[1].degree != d:
        raise ProjectorDefect("parity eigenspace dimensions do not add up to the degree")
    return ParityDecomposition(parts[0], parts[1], bases[0], bases[1])


def commutant_dimension(rep: ModularRepresentation,
                        settings: Settings = DEFAULT_SETTINGS) -> int:
    """Dimension of the space of matrices x with s x = x s and t x = x t.

    For a finite image this is the character norm, the sum of the
    squared multiplicities of the irreducible constituents, so it is 1
    exactly when the representation is irreducible (Schur's lemma).
    Written in a basis of t eigenvectors grouped by eigenvalue, x
    commutes with t exactly when it is block diagonal, so only s x = x s
    is solved, and only for the diagonal blocks.
    """
    d = rep.degree
    eye = np.eye(d)
    # The phases come sorted, so the counter lists them in that order.
    multiplicity = Counter(_t_spectrum(rep, settings)[1])
    spaces = [nullspace(rep.t_image - cmath.exp(2j * math.pi * float(x)) * eye, settings)
              for x in multiplicity]
    sizes = [v.shape[1] for v in spaces]
    if sizes != list(multiplicity.values()):
        raise SnapFailure(f"t eigenspaces have dimensions {sizes}, the eigenphase "
                          f"multiplicities are {list(multiplicity.values())}")
    basis = np.hstack(spaces)
    s = np.linalg.solve(basis, rep.s_image @ basis)
    # Unknown n is the entry (i[n], j[n]) of x; its column in the system
    # holds s e_ij - e_ij s, read as a d*d vector.
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    i, j = np.nonzero(blocks[:, None] == blocks[None, :])
    n = np.arange(len(i))
    system = np.zeros((d, d, len(i)), dtype=np.complex128)
    system[:, j, n] = s[:, i]
    system[i, :, n] -= s[j, :]
    return nullity(system.reshape(d * d, len(i)), settings)


def direct_sum(a: ModularRepresentation, b: ModularRepresentation) -> ModularRepresentation:
    da, db = a.degree, b.degree
    s = np.zeros((da + db, da + db), dtype=np.complex128)
    t = np.zeros((da + db, da + db), dtype=np.complex128)
    s[:da, :da] = a.s_image
    s[da:, da:] = b.s_image
    t[:da, :da] = a.t_image
    t[da:, da:] = b.t_image
    if da == 0:
        assertion = b.irreducible_assertion
    elif db == 0:
        assertion = a.irreducible_assertion
    else:
        assertion = ASSERTED_REDUCIBLE
    return ModularRepresentation(s, t, f"{a.name}+{b.name}", assertion)


def kappa_s_value(j: int) -> complex:
    """j-th power of the unit the order-twelve character assigns to s."""
    return (1, -1j, -1, 1j)[j % 4]


def kappa_t_value(j: int) -> complex:
    """j-th power of the primitive twelfth root the character assigns to t."""
    return _ROOT12[j % 12]


def tensor_kappa(rep: ModularRepresentation, j: int) -> ModularRepresentation:
    """Tensor with the j-th power of the order-twelve linear character."""
    j = j % 12
    if j == 0:
        return rep
    if j == 6:
        # The sign character, applied exactly, so that real images stay real.
        s, t = -rep.s_image, -rep.t_image
    else:
        s = kappa_s_value(j) * rep.s_image
        t = kappa_t_value(j) * rep.t_image
    return ModularRepresentation(s, t, f"{rep.name}*k^{j}", rep.irreducible_assertion)


def contragredient(rep: ModularRepresentation) -> ModularRepresentation:
    """Dual representation, acting by inverse transposes.

    The relations give s^-1 = s^3 and t^-1 = s t s t s^-1, so the
    inverses need no t order.
    """
    s_inv = mat_pow(rep.s_image, 3)
    t_inv = rep.s_image @ rep.t_image @ rep.s_image @ rep.t_image @ s_inv
    return ModularRepresentation(s_inv.T, t_inv.T, f"~{rep.name}", rep.irreducible_assertion)


def build_rho0() -> ModularRepresentation:
    """The one-dimensional trivial representation."""
    one = np.eye(1, dtype=np.complex128)
    return ModularRepresentation(one, one, "rho0")


def build_kappa_power(j: int) -> ModularRepresentation:
    """The j-th power of the order-twelve character as a degree-one representation."""
    j = j % 12
    if j == 0:
        return build_rho0()
    s = np.array([[kappa_s_value(j)]], dtype=np.complex128)
    t = np.array([[kappa_t_value(j)]], dtype=np.complex128)
    return ModularRepresentation(s, t, f"kappa^{j}")


def build_p1_permutation(n: int) -> ModularRepresentation:
    """Permutation representation on the projective line mod n.

    The generators act on row pairs from the right: s sends (c : d) to
    (d : -c) and t sends (c : d) to (c : c + d).  Degree is n times the
    product of (1 + 1/p) over primes p dividing n.

    A pair (c, d) with gcd(c, d, n) = 1 represents a point, and two pairs
    are the same point when they differ by a unit factor; the canonical
    member is the lexicographically smallest unit multiple, and the
    basis is the canonical pairs in sorted order.
    """
    if not 2 <= n <= 30:
        raise ValueError(f"modulus must lie in 2..30, got {n}")
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]

    def canonical(c, d):
        return min(((u * c) % n, (u * d) % n) for u in units)

    points = sorted({canonical(c, d) for c in range(n) for d in range(n)
                     if math.gcd(math.gcd(c, d), n) == 1})
    index = {pt: i for i, pt in enumerate(points)}
    deg = len(points)
    s = np.zeros((deg, deg), dtype=np.complex128)
    t = np.zeros((deg, deg), dtype=np.complex128)
    for i, (c, d) in enumerate(points):
        s[index[canonical(d, (-c) % n)], i] = 1
        t[index[canonical(c, (c + d) % n)], i] = 1
    return ModularRepresentation(s, t, f"p1({n})")
