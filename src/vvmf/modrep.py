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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_SETTINGS,
    ComplexMatrix,
    Settings,
    as_matrix,
    clean,
    is_identity,
    mat_pow,
    max_abs,
    row_reduce,
)

ASSERTED_IRREDUCIBLE = "asserted-irreducible"
ASSERTED_REDUCIBLE = "asserted-reducible"
UNKNOWN = "unknown"

_ASSERTIONS = (ASSERTED_IRREDUCIBLE, ASSERTED_REDUCIBLE, UNKNOWN)

# Twelfth roots of unity, index j holds exp(2*pi*i*j/12).
_ROOT12 = tuple(cmath.exp(2j * math.pi * j / 12) for j in range(12))


class RelationViolation(ValueError):
    """One of the defining group relations fails beyond tolerance."""

    def __init__(self, relation: str, residual: float):
        super().__init__(f"relation {relation} fails with residual {residual:.3e}")
        self.relation = relation
        self.residual = residual


class TOrderNotFound(ValueError):
    """No power of the t image reached the identity below the cap."""


class ClosureCapExceeded(RuntimeError):
    """The generated matrix group is larger than the enumeration cap."""


class ProjectorDefect(ValueError):
    """The parity projectors failed to split the space cleanly."""


class ParityError(ValueError):
    """The representation does not have the parity the operation needs."""


@dataclass(frozen=True, eq=False, repr=False)
class ModularRepresentation:
    """Images of the two generators, immutable after construction."""

    s_image: ComplexMatrix
    t_image: ComplexMatrix
    name: str = "rep"
    irreducible_assertion: str = UNKNOWN
    # Derived data by Settings, filled by dimensions.Analysis.of; it lives
    # and dies with the representation and is not part of its value.
    analyses: dict = field(default_factory=dict, init=False, repr=False)

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
    group_size: int | None = None


@dataclass(frozen=True)
class ParityDecomposition:
    """Splitting into the +1 and -1 eigenspaces of the central involution."""

    even_part: ModularRepresentation
    odd_part: ModularRepresentation
    even_basis: ComplexMatrix
    odd_basis: ComplexMatrix


def find_t_order(rep: ModularRepresentation, order_cap: int,
                 settings: Settings = DEFAULT_SETTINGS) -> int:
    """Least n >= 1 with t_image^n equal to the identity."""
    t = rep.t_image
    d = rep.degree
    power = np.eye(d, dtype=np.complex128)
    for n in range(1, order_cap + 1):
        power = power @ t
        if is_identity(power, settings):
            return n
    raise TOrderNotFound(f"t image has no order up to {order_cap}")


def validate(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS,
             closure_cap: int | None = None) -> ValidationReport:
    """Check the defining relations and the finite order of the t image.

    Passing closure_cap additionally enumerates the full matrix group
    generated by the two images and reports its size.
    """
    s, t = rep.s_image, rep.t_image
    d = rep.degree
    eye = np.eye(d, dtype=np.complex128)
    s2 = s @ s
    st = s @ t
    residuals = {
        "s^4 = 1": max_abs(s2 @ s2 - eye),
        "(st)^3 = s^2": max_abs(st @ st @ st - s2),
        "s^2 central": max_abs(s2 @ t - t @ s2),
    }
    for relation, residual in residuals.items():
        if residual > settings.eps:
            raise RelationViolation(relation, residual)
    n = find_t_order(rep, settings.order_cap, settings)
    group_size = None
    if closure_cap is not None:
        group_size = len(enumerate_closure(rep, closure_cap))
    return ValidationReport(True, n, max(residuals.values()), group_size)


def enumerate_closure(rep: ModularRepresentation,
                      cap: int = DEFAULT_CLOSURE_CAP) -> list[ComplexMatrix]:
    """Breadth-first enumeration of the matrix group the images generate.

    Matrices are deduplicated by hashing entries rounded to six decimal
    places, which is far coarser than the working tolerance and far finer
    than the separation of distinct elements in a finite unitarizable
    group of the sizes handled here.
    """
    def key(m):
        return tuple(np.round(m, 6).ravel().tolist())

    d = rep.degree
    eye = np.eye(d, dtype=np.complex128)
    gens = (rep.s_image, rep.t_image)
    seen = {key(eye): eye}
    queue = deque([eye])
    while queue:
        g = queue.popleft()
        for h in gens:
            p = g @ h
            k = key(p)
            if k not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"matrix group exceeds cap {cap}")
                seen[k] = p
                queue.append(p)
    return list(seen.values())


def parity(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> int:
    """+1 if s^2 acts as +1, -1 if as -1, 0 when both parities occur."""
    s2 = rep.s_image @ rep.s_image
    if is_identity(s2, settings):
        return 1
    if is_identity(-s2, settings):
        return -1
    return 0


def st_inverse_image(rep: ModularRepresentation) -> ComplexMatrix:
    """Image of the order-three element s t^-1.

    The relations give t s t s t = s, hence s t^-1 = (t s)^2, so no power
    of t (and no t order) is needed.
    """
    ts = rep.t_image @ rep.s_image
    return ts @ ts


def _restrict(g: ComplexMatrix, basis: ComplexMatrix, eps: float) -> ComplexMatrix:
    """Matrix of g on the column span of basis, written in that basis."""
    k = basis.shape[1]
    if k == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    gram = basis.conj().T @ basis
    m = np.linalg.solve(gram, basis.conj().T @ (g @ basis))
    if max_abs(basis @ m - g @ basis) > eps:
        raise ProjectorDefect("generator image does not preserve the parity eigenspace")
    return m


def parity_split(rep: ModularRepresentation,
                 settings: Settings = DEFAULT_SETTINGS) -> ParityDecomposition:
    """Split into purely even and purely odd subrepresentations.

    The projectors (1 +/- s^2)/2 commute with the whole image because
    s^2 is central, so their column spans carry subrepresentations.
    Bases come from the pivot columns of the row-reduced projectors.
    """
    d = rep.degree
    eye = np.eye(d, dtype=np.complex128)
    s2 = rep.s_image @ rep.s_image
    parts = []
    bases = []
    for sign, tag in ((1, "even"), (-1, "odd")):
        proj = clean((eye + sign * s2) / 2, settings)
        _, pivots = row_reduce(proj, settings)
        basis = proj[:, pivots]
        s_part = _restrict(rep.s_image, basis, settings.eps)
        t_part = _restrict(rep.t_image, basis, settings.eps)
        if basis.shape[1] and not is_identity(sign * (s_part @ s_part), settings):
            raise ProjectorDefect(f"{tag} part does not have parity {sign:+d}")
        assertion = rep.irreducible_assertion if basis.shape[1] == d else UNKNOWN
        parts.append(ModularRepresentation(s_part, t_part, f"{rep.name}[{tag}]", assertion))
        bases.append(basis)
    if parts[0].degree + parts[1].degree != d:
        raise ProjectorDefect("parity eigenspace dimensions do not add up to the degree")
    return ParityDecomposition(parts[0], parts[1], bases[0], bases[1])


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
    return ModularRepresentation(one, one, "rho0", ASSERTED_IRREDUCIBLE)


def build_kappa_power(j: int) -> ModularRepresentation:
    """The j-th power of the order-twelve character as a degree-one representation."""
    j = j % 12
    if j == 0:
        return build_rho0()
    s = np.array([[kappa_s_value(j)]], dtype=np.complex128)
    t = np.array([[kappa_t_value(j)]], dtype=np.complex128)
    return ModularRepresentation(s, t, f"kappa^{j}", ASSERTED_IRREDUCIBLE)


def _p1_points(n: int) -> list[tuple[int, int]]:
    """Projective line over the integers mod n, one canonical pair per class.

    A pair (c, d) with gcd(c, d, n) = 1 represents a class; two pairs are
    identified when they differ by a unit factor.  The canonical member
    is the lexicographically smallest unit multiple.
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    points = []
    for c in range(n):
        for d in range(n):
            if math.gcd(math.gcd(c, d), n) != 1:
                continue
            canon = min(((u * c) % n, (u * d) % n) for u in units)
            if canon not in seen:
                seen.add(canon)
                points.append(canon)
    points.sort()
    return points


def build_p1_permutation(n: int) -> ModularRepresentation:
    """Permutation representation on the projective line mod n.

    The generators act on row pairs from the right: s sends (c : d) to
    (d : -c) and t sends (c : d) to (c : c + d).  Degree is n times the
    product of (1 + 1/p) over primes p dividing n.
    """
    if not 2 <= n <= 30:
        raise ValueError(f"modulus must lie in 2..30, got {n}")
    points = _p1_points(n)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    index = {pt: i for i, pt in enumerate(points)}

    def canonical(c, d):
        return min(((u * c) % n, (u * d) % n) for u in units)

    deg = len(points)
    s = np.zeros((deg, deg), dtype=np.complex128)
    t = np.zeros((deg, deg), dtype=np.complex128)
    for i, (c, d) in enumerate(points):
        s[index[canonical(d, (-c) % n)], i] = 1
        t[index[canonical(c, (c + d) % n)], i] = 1
    return ModularRepresentation(s, t, f"p1({n})")
