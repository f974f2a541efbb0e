"""Finite-image matrix representations of the modular group.

A representation is stored through the images of the two standard
generators s = [[0,-1],[1,0]] and t = [[1,1],[0,1]].  The defining
relations are s^4 = 1 and (st)^3 = s^2, which make s^2 = (st)^3 central;
on top of that we insist the image of t has finite order, which makes the
whole image finite and gives every construction here exact integer answers.

Odd weights go through the order-twelve character kappa: kappa(s) = -i,
kappa(t) = e(1/12).  Its values, like every root of unity built here from
integers, are exact at 1, i, -1 and -i, so kappa^6 keeps real images real.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_SETTINGS,
    Matrix,
    Settings,
    SnapFailure,
    as_matrix,
    is_identity,
    max_abs,
    nullity,
    nullspace,
)

UNKNOWN = "unknown"


def _root_of_unity(p: int, q: int) -> complex:
    """e(p/q) = exp(2 pi i p/q) for integers p and q > 0, exact when it is 1, i, -1 or -i."""
    p %= q
    if 4 * p % q == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * p // q]
    return cmath.exp(2j * math.pi * p / q)


# (kappa(s)^j, kappa(t)^j) = ((-i)^j, e(j/12)) for kappa, the multiplier of eta^2.
_KAPPA_POWERS = tuple((_root_of_unity(-j, 4), _root_of_unity(j, 12)) for j in range(12))


class RelationViolation(ValueError):
    """One of the defining group relations fails beyond tolerance."""

    def __init__(self, relation: str, residual: float):
        super().__init__(f"relation {relation} fails with residual {residual:.3e}")
        self.relation = relation
        self.residual = residual


class TOrderNotFound(ValueError):
    """The t image has no certified finite order.

    check names the test that failed: "modulus" (an eigenvalue off the
    unit circle), "denominator" (an eigenphase, or a cycle of them, with
    no denominator up to the order cap) or "power" (t^n is not the
    identity).  The message gives the numbers, and the cycle length of a
    cycle longer than one.
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class ProjectorDefect(ValueError):
    """The parity projectors failed to split the space cleanly."""


@dataclass(frozen=True, eq=False, repr=False)
class ModularRepresentation:
    """Images of the two generators, immutable after construction.

    Everything, irreducibility included, is computed from the images alone;
    irreducible_assertion takes only UNKNOWN, for callers that pass it back.
    """

    s_image: Matrix
    t_image: Matrix
    name: str = "rep"
    irreducible_assertion: str = UNKNOWN
    # Derived data, which lives and dies with the representation and is not
    # part of its value: the Analysis (dimensions.Analysis.of) and the
    # certified t spectrum, each per Settings; whatever the settings, each
    # image parsed once as a factor of products (_factor) and the walk of a
    # monomial t (_cycle_walk).
    analyses: dict = field(default_factory=dict, init=False, repr=False)
    spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        s = as_matrix(self.s_image)
        t = as_matrix(self.t_image)
        if s.shape != t.shape:
            raise ValueError(f"generator images differ in shape: {s.shape} vs {t.shape}")
        if self.irreducible_assertion != UNKNOWN:
            raise ValueError(f"the irreducibility tag {self.irreducible_assertion!r} is no "
                             "longer taken: irreducibility is certified from the images")
        s.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "s_image", s)
        object.__setattr__(self, "t_image", t)

    @property
    def degree(self) -> int:
        return self.s_image.shape[0]

    @cached_property
    def _s(self) -> _Monomial | Matrix:
        return _factor(self.s_image)

    @cached_property
    def _t(self) -> _Monomial | Matrix:
        return _factor(self.t_image)

    @cached_property
    def _t_walk(self) -> tuple | None:
        return _cycle_walk(self._t) if isinstance(self._t, _Monomial) else None

    def __repr__(self):
        return f"<ModularRepresentation {self.name!r} degree={self.degree}>"


@dataclass(frozen=True)
class ValidationReport:
    relations_ok: bool
    t_order: int
    max_residual: float


@dataclass(frozen=True)
class ParityDecomposition:
    """The subrepresentations on the +1 and -1 eigenspaces of s^2, without their bases.

    The split is the proof of each part's parity: s^2 acts as +1 on
    even_part and as -1 on odd_part, so nothing that reads a part from
    here tests its parity again.
    """

    even_part: ModularRepresentation
    odd_part: ModularRepresentation


def _convergents(x: float, order_cap: int, eps: float) -> Iterator[int]:
    """Denominators q of the continued-fraction convergents p/q within eps
    of x with q up to the order cap, from the first such one on.

    The expansion of the float x is finite and its denominators grow at
    least like the Fibonacci numbers, so this takes a few dozen steps
    at most, whatever the cap.  Each convergent is closer to x than the
    one before, so once one is within eps all later ones are.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > order_cap:
            return
        if abs(x - p1 / q1) <= eps:
            yield q1


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


# The cycles of t as (L, |c|, p, q): L-th roots of c, with arg c / 2 pi = p/q
# exactly, for a cycle of length L whose entries multiply to c.  A monomial t
# has one per cycle of its permutation, any other t one per eigenvalue.
_Cycles = list[tuple[int, float, int, int]]


def _cycle(length: int, c: complex) -> tuple[int, float, int, int]:
    return length, abs(c), *(cmath.phase(c) / (2 * math.pi)).as_integer_ratio()


class _Monomial:
    """A matrix with exactly one entry != 0 in each row and column: column k
    holds values[k] at row rows[k].  image is the dense matrix it was read
    from, if any.

    The product of two real ones is composed in O(d): each of its entries
    has exactly one nonzero term, so the composition holds the very bytes
    of the dense product.  Any other product is the dense one, since an
    elementwise complex product can round differently from it.
    """

    # ndarray @ _Monomial defers to __rmatmul__ instead of reading the object as an array.
    __array_ufunc__ = None

    def __init__(self, rows: np.ndarray, values: np.ndarray, image: Matrix | None = None):
        self.rows, self.values, self.image = rows, values, image

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __matmul__(self, other):
        if isinstance(other, _Monomial) and self.dtype == other.dtype == np.float64:
            return _Monomial(self.rows[other.rows], self.values[other.rows] * other.values)
        return self.dense() @ other

    def __rmatmul__(self, other):
        return other @ self.dense()

    def dense(self) -> Matrix:
        if self.image is not None:
            return self.image
        d = len(self.rows)
        a = np.zeros((d, d))
        a[self.rows, np.arange(d)] = self.values
        return a


def _factor(a: Matrix) -> _Monomial | Matrix:
    """a as a factor of products: a _Monomial when each row and each column
    of a holds exactly one entry != 0, with no tolerance, and a otherwise.
    An empty matrix is not monomial.
    """
    # With d entries != 0 in all, a row or column holds exactly one of them
    # as soon as every row and every column holds one.
    nonzero = a != 0
    if (not a.size or np.count_nonzero(nonzero) != len(a)
            or not (nonzero.any(axis=0).all() and nonzero.any(axis=1).all())):
        return a
    rows = nonzero.argmax(axis=0)
    return _Monomial(rows, a[rows, np.arange(len(a))], a)


def _dense(a: _Monomial | Matrix) -> Matrix:
    return a.dense() if isinstance(a, _Monomial) else a


def _cycle_walk(t: _Monomial) -> tuple:
    """(order, starts, entries, cycles) of a monomial t.

    order lists every index cycle by cycle, cycle k begins at starts[k],
    t sends e_order[p] to entries[p] times the next e_j of its cycle, and
    cycles lists its _Cycles.
    """
    image = t.rows.tolist()
    order, starts = [], []
    seen = [False] * len(image)
    for start in range(len(image)):
        if seen[start]:
            continue
        starts.append(len(order))
        j = start
        while not seen[j]:
            seen[j] = True
            order.append(j)
            j = image[j]
    entries = t.values[order]
    products = np.multiply.reduceat(entries, starts).tolist()
    lengths = np.diff(starts + [len(order)]).tolist()
    return order, starts, entries, [_cycle(length, c) for length, c in zip(lengths, products)]


def _cycle_numerators(cycles: _Cycles, n: int) -> list[int]:
    """Numerators of the phases (p/q + k)/L, k = 0..L-1, of each cycle, over n."""
    return [(k * (n // length) + round(n * (p / q) / length)) % n
            for length, _, p, q in cycles for k in range(length)]


def _cycle_misses(cycles: _Cycles, m: int) -> list[float]:
    """|c^(m/L) - 1| for each cycle, L dividing m, or inf where it overflows: |t^m - 1| on
    the cycle.  c^(m/L) is |c|^(m/L) e((m/L) p/q) with the exponent reduced mod q exactly:
    the power adds no rounding of its own, but m/L multiplies that of p/q and of |c|.
    """
    misses = []
    for length, modulus, p, q in cycles:
        k = m // length
        try:
            misses.append(abs(modulus ** k * cmath.exp(2j * math.pi * (k * p % q / q)) - 1))
        except OverflowError:
            misses.append(math.inf)
    return misses


def _power_is_identity(cycles: _Cycles, m: int, eps: float) -> bool:
    """Whether t^m is the identity within eps: every L divides m and c^(m/L) is 1."""
    return all(m % cycle[0] == 0 for cycle in cycles) and max(_cycle_misses(cycles, m)) <= eps


def _t_spectrum(rep: ModularRepresentation, settings: Settings) -> tuple[int, tuple[int, ...]]:
    """Order n of the t image and its eigenphases a/n, as n and the sorted integers a in [0, n).

    The spectrum is read from cycles (L, c), each of which stands for the
    L-th roots of c: the cycles of t when t is monomial (each row and
    column holds exactly one entry != 0), and one of length one per
    eigenvalue of one eigenvalue solve otherwise.  |c|^(1/L) must lie
    within eps of 1, and y = arg c / 2 pi is rationalised as the first
    continued-fraction convergent a/b within L eps with bL at most the
    order cap; the phases (a/b + k)/L have the lcm n of the bL as their
    order.  t^n must be the identity: read off the cycles of a monomial
    t, with the exponent of c^(n/L) reduced exactly, and off one matrix
    power of any other.  When it is not, each cycle with c^(n/L) off 1
    moves to its next convergent within L eps and under the cap, and n
    is certified again; a cycle with none left fails the power check.
    A spurious convergent leaves a multiple of the order, so n is then
    divided by each prime p while t^(n/p) is still the identity, read
    off the cycles on both routes.  Each phase (y + k)/L is read as the
    nearest multiple of 1/n, and the phases must reproduce the trace of
    t.  The result is kept on the representation, by settings; a failure
    is not, and raises again.
    """
    if settings in rep.spectra:
        return rep.spectra[settings]
    t, eps, walk = rep.t_image, settings.eps, rep._t_walk
    # A real t with a real spectrum gives float eigenvalues; complex() reads both.
    cycles = walk[3] if walk else [_cycle(1, complex(lam)) for lam in np.linalg.eigvals(t)]
    snapped, candidates = [], []
    for length, modulus, p, q in cycles:
        y, modulus = p / q, modulus ** (1 / length)
        if not abs(modulus - 1.0) <= eps:
            raise TOrderNotFound(
                "modulus", f"t eigenvalue {cmath.rect(modulus, 2 * math.pi * y / length):.6g} "
                f"has |lambda| - 1 = {modulus - 1.0:.3e}, beyond the tolerance {eps:.1e}")
        convergents = _convergents(y, settings.order_cap // length, length * eps)
        b = next(convergents, None)
        if b is None:
            what = (f"t eigenphase {y % 1:.12g} has no denominator up to" if length == 1 else
                    f"t cycle of length {length} has eigenphases (y + k)/{length} with "
                    f"y = {y % 1:.12g}, which need a denominator above")
            raise TOrderNotFound("denominator", f"{what} the order cap {settings.order_cap} "
                                 f"within {eps:.1e}")
        snapped.append(b)
        candidates.append(convergents)
    while True:
        denominators = {b * cycle[0] for cycle, b in zip(cycles, snapped)}
        n = math.lcm(*denominators)
        if walk:
            residual = max(misses := _cycle_misses(cycles, n))
        else:
            # A t^n that overflows leaves an inf or NaN residual, which fails the check.
            with np.errstate(all="ignore"):
                residual = max_abs(np.linalg.matrix_power(t, n) - np.eye(len(t)))
        if residual <= eps:
            break
        # A phase whose denominator exceeds about eps^(-1/2) can have an
        # earlier convergent within eps: move each cycle that t^n leaves
        # off 1 on to its next convergent, and certify again.
        missing = [i for i, miss in enumerate(misses if walk else _cycle_misses(cycles, n))
                   if not miss <= eps]
        moved = [next(candidates[i], None) for i in missing]
        if not missing or None in moved:
            what = (f"differs from the identity by {residual:.3e}, beyond"
                    if math.isfinite(residual) else "overflows, so it is not the identity within")
            raise TOrderNotFound("power", f"t^{n} {what} the tolerance {eps:.1e}")
        for i, b in zip(missing, moved):
            snapped[i] = b
    # t^n = 1 makes t diagonalisable, so t^(n/p) is the identity exactly when
    # every eigenvalue is an (n/p)-th root of 1, as the cycles tell.
    for p in sorted(set().union(*map(_prime_factors, denominators))):
        while n % p == 0 and _power_is_identity(cycles, n // p, eps):
            n //= p
    numerators = sorted(_cycle_numerators(cycles, n))
    # Python floats, since a numpy integer array of n above 2^63 holds objects.
    roots = np.exp(2j * np.pi * np.array([a / n for a in numerators]))
    gap = abs(complex(np.sum(roots)) - complex(np.trace(t)))
    if not gap <= eps * rep.degree:
        raise SnapFailure(f"t eigenphases miss the trace of t by {gap:.3e}")
    return rep.spectra.setdefault(settings, (n, tuple(numerators)))


def find_t_order(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> int:
    """Least n >= 1 with t_image^n equal to the identity.

    The order cap of the settings bounds the denominator of each
    eigenphase, not n itself.
    """
    return _t_spectrum(rep, settings)[0]


def validate(rep: ModularRepresentation,
             settings: Settings = DEFAULT_SETTINGS) -> ValidationReport:
    """Check s^4 = 1 and (st)^3 = s^2, which imply s^2 central, and the finite order of t."""
    s, t = rep._s, rep._t
    # Products that overflow leave a residual that is not finite, which fails the gate.
    with np.errstate(all="ignore"):
        s2 = s @ s
        st = s @ t
        residuals = {
            "s^4 = 1": max_abs(_dense(s2 @ s2) - np.eye(rep.degree)),
            "(st)^3 = s^2": max_abs(_dense(st @ st @ st) - _dense(s2)),
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
    subrepresentations: each part is the restriction to an orthonormal
    basis of the null space of s^2 - 1 or s^2 + 1.  A representation of
    one parity is that part itself, and the other part is empty.  This is
    where an analysis decides parity, from the one s^2 it forms.
    """
    s2 = _dense(rep._s @ rep._s)
    sign = _parity_of_square(s2, settings)
    if sign:
        empty = ModularRepresentation(np.zeros((0, 0)), np.zeros((0, 0)),
                                      f"{rep.name}[{'odd' if sign == 1 else 'even'}]")
        return ParityDecomposition(rep, empty) if sign == 1 else ParityDecomposition(empty, rep)
    eye = np.eye(rep.degree)
    parts = []
    for sign, tag in ((1, "even"), (-1, "odd")):
        basis = nullspace(s2 - sign * eye, settings)
        s_part = _restrict(rep.s_image, basis, settings.eps)
        t_part = _restrict(rep.t_image, basis, settings.eps)
        if basis.shape[1] and not is_identity(sign * (s_part @ s_part), settings):
            raise ProjectorDefect(f"{tag} part does not have parity {sign:+d}")
        parts.append(ModularRepresentation(s_part, t_part, f"{rep.name}[{tag}]"))
    if parts[0].degree + parts[1].degree != rep.degree:
        raise ProjectorDefect("parity eigenspace dimensions do not add up to the degree")
    return ParityDecomposition(*parts)


def _cycle_basis(walk: tuple, n: int) -> Matrix:
    """Unit eigenvectors of a monomial t, as columns ordered by their numerators.

    A cycle j_0 -> ... -> j_(L-1) whose entries have the partial products
    pi_m (pi_0 = 1) gives, for each of its L numerators a, the eigenvector
    sum_m pi_m e(-a m/n) e_(j_m) / |pi|; distinct cycles have disjoint
    supports, so each phase block is orthonormal.  _t_spectrum reads the same numerators.
    """
    order, starts, entries, cycles = walk
    d = len(order)
    lengths = np.diff(starts + [d])
    first = np.repeat(starts, lengths)
    partial = np.cumprod(np.concatenate(([1], entries[:-1])))
    partial = partial / partial[first]
    partial /= np.repeat(np.sqrt(np.add.reduceat(abs(partial) ** 2, starts)), lengths)
    walked = _cycle_numerators(cycles, n)
    columns = np.argsort(walked, kind="stable")
    # Column q in walk order is the eigenvector of phase walked[q] on q's
    # cycle; the cycle of p begins at first[p], so e_order[p] is e_(j_m) for m = p - first[p].
    row, col = np.nonzero(first[:, None] == first[None, :])
    phase = np.array([a / n for a in walked])[col] * (row - first[row])
    basis = np.zeros((d, d), dtype=np.complex128)
    basis[np.take(order, row), col] = partial[row] * np.exp(-2j * np.pi * phase)
    return basis[:, columns]


def commutant_dimension(rep: ModularRepresentation,
                        settings: Settings = DEFAULT_SETTINGS) -> int:
    """Dimension of the space of matrices x with s x = x s and t x = x t.

    For a finite image this is the character norm, the sum of the
    squared multiplicities of the irreducible constituents, so it is 1
    exactly when the representation is irreducible (Schur's lemma).  In a
    basis of t eigenvectors grouped by eigenvalue, read off the cycles of
    a monomial t and from the null space of t - e(a/n) per phase of any
    other, x commutes with t exactly when it is block diagonal.  With E
    keeping the diagonal blocks, the commutant is the fixed space of
    x -> E(s x s^-1), the null space of one N x N matrix, N = sum m_a^2
    over t's multiplicities.  Under the Hermitian form that a finite
    image preserves, s acts isometrically and E is an orthogonal
    projection, so |x| = |E(s x s^-1)| <= |s x s^-1| = |x| forces
    s x s^-1 to be block diagonal, and then equal to x.  Over 962 inputs
    the least nonzero singular value was 0.54, the largest null 3.9e-14.
    """
    if not rep.degree:  # The zero space has only the zero endomorphism.
        return 0
    # The phases come sorted, so the counter lists them in that order.
    n, numerators = _t_spectrum(rep, settings)
    multiplicity = Counter(numerators)
    sizes = list(multiplicity.values())
    walk = rep._t_walk
    if walk is None:
        eye = np.eye(rep.degree)
        spaces = [nullspace(rep.t_image - _root_of_unity(a, n) * eye, settings)
                  for a in multiplicity]
        if [v.shape[1] for v in spaces] != sizes:
            raise SnapFailure(f"t eigenspaces have dimensions {[v.shape[1] for v in spaces]}, "
                              f"the eigenphase multiplicities are {sizes}")
        basis = np.hstack(spaces)
    else:
        basis = _cycle_basis(walk, n)
    s_basis = rep.s_image @ basis
    s = np.linalg.solve(basis, s_basis)
    s_inv = np.linalg.solve(s_basis, basis)
    # (s x s^-1)[i[m], j[m]] sums s[i[m], i[n]] x[i[n], j[n]] s_inv[j[n], j[m]].
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    i, j = np.nonzero(blocks[:, None] == blocks[None, :])
    m = s[np.ix_(i, i)] * s_inv[np.ix_(j, j)].T
    return nullity(np.eye(len(i)) - m, settings)


def direct_sum(a: ModularRepresentation, b: ModularRepresentation) -> ModularRepresentation:
    da, db = a.degree, b.degree
    s = np.zeros((da + db, da + db), dtype=np.result_type(a.s_image, b.s_image))
    t = np.zeros((da + db, da + db), dtype=np.result_type(a.t_image, b.t_image))
    s[:da, :da] = a.s_image
    s[da:, da:] = b.s_image
    t[:da, :da] = a.t_image
    t[da:, da:] = b.t_image
    return ModularRepresentation(s, t, f"{a.name}+{b.name}")


def tensor_kappa(rep: ModularRepresentation, j: int) -> ModularRepresentation:
    """Tensor with the j-th power of the order-twelve linear character."""
    j = j % 12
    if j == 0:
        return rep
    s, t = _KAPPA_POWERS[j]
    return ModularRepresentation(s * rep.s_image, t * rep.t_image, f"{rep.name}*k^{j}")


def contragredient(rep: ModularRepresentation) -> ModularRepresentation:
    """Dual representation, acting by inverse transposes.

    The relations give s^-1 = s^3 and t^-1 = s t s t s^-1, so the
    inverses need no t order.
    """
    s, t = rep._s, rep._t
    s_inv = s @ s @ s
    t_inv = s @ t @ s @ t @ s_inv
    return ModularRepresentation(_dense(s_inv).T, _dense(t_inv).T, f"~{rep.name}")


def build_rho0() -> ModularRepresentation:
    """The one-dimensional trivial representation."""
    one = np.eye(1)
    return ModularRepresentation(one, one, "rho0")


def build_kappa_power(j: int) -> ModularRepresentation:
    """The j-th power of the order-twelve character as a degree-one representation."""
    j = j % 12
    if j == 0:
        return build_rho0()
    s, t = _KAPPA_POWERS[j]
    return ModularRepresentation([[s]], [[t]], f"kappa^{j}")


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
    s = np.zeros((deg, deg))
    t = np.zeros((deg, deg))
    for i, (c, d) in enumerate(points):
        s[index[canonical(d, (-c) % n)], i] = 1
        t[index[canonical(c, (c + d) % n)], i] = 1
    return ModularRepresentation(s, t, f"p1({n})")
