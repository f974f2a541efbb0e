"""Independent dimension routes the tests compare the library against."""

import cmath
import itertools
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from vvmf.dimensions import EXACT, Analysis, Weight1Indeterminate, dim_table
from vvmf.invariants import Signature, part_invariants
from vvmf.linalg import DEFAULT_SETTINGS, SnapFailure, max_abs, nullity
from vvmf.modrep import (
    ModularRepresentation,
    build_p1_permutation,
    contragredient,
    direct_sum,
    parity_split,
    tensor_kappa,
    validate,
)


def dim_via_exponent_shift(rep, k):
    """Second dimension route for an even irreducible representation.

    Returns (holomorphic, cusp) dimensions of weight-k forms for the
    k-th character twist, read directly off the floor sums at shift
    k/12, taken one Fraction per eigenvalue.  Exactness needs
    irreducibility, which the caller vouches for; rep must be purely
    even, or ValueError is raised.
    """
    split = parity_split(rep)
    if split.odd_part.degree:
        raise ValueError(f"{rep.name} is not purely even")
    inv = part_invariants(split, False)
    holo, cusp = fraction_lambdas(inv.phases, inv.sig.trace_lambda, Fraction(k, 12))
    return max(0, holo), max(0, cusp)


_TWIST_TABLE = (
    lambda d, a, b1, b2: (a, b1, b2),
    lambda d, a, b1, b2: (d - a, b2, d - b1 - b2),
    lambda d, a, b1, b2: (a, d - b1 - b2, b1),
    lambda d, a, b1, b2: (d - a, b1, b2),
    lambda d, a, b1, b2: (a, b2, d - b1 - b2),
    lambda d, a, b1, b2: (d - a, d - b1 - b2, b1),
)


def signature_of_twist(sig, k):
    """Signature after tensoring with the (-2k)-th character power.

    Only k mod 6 matters because the twelfth character power is trivial
    and even twists preserve parity.  Hand-derived from how the twist
    moves the eigenvalues of s and s t^-1; the library reads every
    signature off traces instead.
    """
    a, b1, b2 = _TWIST_TABLE[k % 6](sig.d, sig.alpha, sig.beta1, sig.beta2)
    return Signature(sig.d, a, b1, b2)


def partner_invariants(part):
    """Signature and eigenphases of the even partner of an odd part, built
    as a representation: the part tensored with the inverse character."""
    split = parity_split(tensor_kappa(part, -1))
    assert not split.odd_part.degree, f"{part.name} has a partner that is not purely even"
    inv = part_invariants(split, False)
    return inv.sig, inv.phases


def u_signature(rep, tol=1e-6):
    """Signature of a purely even representation from the eigenvalues of
    s and of u = s t^-1 = (ts)^2: alpha counts the -1 of s, beta1 and
    beta2 the e(1/3) and e(2/3) of u.  Each eigenvalue must lie within
    tol of a square root of 1 for s and a cube root of 1 for u."""
    ts = rep.t_image @ rep.s_image
    counts = []
    for g, order in ((rep.s_image, 2), (ts @ ts, 3)):
        eigenvalues = np.linalg.eigvals(g)
        roots = np.round(order * np.angle(eigenvalues) / (2 * np.pi)).astype(int) % order
        assert max_abs(eigenvalues - np.exp(2j * np.pi * roots / order)) <= tol, rep.name
        counts.append(Counter(roots.tolist()))
    return Signature(rep.degree, counts[0][1], counts[1][1], counts[1][2])


def stacked_h0(rep, settings=DEFAULT_SETTINGS):
    """Dimension of the vectors fixed by s and t, as the null space of
    s - 1 stacked on t - 1."""
    eye = np.eye(rep.degree)
    return nullity(np.vstack([rep.s_image - eye, rep.t_image - eye]), settings)


def fraction_offset(phases, trace_lambda):
    """Log trace minus phase sum, one Fraction per term, or SnapFailure."""
    gap = trace_lambda - sum(phases, Fraction(0))
    if gap.denominator != 1:
        raise SnapFailure(f"log trace differs from phase sum by the non-integer {gap}")
    return int(gap)


def fraction_lambdas(phases, trace_lambda, shift):
    """lambda+ and lambda- with one Fraction per eigenvalue: the sums of
    floor(x + shift) and of -floor(1 - shift - x) over the log eigenvalues x."""
    s, offset = Fraction(shift), fraction_offset(phases, trace_lambda)
    return (offset + sum(math.floor(x + s) for x in phases),
            offset - sum(math.floor(1 - s - x) for x in phases))


def p1_sum(*moduli):
    """Direct sum of the projective-line permutation representations p1(N)."""
    rep = build_p1_permutation(moduli[0])
    for n in moduli[1:]:
        rep = direct_sum(rep, build_p1_permutation(n))
    return rep


def noisy_p1_two():
    """p1(2) with seeded noise of size 1e-7 on the nonzero entries of t,
    which leaves t monomial and off the unit circle at tolerance 1e-9."""
    rep = build_p1_permutation(2)
    t = rep.t_image.copy()
    nonzero = t != 0
    t[nonzero] += 1e-7 * np.random.default_rng(0).standard_normal(nonzero.sum())
    return ModularRepresentation(rep.s_image, t, "noisy p1(2)")


def conjugate(rep, seed, condition=10.0):
    """rep conjugated by a seeded matrix with the given condition number."""
    rng = np.random.default_rng(seed)
    d = rep.degree
    u, _, vh = np.linalg.svd(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = u @ np.diag(np.geomspace(1.0, condition, d)) @ vh
    m_inv = np.linalg.inv(m)
    return ModularRepresentation(m @ rep.s_image @ m_inv, m @ rep.t_image @ m_inv, "conj")


def diagonal_conjugate(rep, ratio=50.0):
    """rep conjugated by diag(geomspace(1, ratio, d)): a monomial t stays
    monomial, with entries off the unit circle."""
    scale = np.geomspace(1.0, ratio, rep.degree)
    return ModularRepresentation(scale[:, None] * rep.s_image / scale,
                                 scale[:, None] * rep.t_image / scale, f"diag {rep.name}")


def steinberg(p):
    """p1(p) on the vectors with coordinate sum zero, irreducible of degree p.

    The orthonormal basis comes from a QR factorisation, so the images
    carry rounding noise of order 1e-16 on every entry.
    """
    rep = build_p1_permutation(p)
    d = rep.degree
    q, _ = np.linalg.qr(np.eye(d) - np.full((d, d), 1.0 / d))
    basis = q[:, :d - 1]
    return ModularRepresentation(basis.T @ rep.s_image @ basis, basis.T @ rep.t_image @ basis,
                                 f"St({p})")


def _right_action(points, n, name):
    """SL2(Z) permuting points from the right: each point is a tuple of
    row vectors of (Z/n)^2, flattened, and g acts on every row."""
    index = {p: i for i, p in enumerate(points)}

    def image(g):
        m = np.zeros((len(points), len(points)))
        for i, p in enumerate(points):
            q = tuple(x for c, d in zip(p[0::2], p[1::2])
                      for x in ((c * g[0][0] + d * g[1][0]) % n, (c * g[0][1] + d * g[1][1]) % n))
            m[index[q], i] = 1
        return m

    return ModularRepresentation(image(((0, -1), (1, 0))), image(((1, 1), (0, 1))), name)


def vector_permutation(n):
    """SL2(Z) permuting the nonzero row vectors of (Z/n)^2 from the right.

    A permutation representation, so exactly its own contragredient, and
    for n > 2 one with both parity parts: -1 swaps v and -v.
    """
    return _right_action([(c, d) for c in range(n) for d in range(n) if (c, d) != (0, 0)],
                         n, f"vec({n})")


def gamma1(n):
    """SL2(Z) permuting the primitive row vectors (c, d) of (Z/n)^2,
    gcd(c, d, n) = 1, from the right.

    These are the bottom rows of SL2(Z) mod n, so this is the permutation
    representation on the cosets of Gamma1(n), and its forms of weight k
    are those of Gamma1(n).  For prime n it is vector_permutation(n).
    """
    return _right_action([(c, d) for c in range(n) for d in range(n)
                          if math.gcd(c, d, n) == 1], n, f"G1({n})")


def plane(n):
    """SL2(Z) permuting all of (Z/n)^2 from the right, zero included.

    The vectors of exact order d form one orbit, a copy of gamma1(d), so
    this is the direct sum of gamma1(d) over the divisors d of n.
    """
    return _right_action([(c, d) for c in range(n) for d in range(n)], n, f"plane({n})")


def hyp(n):
    """The Weil representation of the hyperbolic plane (Z/n)^2, q(x, y) = xy/n.

    T = diag(e(xy/n)) and S = (e(-(xv + uy)/n)) / n over (x, y), (u, v): the
    form has signature 0, so S takes no eighth root of unity.  Dense and
    complex, and isomorphic to plane(n).
    """
    points = [(x, y) for x in range(n) for y in range(n)]
    t = np.diag([_e(x * y / n) for x, y in points])
    s = np.array([[_e(-(x * v + u * y) / n) for u, v in points] for x, y in points]) / n
    return ModularRepresentation(s, t, f"hyp({n})")


def sl2_regular(n):
    """SL2(Z) permuting the matrices (a, b; c, d) of SL2(Z/n), flattened to
    (a, b, c, d), by right multiplication.

    The stabiliser of the identity is Gamma(n), the kernel of reduction
    mod n, so this is the permutation representation on the cosets of
    Gamma(n), of degree |SL2(Z/n)|, and its forms of weight k are those of
    Gamma(n).  It is the regular representation of SL2(Z/n): each
    irreducible one is a summand as often as its degree.
    """
    return _right_action([m for m in itertools.product(range(n), repeat=4)
                          if (m[0] * m[3] - m[1] * m[2]) % n == 1], n, f"SL2(Z/{n})")


def gamma_oracle(n, k):
    """(dim M_k, dim S_k) of Gamma(n), n >= 3, from the genus formulas of
    Diamond-Shurman, sections 3.5 and 3.6; None at weight one, where they
    give only dim M_1 - dim S_1 = eps_inf / 2.

    -I is not in Gamma(n), which has index mu = |SL2(Z/n)| / 2 in PSL2(Z),
    no elliptic points and eps_inf = mu / n cusps, all of them regular, so
    g = 1 + mu / 12 - eps_inf / 2 and every weight k >= 2, odd or even,
    has dim M_k = (k - 1)(g - 1) + k eps_inf / 2.
    """
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    mu = Fraction(n ** 3, 2) * math.prod(1 - Fraction(1, p * p) for p in primes)
    eps_inf = mu / n
    g = 1 + mu / 12 - eps_inf / 2
    if k < 0:
        return 0, 0
    if k == 0:
        return 1, 0
    if k == 1:
        return None
    m = (k - 1) * (g - 1) + k * eps_inf / 2
    s = g if k == 2 else m - eps_inf
    assert m.denominator == s.denominator == 1, (n, k)
    return int(m), int(s)


def no_invariant_form():
    """An even irreducible degree-two representation that validates, with
    t of order 24, but preserves no positive-definite Hermitian form: the
    mason representation with R of eigenvalues 1 and e(1/3) and t of
    eigenvalues e(7/8) and e(23/24).  The dimension formulas give
    lambda+ = lambda- = -1.
    """
    return mason(False, (Fraction(0), Fraction(1, 3)), Fraction(7, 8))[0]


def _e(x):
    return cmath.exp(2j * math.pi * x)


def mason(odd, r_phases, r1):
    """Mason's irreducible two-dimensional representation with R = st of
    eigenvalues e(x), x in r_phases, and t of eigenvalues e(r1), e(r2).

    s = diag(i, -i) for odd, diag(1, -1) otherwise.  The two phases of R
    are distinct, and e(x)^3 = s^2, so R^3 = s^2.  det t = det R / det s
    fixes r2 in [0, 1) as an exact Fraction.  R = [[a, 1], [ad - det R, d]]
    and t = s^-1 R, with a + d = tr R and tr t = e(r1) + e(r2).  Returns
    (rep, r2), or None when r2 = r1 (t need not be diagonalisable) or
    the entry ad - det R vanishes (the rep is reducible).
    """
    s1, s_phase = (1j, Fraction(0)) if odd else (1, Fraction(1, 2))
    r2 = (sum(r_phases) - s_phase - r1) % 1
    if r2 == r1:
        return None
    tr_r, tr_t = sum(_e(x) for x in r_phases), _e(r1) + _e(r2)
    a, d = (tr_r + s1 * tr_t) / 2, (tr_r - s1 * tr_t) / 2
    c = a * d - _e(sum(r_phases))
    if abs(c) < 1e-6:
        return None
    s = np.diag([s1, -s1]).astype(np.complex128)
    t = np.diag([1 / s1, -1 / s1]) @ np.array([[a, 1], [c, d]])
    name = f"mason({'odd' if odd else 'even'}; {', '.join(map(str, r_phases))}; {r1}, {r2})"
    return ModularRepresentation(s, t, name), r2


def has_invariant_form(rep, tol=1e-9):
    """Whether a mason representation preserves a positive-definite form.

    s is diagonal with distinct eigenvalues, so such a form is diagonal,
    H = diag(1, h); the (1, 1) entry of t^H H t = H fixes
    h = (1 - |t11|^2) / |t21|^2, which must be positive and solve the rest.
    """
    t = rep.t_image
    h = (1 - abs(t[0, 0]) ** 2) / abs(t[1, 0]) ** 2
    form = np.diag([1, h])
    return h > 0 and max_abs(t.conj().T @ form @ t - form) <= tol * max(1, h)


def level_one_dim(k):
    """dim M_k(SL2(Z))."""
    if k < 0 or k % 2:
        return 0
    return k // 12 + (k % 12 != 2)


def mason_oracle(r1, r2, k):
    """dim M_k of an irreducible two-dimensional unitarizable rep whose t
    has eigenvalues e(r1), e(r2), 0 <= r1, r2 < 1: its forms are free over
    C[E4, E6] on one of weight k0 = 6(r1 + r2) - 1 and its modular
    derivative (Mason, Ramanujan J. 17, 2008; Marks-Mason 2010)."""
    k0 = 6 * (r1 + r2) - 1
    assert k0.denominator == 1, k0
    return level_one_dim(k - k0) + level_one_dim(k - k0 - 2)


def mason_inputs(trials, seed=0):
    """The seeded mason representations of mason_sweep that validate, as
    (rep, r1, r2, unitarizable).

    Each trial draws the parity (alternating), two phases of R and r1
    with denominator up to 60; a trial whose draw builds no
    representation, or one that fails validate, yields nothing.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        odd = bool(trial % 2)
        picks = rng.choice(3, 2, replace=False)
        r_phases = tuple(Fraction(int(j), 3) + (Fraction(1, 6) if odd else 0) for j in picks)
        q = int(rng.integers(1, 61))
        r1 = Fraction(int(rng.integers(q)), q)
        built = mason(odd, r_phases, r1)
        if built is None:
            continue
        rep, r2 = built
        try:
            validate(rep)
        except ValueError:
            continue
        yield rep, r1, r2, has_invariant_form(rep)


def mason_sweep(trials, seed=0, weights=range(-4, 25)):
    """Tables of seeded mason representations of both parities against
    mason_oracle at the given weights.

    Returns the counts of "valid" inputs (mason_inputs), "unitarizable"
    ones and "matching" ones, the unitarizable inputs whose every
    dimension is exact and equals the oracle, of which "matching with
    M_1 > 0" have forms of weight one, and the (name, got, expected) of
    those that do not match.
    """
    counts, mismatches = Counter(), []
    for rep, r1, r2, unitarizable in mason_inputs(trials, seed):
        counts["valid"] += 1
        if not unitarizable:
            continue
        counts["unitarizable"] += 1
        expected = [mason_oracle(r1, r2, k) for k in weights]
        try:
            got = [m.value if m.status == EXACT else f"{m.value}+"
                   for _, m, _ in dim_table(rep, weights[0], weights[-1])]
        except ValueError as err:
            got = f"{type(err).__name__}: {err}"
        if got == expected:
            counts["matching"] += 1
            counts["matching with M_1 > 0"] += bool(expected[weights.index(1)])
        else:
            mismatches.append((rep.name, got, expected))
    return counts, mismatches


def _is_transitive(*perms):
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for perm in perms:
            if perm[i] not in reached:
                reached.add(perm[i])
                stack.append(perm[i])
    return len(reached) == len(perms[0])


def millington(d, seed, odd=False):
    """s = P_x and st = P_y for a seeded random transitive pair (x, y) of
    permutations of d points with x^2 = 1 and y^3 = 1.

    Such a pair is a subgroup of index d in PSL2(Z) (Millington, J. London
    Math. Soc. 1969), and this representation, the permutation action on
    its cosets, has the subgroup's forms.  Most such subgroups of large
    index are not congruence subgroups.  x has d mod 2 or d mod 2 + 2
    fixed points and y d mod 3 or d mod 3 + 3.  With odd, d must be even
    and x has no fixed point; each 2-cycle of x takes the signs a and -a,
    so s^2 = -1, and each 3-cycle of y takes signs with product -1 and
    each fixed point of y the sign -1, so (st)^3 = -1 as well.  Then -I is
    not in the subgroup, and its cusps are regular or irregular as the
    entries of their t cycles multiply to +1 or -1.
    """
    if odd and d % 2:
        raise ValueError(f"an odd input needs an even degree, got {d}")
    rng = np.random.default_rng(seed)
    while True:
        fixed2 = 0 if odd else int(rng.choice([f for f in (d % 2, d % 2 + 2) if f <= d]))
        fixed3 = int(rng.choice([f for f in (d % 3, d % 3 + 3) if f <= d]))
        x, y = list(range(d)), list(range(d))
        p, q = rng.permutation(d).tolist(), rng.permutation(d).tolist()
        for i in range(fixed2, d, 2):
            x[p[i]], x[p[i + 1]] = p[i + 1], p[i]
        for i in range(fixed3, d, 3):
            y[q[i]], y[q[i + 1]], y[q[i + 2]] = q[i + 1], q[i + 2], q[i]
        if _is_transitive(x, y):
            break
    x_signs, y_signs = np.ones(d), np.ones(d)
    if odd:
        a = rng.choice([-1.0, 1.0], d // 2)
        x_signs[p[0::2]], x_signs[p[1::2]] = a, -a
        y_signs[q[:fixed3]] = -1
        for i in range(fixed3, d, 3):
            first, second = rng.choice([-1.0, 1.0], 2)
            y_signs[q[i:i + 3]] = first, second, -first * second
    s, st = np.zeros((d, d)), np.zeros((d, d))
    s[x, range(d)] = x_signs
    st[y, range(d)] = y_signs
    # s is a signed permutation, so its inverse is its transpose.
    return ModularRepresentation(s, s.T @ st, f"mill({d}, {seed}{', odd' if odd else ''})")


def subgroup_oracle(rep, k):
    """(dim M_k, dim S_k) of a millington representation, from the genus
    formulas of Diamond-Shurman, sections 3.5 and 3.6; None at weight one
    of an odd one, where they give only dim M_1 - dim S_1
    (subgroup_eisenstein_one).

    g = 1 + d/12 - e2/4 - e3/3 - einf/2, with e2 and e3 the fixed points
    of x and y, read off s and st, and einf the cycles of t, each a cusp:
    regular or irregular as its entries multiply to +1 or -1.
    """
    d = rep.degree
    s, t = rep.s_image.real, rep.t_image.real
    x, y = (np.argmax(abs(m), axis=0) for m in (s, s @ t))
    e2, e3 = int(np.sum(x == np.arange(d))), int(np.sum(y == np.arange(d)))
    regular, irregular = _cusps(t)
    g = 1 + Fraction(d, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(regular + irregular, 2)
    assert g.denominator == 1 and g >= 0, g
    g = int(g)
    odd = (s @ s)[0, 0] < 0
    if k < 0 or k % 2 != odd:
        return 0, 0
    if k == 0:
        return 1, 0
    if k == 1:
        return None
    if not odd:
        cusps = regular + irregular
        if k == 2:
            return g + cusps - 1, g
        m = (k - 1) * (g - 1) + k // 4 * e2 + k // 3 * e3 + k // 2 * cusps
        return m, m - cusps
    assert regular % 2 == 0
    base = (k - 1) * (g - 1) + k // 3 * e3 + (k - 1) // 2 * irregular
    return base + k * regular // 2, base + (k - 2) * regular // 2


def subgroup_eisenstein_one(rep):
    """dim M_1 - dim S_1 of an odd millington representation: half its
    regular cusps (Diamond-Shurman, section 3.6)."""
    regular, _ = _cusps(rep.t_image.real)
    return regular // 2


def _cusps(t):
    """Numbers of cycles of the signed permutation t whose entries multiply
    to +1 and to -1."""
    image = np.argmax(abs(t), axis=0)
    seen, counts = set(), [0, 0]
    for start in range(len(t)):
        if start in seen:
            continue
        sign, j = 1.0, start
        while j not in seen:
            seen.add(j)
            sign *= t[image[j], j]
            j = image[j]
        counts[int(sign < 0)] += 1
    return tuple(counts)


def separate_dual(rep):
    """Analysis of a copy of rep whose dual is analysed on its own, from
    the contragredient's images, as for a representation that differs from
    its contragredient; the dual still takes the weight-one certificate."""
    a = Analysis.of(ModularRepresentation(rep.s_image, rep.t_image, rep.name))
    a.dual = Analysis.of(contragredient(a.rep), a.settings)
    a.dual.weight1_exact = a.weight1_exact
    return a


def numerators(a):
    """Both generator numerators of an Analysis, or None when weight one
    is only a lower bound."""
    try:
        return a.generator_numerator(False), a.generator_numerator(True)
    except Weight1Indeterminate:
        return None


def enumerate_closure(rep, cap):
    """Breadth-first enumeration of the matrix group the images generate.

    A group of more than cap elements raises RuntimeError.  Matrices are
    deduplicated by hashing entries rounded to six decimal places, which
    is far coarser than the working tolerance and far finer than the
    separation of distinct elements in a finite unitarizable group of the
    sizes handled here.
    """
    def key(m):
        return tuple(np.round(m, 6).ravel().tolist())

    eye = np.eye(rep.degree, dtype=np.complex128)
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
                    raise RuntimeError(f"matrix group exceeds cap {cap}")
                seen[k] = p
                queue.append(p)
    return list(seen.values())


def _monomial_moves(rep, tol):
    """Each generator g of a monomial rep as (image, a): g maps e_x to
    a[x] e_image[x].  Raises ValueError on a generator that is not monomial."""
    moves = []
    for g in (rep.s_image, rep.t_image):
        if not (np.count_nonzero(np.abs(g) > tol, axis=0) == 1).all():
            raise ValueError(f"{rep.name} is not monomial")
        image = np.argmax(np.abs(g), axis=0)
        moves.append((image.tolist(), g[image, np.arange(rep.degree)].tolist()))
    return moves


def _trivial_holonomy_orbits(size, links, tol):
    """Count the components of a weighted union-find on size points with
    no holonomy.

    Each link (p, q, c) asks for the value at q to be c times the value at
    p.  Each point's value is a known multiple of its component's root
    value; a component counts 1 when the weights around each of its
    cycles multiply to 1, and 0 otherwise, since then its values must
    vanish.
    """
    parent = list(range(size))
    weight = [1.0] * size  # value[p] = weight[p] * value[parent[p]]
    consistent = [True] * size

    def find(p):
        path = []
        while parent[p] != p:
            path.append(p)
            p = parent[p]
        for q in reversed(path):
            if parent[q] != p:
                weight[q] *= weight[parent[q]]
                parent[q] = p
        return p

    for p, q, c in links:
        rq, rp = find(q), find(p)
        # value[q] = c * value[p], read at the two roots; a root's weight stays 1.
        c = c * weight[p] / weight[q]
        if rq == rp:
            consistent[rq] &= abs(c - 1) <= tol
        else:
            parent[rq], weight[rq] = rp, c
            consistent[rp] &= consistent[rq]
    return sum(1 for p in range(size) if parent[p] == p and consistent[p])


def orbit_commutant(rep, tol=1e-9):
    """Commutant dimension of a monomial representation, counted exactly.

    Each generator g maps e_x to a(g, x) e_gx, so x commutes with g when
    X[gx, gy] = a(g, x) / a(g, y) * X[x, y]: one component per orbit of
    the image on the d^2 index pairs, counted when it has no holonomy.
    Raises ValueError on a generator that is not monomial.
    """
    d = rep.degree
    return _trivial_holonomy_orbits(d * d, [
        (x * d + y, image[x] * d + image[y], a[x] / a[y])
        for image, a in _monomial_moves(rep, tol) for x in range(d) for y in range(d)], tol)


def orbit_h0(rep, tol=1e-9):
    """Dimension of the vectors fixed by s and t of a monomial
    representation, counted exactly.

    g v = v reads v[gx] = a(g, x) v[x]: one component per orbit of the
    image on the d basis points, counted when it has no holonomy.
    Raises ValueError on a generator that is not monomial.
    """
    return _trivial_holonomy_orbits(rep.degree, [
        (x, image[x], a[x]) for image, a in _monomial_moves(rep, tol)
        for x in range(rep.degree)], tol)


def product_coefficients(table):
    """Coefficients of (1-z^4)(1-z^6) times the holomorphic and the cusp
    dimension series of a dim_table, as two dicts {w: c_w}.

    c_w = D_w - D_(w-4) - D_(w-6) + D_(w-10), with D = 0 below weight 0,
    at each weight w of the table whose row w - 10 it holds or that is
    negative.  The modules are free over C[E4, E6] on generators of
    weights 0..12, so c_w vanishes above 12, and the c_w at 0..12 count
    the generators, d of them in all.  That sum is
    D_9 + D_10 + D_11 + D_12 - D_3 - D_4 - D_5 - D_6, free of weight one.
    """
    low = table[0][0]
    products = []
    for kind in (1, 2):
        dims = {row[0]: row[kind].value for row in table}
        products.append({w: dims[w] - dims.get(w - 4, 0) - dims.get(w - 6, 0)
                         + dims.get(w - 10, 0)
                         for w in dims if low <= max(w - 10, 0)})
    return tuple(products)


def gamma_sequence_check(inv, kmax):
    """Verify the two three-term recurrences of the gamma sequence."""
    g = inv.gamma
    for k in range(-kmax, kmax + 1):
        if g(k + 5) + g(k) != g(k + 3) + g(k + 2):
            return False
        if g(k + 7) + g(k) != g(k + 3) + g(k + 4):
            return False
    return True


def complex_repfile(rep):
    """A representation file document for rep in the complex entry encoding."""
    def encode(m):
        return [[[v.real, v.imag] for v in row] for row in m.tolist()]

    return {"name": rep.name, "degree": rep.degree, "entry_encoding": "complex",
            "S": encode(rep.s_image), "T": encode(rep.t_image)}


def cyclotomic_repfile(rep):
    """A document for rep in the cyclotomic encoding, without a name.

    Every entry of rep must be 0 or a twelfth root of unity.
    """
    def encode(z):
        if abs(z) < 1e-12:
            return {"order": 1, "coeffs": ["0"]}
        j = round(12 * cmath.phase(z) / (2 * math.pi)) % 12
        return {"order": 12, "coeffs": ["0"] * j + ["1"]}

    return {"degree": rep.degree, "entry_encoding": "cyclotomic",
            "S": [[encode(z) for z in row] for row in rep.s_image.tolist()],
            "T": [[encode(z) for z in row] for row in rep.t_image.tolist()]}


def _kappa_with_s(encoding, s_entry, t_entry):
    return (f'{{"degree": 1, "entry_encoding": "{encoding}", '
            f'"S": [[{s_entry}]], "T": [[{t_entry}]]}}')


# Degree-one files, as JSON text, whose S entry is no finite double once
# read: JSON turns 1e400 into infinity and accepts NaN and Infinity, and
# the two cyclotomic terms overflow when added.
NON_FINITE_FILES = {
    f"complex-{label}": _kappa_with_s("complex", f"[{number}, 0]", "[0.8660254037844387, 0.5]")
    for label, number in (("1e400", "1e400"), ("nan", "NaN"), ("inf", "Infinity"),
                          ("minus-inf", "-Infinity"))
} | {
    "cyclotomic-sum-overflow": _kappa_with_s("cyclotomic",
                                             '{"order": 2, "coeffs": ["1e308", "-1e308"]}',
                                             '{"order": 12, "coeffs": ["0", "1"]}'),
}
