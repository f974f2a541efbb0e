"""Independent dimension routes the tests compare the library against."""

import cmath
import math
from collections import deque
from fractions import Fraction

import numpy as np

from vvmf.invariants import (
    ExponentData,
    Signature,
    floor_trace,
    floor_trace_complement,
    signature,
    t_eigenphases,
)
from vvmf.linalg import SnapFailure
from vvmf.modrep import ModularRepresentation, build_p1_permutation, direct_sum


def dim_via_exponent_shift(rep, k):
    """Second dimension route for an even irreducible representation.

    Returns (holomorphic, cusp) dimensions of weight-k forms for the
    k-th character twist, read directly off the floor traces at shift
    k/12.  Exactness needs irreducibility, which the caller vouches for;
    signature raises ParityError unless rep is purely even.
    """
    exp = ExponentData(t_eigenphases(rep), signature(rep).trace_lambda)
    holo = max(0, floor_trace(exp, Fraction(k, 12)))
    cusp = max(0, -floor_trace_complement(exp, 1 - Fraction(k, 12)))
    return holo, cusp


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


def fraction_offset(exp):
    """Log trace minus phase sum, one Fraction per term, or SnapFailure."""
    gap = exp.trace_lambda - sum(exp.phases, Fraction(0))
    if gap.denominator != 1:
        raise SnapFailure(f"log trace differs from phase sum by the non-integer {gap}")
    return int(gap)


def fraction_floor_trace(exp, shift):
    """floor_trace with one Fraction per eigenvalue."""
    s = Fraction(shift)
    return fraction_offset(exp) + sum(math.floor(x + s) for x in exp.phases)


def fraction_floor_trace_complement(exp, shift):
    """floor_trace_complement with one Fraction per eigenvalue."""
    s = Fraction(shift)
    return -fraction_offset(exp) + sum(math.floor(s - x) for x in exp.phases)


def p1_sum(*moduli):
    """Direct sum of the projective-line permutation representations p1(N)."""
    rep = build_p1_permutation(moduli[0])
    for n in moduli[1:]:
        rep = direct_sum(rep, build_p1_permutation(n))
    return rep


def conjugate(rep, seed, condition=10.0):
    """rep conjugated by a seeded matrix with the given condition number."""
    rng = np.random.default_rng(seed)
    d = rep.degree
    u, _, vh = np.linalg.svd(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = u @ np.diag(np.geomspace(1.0, condition, d)) @ vh
    m_inv = np.linalg.inv(m)
    return ModularRepresentation(m @ rep.s_image @ m_inv, m @ rep.t_image @ m_inv, "conj")


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
