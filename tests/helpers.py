"""Independent dimension routes the tests compare the library against."""

from fractions import Fraction

from vvmf.invariants import even_invariants, floor_trace, floor_trace_complement
from vvmf.modrep import build_p1_permutation, direct_sum


def dim_via_exponent_shift(rep, k):
    """Second dimension route for an even irreducible representation.

    Returns (holomorphic, cusp) dimensions of weight-k forms for the
    k-th character twist, read directly off the floor traces at shift
    k/12.  Exactness needs irreducibility, which the caller vouches for;
    even_invariants raises ParityError unless rep is purely even.
    """
    exp = even_invariants(rep).exp
    holo = max(0, floor_trace(exp, Fraction(k, 12)))
    cusp = max(0, -floor_trace_complement(exp, 1 - Fraction(k, 12)))
    return holo, cusp


def p1_sum(*moduli):
    """Direct sum of the projective-line permutation representations p1(N)."""
    rep = build_p1_permutation(moduli[0])
    for n in moduli[1:]:
        rep = direct_sum(rep, build_p1_permutation(n))
    return rep
