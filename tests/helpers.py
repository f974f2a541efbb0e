"""Independent dimension routes the tests compare the library against."""

from fractions import Fraction

from vvmf.invariants import even_invariants, floor_trace, floor_trace_complement


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
