"""Structural identities checked on generated representations.

Inputs are direct sums of catalog atoms, each with a character twist.
Per parity part, the invariants add over a direct sum, and so does every
dimension away from weight one (where a reducible odd part only gives a
lower bound).  Conjugating by a well-conditioned matrix changes neither
dimensions, generator profiles nor duality checks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conjugate
from vvmf.catalog import catalog_names, resolve
from vvmf.dimensions import Analysis, Weight1Indeterminate
from vvmf.modrep import direct_sum, tensor_kappa
from vvmf.series import CUSP, HOLOMORPHIC, duality_report, generator_profile

WEIGHTS = range(-2, 31)

terms = st.tuples(st.sampled_from(catalog_names()), st.integers(0, 11))


def build(term_list):
    rep = None
    for name, j in term_list:
        part = tensor_kappa(resolve(name), j)
        rep = part if rep is None else direct_sum(rep, part)
    return rep


def part_values(rep, odd):
    """(lambda+, lambda-, h0, gamma(-6..12)) of one parity part, zeros when it is empty."""
    a = Analysis.of(rep)
    part = a.split.odd_part if odd else a.split.even_part
    if part.degree == 0:
        return 0, 0, 0, (0,) * 19
    inv = a.invariants(odd)
    return (inv.lambda_plus, inv.lambda_minus, inv.h0 or 0,
            tuple(inv.gamma(k) for k in range(-6, 13)))


def profile(rep, kind):
    try:
        return generator_profile(rep, kind).counts
    except Weight1Indeterminate:
        return None


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.lists(terms, min_size=2, max_size=3))
def test_direct_sums_add(term_list):
    summands = [build([t]) for t in term_list]
    total = build(term_list)
    for odd in (False, True):
        parts = [part_values(rep, odd) for rep in summands]
        lam_plus, lam_minus, h0, gammas = part_values(total, odd)
        assert lam_plus == sum(p[0] for p in parts)
        assert lam_minus == sum(p[1] for p in parts)
        assert h0 == sum(p[2] for p in parts)
        assert gammas == tuple(map(sum, zip(*(p[3] for p in parts))))
    a = Analysis.of(total)
    for w in WEIGHTS:
        if w == 1:
            continue
        for cusp in (False, True):
            assert a.dim(w, cusp).value == sum(Analysis.of(r).dim(w, cusp).value
                                               for r in summands), (w, cusp)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(terms, min_size=1, max_size=2), st.integers(0, 2**16))
def test_conjugation_changes_nothing(term_list, seed):
    rep = build(term_list)
    conj = conjugate(rep, seed)
    a, b = Analysis.of(rep), Analysis.of(conj)
    for w in WEIGHTS:
        for cusp in (False, True):
            ra, rb = a.dim(w, cusp), b.dim(w, cusp)
            assert (ra.value, ra.status, ra.rule) == (rb.value, rb.status, rb.rule), (w, cusp)
    for kind in (HOLOMORPHIC, CUSP):
        assert profile(rep, kind) == profile(conj, kind)
    checks = [[(c.name, c.status, c.counterexamples) for c in duality_report(r, 2).checks]
              for r in (rep, conj)]
    assert checks[0] == checks[1]
