"""Structural identities checked on generated representations.

Inputs are direct sums of catalog atoms, each with a character twist.
Per parity part, the invariants add over a direct sum, and so does every
dimension away from weight one (where a reducible odd part only gives a
lower bound).  Conjugating by a well-conditioned matrix changes neither
dimensions, generator profiles nor duality checks; in particular an
exactly real representation, analysed in real arithmetic, agrees with a
unitary conjugate of it, analysed in complex arithmetic.  A sum of
permutation representations, conjugated by a permutation matrix, is
still exactly its own contragredient: its dual shares its analysis and
must give what a separately analysed dual gives.  A monomial sum,
relabelled by a permutation and a diagonal of roots of unity, is still
monomial, and the orbit counts of its commutant and its invariant
vectors equal the library's commutant dimension and h0.  Generator
weights sum to twelve times the sum of the T eigenphases.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    conjugate,
    numerators,
    orbit_commutant,
    orbit_h0,
    p1_sum,
    separate_dual,
    steinberg,
)
from vvmf.catalog import catalog_names, resolve
from vvmf.dimensions import Analysis, Weight1Indeterminate, dim_table
from vvmf.invariants import t_eigenphases
from vvmf.modrep import (
    ModularRepresentation,
    build_p1_permutation,
    build_rho0,
    commutant_dimension,
    contragredient,
    direct_sum,
    tensor_kappa,
)
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
    inv = a.invariants[odd]
    return (inv.lambda_plus, inv.lambda_minus, inv.h0 or 0,
            tuple(inv.gamma(k) for k in range(-6, 13)))


def profile(rep, kind):
    try:
        return generator_profile(rep, kind).counts
    except Weight1Indeterminate:
        return None


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("44478c751d660da821eb8748279de6b3e5b950b3f08d4c57"
          "2eb6979f9328710c2e6b82c66b7fec761460a7ef45f1e68a", 16))
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


def assert_same_outputs(rep, conj):
    """Equal dimensions (value, status, rule), generator profiles and duality checks."""
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


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("ff829199f5fe2d439f8c4e25aa16850ae6a0c7d5ac9938da"
          "8a65ce6fccf0e5f1456914fabdf863f1545acc47c0fbbabe", 16))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(terms, min_size=1, max_size=2), st.integers(0, 2**16))
def test_conjugation_changes_nothing(term_list, seed):
    rep = build(term_list)
    assert_same_outputs(rep, conjugate(rep, seed))


REAL_REPS = {
    **{f"p1({n})": lambda n=n: build_p1_permutation(n) for n in range(2, 17)},
    "p1(5)+p1(7)": lambda: p1_sum(5, 7),
    **{f"St({p})": lambda p=p: steinberg(p) for p in (5, 7, 11)},
    **{f"p1({n})*k^6": lambda n=n: tensor_kappa(build_p1_permutation(n), 6) for n in (2, 7, 12)},
}


@pytest.mark.parametrize("name", REAL_REPS)
def test_real_representation_matches_its_unitary_conjugate(name):
    rep = REAL_REPS[name]()
    conj = conjugate(rep, 0, condition=1.0)
    assert {rep.s_image.dtype, rep.t_image.dtype} == {np.dtype(np.float64)}
    assert {conj.s_image.dtype, conj.t_image.dtype} == {np.dtype(np.complex128)}
    assert_same_outputs(rep, conj)


# Exactly their own contragredients: permutation representations, and
# their negations, whose -0.0 entries are 0.0 in the contragredient.
SELF_DUAL_ATOMS = {
    "rho0": build_rho0,
    **{f"p1({n})": lambda n=n: build_p1_permutation(n) for n in range(2, 13)},
    **{f"p1({n})*k^6": lambda n=n: tensor_kappa(build_p1_permutation(n), 6) for n in range(2, 13)},
}


def rows(a):
    return [a.dim(w, cusp) for w in WEIGHTS for cusp in (False, True)]


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("9d277f5a8d7dd648db5ba3a58d6cd40faa3d891f40dd0c99"
          "6a0c69121c2ea178426739aba87c0ea3cc922ebfd3477dbc", 16))
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(list(SELF_DUAL_ATOMS)), min_size=1, max_size=3), st.randoms())
def test_permuted_self_dual_sums_share_their_dual(names, random):
    # A permutation matrix conjugates exactly, so the result is still
    # exactly its own contragredient.
    plain = None
    for name in names:
        atom = SELF_DUAL_ATOMS[name]()
        plain = atom if plain is None else direct_sum(plain, atom)
    order = list(range(plain.degree))
    random.shuffle(order)
    p = np.eye(plain.degree)[order]
    rep = ModularRepresentation(p @ plain.s_image @ p.T, p @ plain.t_image @ p.T, "perm")
    dual = contragredient(rep)
    assert np.array_equal(dual.s_image, rep.s_image)
    assert np.array_equal(dual.t_image, rep.t_image)
    shared, separate = Analysis.of(rep), separate_dual(rep)
    report, fresh_report = duality_report(rep, 2), duality_report(separate.rep, 2)
    assert report == fresh_report
    assert shared.dual.split is shared.split
    assert rows(shared.dual) == rows(separate.dual)
    assert numerators(shared.dual) == numerators(separate.dual)
    assert dim_table(rep, -2, 30) == dim_table(plain, -2, 30)


def relabel(plain, seed):
    """plain conjugated by a seeded permutation times a diagonal of 60th roots of unity.

    A twist by kappa^j is a scalar and leaves every cycle's weight alone;
    a diagonal of unequal roots of unity changes the weights of single
    entries, and only their products around a cycle must stay put.
    """
    d = plain.degree
    rng = np.random.default_rng(seed)
    m = np.zeros((d, d), dtype=np.complex128)
    m[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.integers(0, 60, d) / 60)
    m_inv = m.conj().T
    return ModularRepresentation(m @ plain.s_image @ m_inv, m @ plain.t_image @ m_inv,
                                 "relabelled")


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("6e15cfe40621de120ddb84f87b36c5ec63e35628de4d300b"
          "233f3ec3398311086660e6418e014ae204f81c1d9e021f33", 16))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(terms, min_size=1, max_size=3), st.integers(0, 2**16))
def test_orbit_count_survives_a_monomial_relabelling(term_list, seed):
    plain = build(term_list)
    rep = relabel(plain, seed)
    assert orbit_commutant(rep) == orbit_commutant(plain) == commutant_dimension(plain)
    assert commutant_dimension(rep) == commutant_dimension(plain)


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("e8c823cc19acabbcff250ce02231c84e0671e995db81f703"
          "665370d56fd64a028a19271e9235938454566f4dfcf755cf", 16))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(terms, min_size=1, max_size=3), st.integers(0, 2**16))
def test_orbit_h0_survives_a_monomial_relabelling(term_list, seed):
    plain = build(term_list)
    rep = relabel(plain, seed)
    h0 = part_values(plain, False)[2]
    assert orbit_h0(rep) == orbit_h0(plain) == h0 == part_values(rep, False)[2]


# Every family with an exact profile: the characters, p1(N) with even
# twists, sums, and the dense route through St(p) and conjugates.  The
# odd twists of p1(N) are left out: their weight one is a lower bound.
WEIGHT_SUM_REPS = {
    **{f"kappa^{j}": lambda j=j: resolve(f"kappa^{j}") for j in range(1, 12)},
    **{f"p1({n})*k^{j}": lambda n=n, j=j: tensor_kappa(build_p1_permutation(n), j)
       for n in range(2, 31) for j in range(0, 12, 2)},
    **{expr: lambda expr=expr: resolve(expr)
       for expr in ("p1(5)+p1(7)", "kappa^2+p1(3)*k^4", "kappa^1+p1(3)")},
    **{f"St({p})*k^{j}": lambda p=p, j=j: tensor_kappa(steinberg(p), j)
       for p, j in ((5, 0), (7, 0), (5, 1), (7, 3), (11, 2))},
    **{f"{expr} conj": lambda expr=expr: conjugate(resolve(expr), 3)
       for expr in ("p1(7)", "p1(5)*k^4", "kappa^1+p1(3)")},
}


@pytest.mark.parametrize("name", WEIGHT_SUM_REPS)
def test_generator_weights_sum_to_the_phase_sum(name):
    # Sum of w * count = 12 * (sum of the T eigenphases in [0, 1)) for the
    # holomorphic module, and in (0, 1] for the cusp module.  Blind to
    # weight one: a shift of M_1 moves weights 1, 5, 7 and 11 by +c, -c,
    # -c and +c.
    rep = WEIGHT_SUM_REPS[name]()
    phases = t_eigenphases(rep)
    holo, cusp = (generator_profile(rep, kind).counts for kind in (HOLOMORPHIC, CUSP))
    assert sum(w * c for w, c in holo.items()) == 12 * sum(phases)
    assert sum(w * c for w, c in cusp.items()) == 12 * sum(x or 1 for x in phases)
