import functools
import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import vvmf.dimensions
import vvmf.invariants
import vvmf.modrep as modrep
from helpers import (
    conjugate,
    diagonal_conjugate,
    dim_via_exponent_shift,
    enumerate_closure,
    gamma1,
    hyp,
    mason_inputs,
    mason_sweep,
    millington,
    no_invariant_form,
    noisy_p1_two,
    numerators,
    orbit_commutant,
    orbit_h0,
    p1_sum,
    plane,
    product_coefficients,
    steinberg,
    vector_permutation,
)
from test_golden_cli import SUMS
from vvmf.catalog import catalog_names, resolve
from vvmf.dimensions import (
    EXACT,
    LOWER_BOUND,
    Analysis,
    DimResult,
    Weight1Indeterminate,
    certify_irreducible,
    dim_cusp,
    dim_holomorphic,
    dim_table,
)
from vvmf.invariants import PartInvariants, part_invariants
from vvmf.linalg import Settings, SnapFailure, snap_integer
from vvmf.modrep import (
    ModularRepresentation,
    TOrderNotFound,
    _t_spectrum,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    commutant_dimension,
    contragredient,
    direct_sum,
    parity_split,
    tensor_kappa,
    validate,
)
from vvmf.series import CUSP, HOLOMORPHIC, duality_report, generator_profile

RHO0_M = [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1]
RHO0_S = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]


def classical_level_one(k):
    # Weight 2k holomorphic forms for the trivial character.
    if k < 0:
        return 0
    return k // 6 if k % 6 == 1 else k // 6 + 1


def test_rho0_low_weights():
    rep = build_rho0()
    for w in range(15):
        assert dim_holomorphic(rep, w).value == RHO0_M[w]
        assert dim_cusp(rep, w).value == RHO0_S[w]


def test_rho0_closed_form_to_48():
    rep = build_rho0()
    for k in range(25):
        m = dim_holomorphic(rep, 2 * k)
        s = dim_cusp(rep, 2 * k)
        assert m.value == classical_level_one(k)
        assert s.value == max(0, m.value - 1)
        assert m.status == EXACT and s.status == EXACT


def test_negative_weights_vanish(catalog_reps):
    for rep in catalog_reps.values():
        for w in (-1, -2, -5, -12):
            assert dim_holomorphic(rep, w).value == 0
            assert dim_cusp(rep, w).value == 0


def test_even_cusp_forms_vanish_at_weight_zero(catalog_reps):
    for rep in catalog_reps.values():
        assert dim_cusp(rep, 0).value == 0


def test_kappa_weight_one():
    k1 = build_kappa_power(1)
    m = dim_holomorphic(k1, 1)
    s = dim_cusp(k1, 1)
    assert (m.value, m.status) == (1, EXACT)
    assert (s.value, s.status) == (1, EXACT)
    assert dim_holomorphic(k1, 3).value == 0
    assert dim_holomorphic(contragredient(k1), 1).value == 0


def test_eta_power_oracles():
    assert dim_holomorphic(build_kappa_power(2), 2).value == 1
    assert dim_cusp(build_kappa_power(2), 2).value == 1
    assert dim_holomorphic(build_kappa_power(4), 4).value == 1
    assert dim_cusp(build_kappa_power(4), 4).value == 1


def test_p1_two_table(catalog_reps):
    rep = catalog_reps["p1(2)"]
    assert [dim_holomorphic(rep, w).value for w in range(0, 9, 2)] == [1, 1, 2, 2, 3]
    assert [dim_cusp(rep, w).value for w in range(0, 9, 2)] == [0, 0, 0, 0, 1]
    assert all(dim_holomorphic(rep, w).value == 0 for w in range(1, 9, 2))


def test_weight_one_lower_bound_for_uncertified_sums():
    rep = resolve("kappa^1+kappa^11")
    m = dim_holomorphic(rep, 1)
    s = dim_cusp(rep, 1)
    assert (m.value, m.status) == (0, LOWER_BOUND)
    assert (s.value, s.status) == (0, LOWER_BOUND)
    assert m.rule == "odd-weight-1-lower-bound"

    other = resolve("kappa^1+kappa^3")
    m = dim_holomorphic(other, 1)
    assert (m.value, m.status) == (1, LOWER_BOUND)


def test_weight_one_exact_when_certified(std2):
    twisted = tensor_kappa(std2, 1)
    assert certify_irreducible(twisted)
    m = dim_holomorphic(twisted, 1)
    assert (m.value, m.status) == (0, EXACT)
    assert m.rule == "odd-weight-1-irreducible"


def test_certify_irreducible(std2):
    assert certify_irreducible(build_rho0())
    assert certify_irreducible(build_kappa_power(7))
    assert certify_irreducible(std2)
    assert not certify_irreducible(build_p1_permutation(2))
    assert not certify_irreducible(direct_sum(build_kappa_power(1), build_kappa_power(3)))
    # The zero space, the odd part of rho0, has a zero commutant.
    assert not certify_irreducible(parity_split(build_rho0()).odd_part)
    p16k3 = tensor_kappa(build_p1_permutation(16), 3)
    assert commutant_dimension(p16k3) == 6
    assert not certify_irreducible(p16k3)


COMMUTANT_CASES = (
    [pytest.param(resolve(name), id=name) for name in catalog_names()]
    + [pytest.param(resolve(f"p1({n})*k^{j}"), id=f"p1({n})*k^{j}")
       for n in range(2, 8) for j in range(1, 12)]
    + [pytest.param(resolve(expr), id=expr) for expr in ("kappa^1+kappa^1", "p1(5)+p1(3)*k^2")]
    + [pytest.param(conjugate(resolve(expr), seed), id=f"{expr} conj {seed}")
       for expr, seed in (("p1(7)*k^1", 1), ("p1(5)*k^3", 2))]
)


@pytest.mark.parametrize("rep", COMMUTANT_CASES)
def test_commutant_dimension_is_the_character_norm(rep):
    group = enumerate_closure(rep, 5000)
    norm = sum(abs(complex(np.trace(g))) ** 2 for g in group) / len(group)
    assert commutant_dimension(rep) == snap_integer(norm)


ORBIT_CASES = (
    [pytest.param(resolve(expr), dim, id=expr) for expr, dim in (
        ("kappa^1+kappa^11", 2), ("kappa^3+kappa^5+kappa^7", 3), ("p1(5)+p1(7)", 6),
        ("p1(7)*k^1", 2))]
    + [pytest.param(tensor_kappa(build_p1_permutation(n), j), dim, id=f"p1({n})*k^{j}")
       for n, j, dim in ((12, 9, 6), (16, 3, 6), (9, 6, 4), (30, 1, 8))]
)


@pytest.mark.parametrize("rep, dim", ORBIT_CASES)
def test_orbit_count_is_the_commutant_dimension(rep, dim):
    # p1(30)*k^1 has degree 72, beyond the reach of enumerate_closure.
    assert orbit_commutant(rep) == commutant_dimension(rep) == dim


def test_commutant_of_the_zero_representation_is_zero():
    # p1(7) is purely even, so its odd part is the zero space, whose only
    # endomorphism is zero.
    empty = parity_split(build_p1_permutation(7)).odd_part
    assert empty.degree == 0
    assert commutant_dimension(empty) == 0


@pytest.mark.parametrize("n, j, dim", [(7, 1, 2), (16, 3, 6)])
def test_commutant_with_a_monomial_t_off_the_unit_circle(n, j, dim):
    rep = diagonal_conjugate(tensor_kappa(build_p1_permutation(n), j))
    assert orbit_commutant(rep) == commutant_dimension(rep) == dim


def twisted_p1_and_kappa_sums():
    """p1(2..16)*k^0..11 and the 66 sums kappa^a + kappa^b, a < b, each
    built afresh, so that no t spectrum is kept from an earlier call."""
    for n in range(2, 17):
        for j in range(12):
            yield tensor_kappa(build_p1_permutation(n), j)
    for a in range(12):
        for b in range(a + 1, 12):
            yield direct_sum(build_kappa_power(a), build_kappa_power(b))


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_cycle_route_commutant_matches_the_dense_route(monkeypatch, eps):
    settings = Settings(eps=eps)
    cycles = [commutant_dimension(rep, settings) for rep in twisted_p1_and_kappa_sums()]
    # With no walk, t is taken as dense: its spectrum comes from an
    # eigenvalue solve and its eigenbasis from one null space per phase.
    monkeypatch.setattr(modrep, "_cycle_walk", lambda t: None)
    dense = [commutant_dimension(rep, settings) for rep in twisted_p1_and_kappa_sums()]
    assert len(cycles) == 246
    assert cycles == dense


def test_orbit_count_needs_a_monomial_representation():
    for count in (orbit_commutant, orbit_h0):
        with pytest.raises(ValueError, match="not monomial"):
            count(steinberg(5))


def library_h0(rep):
    """h0 of the even part of rep, or 0 when it has none."""
    a = Analysis.of(rep)
    return a.invariants(False).h0 if a.split.even_part.degree else 0


@pytest.mark.parametrize("expr, h0", [
    ("p1(5)+p1(7)", 2), ("kappa^2+p1(3)*k^4", 0), ("kappa^1+p1(3)", 1),
    ("p1(4)+kappa^6+rho0", 2)])
def test_orbit_h0_of_sums(expr, h0):
    rep = resolve(expr)
    assert orbit_h0(rep) == library_h0(rep) == h0


@pytest.mark.parametrize("n", range(2, 31))
def test_orbit_h0_is_h0_on_twisted_p1(n):
    # An invariant vector is even, so an odd twist has none.
    for j in range(12):
        rep = tensor_kappa(build_p1_permutation(n), j)
        assert orbit_h0(rep) == library_h0(rep), rep.name


def gamma1_textbook(n):
    """(eps_inf, g, M, S) for Gamma1(n), n >= 5, where M(k) and S(k) are
    dim M_k and dim S_k for k >= 2 (Diamond and Shurman, sections 3.5 to
    3.9): no elliptic points, and every cusp regular."""

    def phi(m):
        return sum(1 for x in range(1, m + 1) if math.gcd(x, m) == 1)

    primes = [p for p in range(2, n + 1) if n % p == 0 and phi(p) == p - 1]
    eps_inf = Fraction(sum(phi(d) * phi(n // d) for d in range(1, n + 1) if n % d == 0), 2)
    mu = Fraction(n * n, 2) * math.prod(1 - Fraction(1, p * p) for p in primes)
    g = 1 + mu / 12 - eps_inf / 2

    def holomorphic(k):
        return (k - 1) * (g - 1) + Fraction(k, 2) * eps_inf

    def cusp(k):
        return g if k == 2 else (k - 1) * (g - 1) + (Fraction(k, 2) - 1) * eps_inf

    return eps_inf, g, holomorphic, cusp


def test_gamma1_textbook_values():
    # X1(n) has genus 0 up to n = 10 and at n = 12, genus 1 at 11, 14 and
    # 15, and genus 2 at 13 and 16; a prime p gives p - 1 cusps.
    assert [gamma1_textbook(n)[1] for n in range(5, 17)] == [0] * 6 + [1, 0, 2, 1, 1, 2]
    assert [gamma1_textbook(p)[0] for p in (5, 7, 11, 13)] == [4, 6, 10, 12]


@pytest.mark.parametrize("p", [5, 7])
def test_gamma1_of_a_prime_is_the_vector_permutation(p):
    rep, vec = gamma1(p), vector_permutation(p)
    assert np.array_equal(rep.s_image, vec.s_image)
    assert np.array_equal(rep.t_image, vec.t_image)


@pytest.mark.parametrize("n", range(5, 17))
def test_gamma1_dimensions(n):
    eps_inf, _, holomorphic, cusp = gamma1_textbook(n)
    rep = gamma1(n)
    for k in range(2, 13):
        for row, value in ((dim_holomorphic(rep, k), holomorphic(k)), (dim_cusp(rep, k), cusp(k))):
            assert (row.value, row.status) == (value, EXACT), k
    # The odd part is reducible, so weight one is a lower bound; dim M_1 is
    # eps_inf / 2 plus the weight-one cusp forms, and these vanish for n < 23.
    for row, most in ((dim_holomorphic(rep, 1), eps_inf / 2), (dim_cusp(rep, 1), 0)):
        assert row.status == LOWER_BOUND and 0 <= row.value <= most


@pytest.mark.parametrize("n", range(5, 11))
def test_orbit_counts_on_gamma1(n):
    rep = gamma1(n)
    assert orbit_commutant(rep) == commutant_dimension(rep)
    assert orbit_h0(rep) == library_h0(rep) == 1


@pytest.mark.parametrize("n, dim", [(11, 20), (12, 20), (13, 24), (14, 24), (15, 32), (16, 28)])
def test_orbit_commutant_of_gamma1_sums_over_its_parts(n, dim):
    # -1 acts on the parts by different scalars, so no constituent is
    # shared and the commutant is the sum of the parts' commutants, which
    # are far cheaper than the whole one at these degrees.
    rep = gamma1(n)
    split = parity_split(rep)
    parts = [commutant_dimension(part) for part in (split.even_part, split.odd_part)]
    assert orbit_commutant(rep) == sum(parts) == dim


@pytest.mark.parametrize("n", [*range(11, 17), 19, 23])
def test_orbit_h0_on_larger_gamma1(n):
    rep = gamma1(n)
    assert orbit_h0(rep) == library_h0(rep) == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_weil_representation_of_the_hyperbolic_plane(n):
    # hyp(n) is dense and complex, plane(n) a permutation representation
    # isomorphic to it, and plane(n) splits into one gamma1(d) per divisor
    # d of n: one invariant vector for each, and the forms of Gamma1(d)
    # summed over d at every weight from 2 on.
    table = dim_table(hyp(n), -2, 30)
    assert table == dim_table(plane(n), -2, 30)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert table[2][:2] == (0, DimResult(len(divisors), EXACT, "weight-0-h0"))
    orbits = functools.reduce(direct_sum, map(gamma1, divisors))
    assert table[4:] == dim_table(orbits, 2, 30)


def test_weight_one_exact_beyond_group_enumeration():
    # St(29)*k^1 is odd and irreducible; its image has 12 * |PSL2(F_29)|
    # = 146160 elements, far too many to enumerate.
    rep = tensor_kappa(steinberg(29), 1)
    assert rep.degree == 29
    assert commutant_dimension(rep) == 1
    assert dim_holomorphic(rep, 1) == DimResult(0, EXACT, "odd-weight-1-irreducible")
    assert dim_cusp(rep, 1) == DimResult(0, EXACT, "odd-weight-1-irreducible")
    for kind in (HOLOMORPHIC, CUSP):
        assert generator_profile(rep, kind).counts == {3: 5, 5: 10, 7: 9, 9: 5}
    statuses = {c.name: c.status for c in duality_report(rep).checks}
    assert statuses["generator-mirror-holo"] == statuses["generator-mirror-cusp"] == "pass"


def test_rule_tags():
    rep = build_rho0()
    assert dim_holomorphic(rep, 0).rule == "weight-0-h0"
    assert dim_holomorphic(rep, -2).rule == "negative-weight"
    assert dim_cusp(rep, 2).rule == "cusp-weight-2"
    assert dim_holomorphic(rep, 1).rule == "parity-zero"
    assert dim_holomorphic(build_kappa_power(1), 1).rule == "odd-weight-1-irreducible"


def test_cusp_inside_holomorphic(catalog_reps):
    for rep in catalog_reps.values():
        for w in range(-6, 31):
            assert dim_cusp(rep, w).value <= dim_holomorphic(rep, w).value


@pytest.mark.parametrize("pair", [
    ("rho0", "kappa^2"), ("kappa^2", "kappa^10"), ("p1(2)", "kappa^4"),
    ("kappa^1", "p1(2)"), ("p1(3)", "p1(2)*k^2"), ("kappa^5", "kappa^7"),
])
def test_dimension_additivity(pair, catalog_reps):
    a, b = catalog_reps[pair[0]], catalog_reps[pair[1]]
    total = direct_sum(a, b)
    for w in range(-6, 31):
        for dim in (dim_holomorphic, dim_cusp):
            ra, rb, rt = dim(a, w), dim(b, w), dim(total, w)
            if EXACT == ra.status == rb.status == rt.status:
                assert rt.value == ra.value + rb.value, (pair, w)


def test_weight_shift_bound(catalog_reps):
    for name, rep in catalog_reps.items():
        for k in (1, 2, 3):
            twisted = tensor_kappa(rep, k)
            for w in range(-20, 21):
                lhs = dim_holomorphic(rep, w).value
                rhs = dim_cusp(twisted, w + k).value
                assert lhs <= rhs, (name, k, w)


def test_periodicity_by_parity_part(catalog_reps):
    for name, rep in catalog_reps.items():
        split = parity_split(rep)
        for w in range(-4, 31):
            d_part = split.even_part.degree if w % 2 == 0 else split.odd_part.degree
            m = dim_holomorphic(rep, w)
            if m.status == EXACT and m.value > 0:
                assert dim_holomorphic(rep, w + 12).value == m.value + d_part, (name, w)


def test_lambda_cohomology_identities(catalog_reps, std2):
    # lambda_plus = dim M_0 - dim S_2 of the dual; lambda_minus likewise.
    evens = [catalog_reps[n] for n in ("rho0", "kappa^2", "kappa^6", "p1(2)",
                                       "p1(3)", "rho0+kappa^2", "p1(2)*k^2")]
    for rep in evens + [std2]:
        inv = part_invariants(parity_split(rep), False)
        dual = contragredient(rep)
        assert inv.lambda_plus == (dim_holomorphic(rep, 0).value
                                   - dim_cusp(dual, 2).value), rep.name
        assert inv.lambda_minus == (dim_cusp(rep, 0).value
                                    - dim_holomorphic(dual, 2).value), rep.name


def test_dot_lambda_cohomology_identities(catalog_reps):
    odds = [catalog_reps[f"kappa^{j}"] for j in (1, 3, 5, 7, 9, 11)]
    for rep in odds:
        inv = part_invariants(parity_split(rep), True)
        dual = contragredient(rep)
        m1, s1 = dim_holomorphic(rep, 1), dim_cusp(rep, 1)
        assert m1.status == EXACT and s1.status == EXACT
        assert inv.lambda_plus == m1.value - dim_cusp(dual, 1).value
        assert inv.lambda_minus == s1.value - dim_holomorphic(dual, 1).value


def test_two_path_consistency(catalog_reps, std2):
    evens = [catalog_reps[n] for n in
             ("rho0", "kappa^2", "kappa^4", "kappa^6", "kappa^8", "kappa^10")]
    for rep in evens + [std2]:
        for k in range(-12, 25):
            twisted = tensor_kappa(rep, k)
            expected = (dim_holomorphic(twisted, k).value, dim_cusp(twisted, k).value)
            assert dim_via_exponent_shift(rep, k) == expected, (rep.name, k)


def test_exponent_shift_needs_even():
    with pytest.raises(ValueError, match="not purely even"):
        dim_via_exponent_shift(build_kappa_power(1), 4)


def test_dim_table():
    rows = dim_table(build_rho0(), 0, 12)
    assert [w for w, _, _ in rows] == list(range(13))
    assert [m.value for _, m, _ in rows] == RHO0_M[:13]
    assert [s.value for _, _, s in rows] == RHO0_S[:13]
    with pytest.raises(ValueError):
        dim_table(build_rho0(), 5, 4)


def test_kappa_table_periodic_structure():
    rep = build_kappa_power(1)
    rows = dim_table(rep, 1, 13)
    by_w = {w: m.value for w, m, _ in rows}
    assert by_w[1] == 1
    assert by_w[13] == by_w[1] + 1
    assert all(by_w[w] == 0 for w in range(2, 13, 2))


def test_results_follow_the_settings_passed():
    rep = noisy_p1_two()
    loose = Settings(eps=1e-5)
    assert [dim_holomorphic(rep, w, loose).value for w in range(4)] == [1, 0, 1, 0]
    with pytest.raises(TOrderNotFound):
        dim_holomorphic(rep, 0, Settings(eps=1e-9))


def test_odd_part_reads_its_partner_phases_under_a_low_order_cap():
    # kappa^3 validates with t order 4; the phase 1/6 of its even partner
    # kappa^2 is the certified 1/4 shifted by -1/12, not a second solve.
    rep = build_kappa_power(3)
    capped = Settings(order_cap=4)
    assert validate(rep, capped).t_order == 4
    inv = part_invariants(parity_split(rep, capped), True, capped)
    assert [str(x) for x in inv.phases] == ["1/6"]
    assert [(w, dim_holomorphic(rep, w, capped).value, dim_cusp(rep, w, capped).value)
            for w in range(1, 6)] == [(1, 0, 0), (2, 0, 0), (3, 1, 1), (4, 0, 0), (5, 0, 0)]


def test_analysed_representation_is_freed():
    rep = build_p1_permutation(3)
    dim_table(rep, -2, 12)
    duality_report(rep, 2)
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None


def test_explicit_settings_split_once(monkeypatch):
    calls = []

    def counting_split(rep, settings):
        calls.append(rep)
        return parity_split(rep, settings)

    monkeypatch.setattr(vvmf.dimensions, "parity_split", counting_split)
    dim_table(build_p1_permutation(3), -2, 60, Settings())
    assert len(calls) == 1


def test_dual_takes_the_weight_one_certificate(monkeypatch):
    # x -> x^T maps the commutant onto the dual's, so one solve serves both.
    calls = []

    def counting_commutant(rep, settings):
        calls.append(rep.name)
        return commutant_dimension(rep, settings)

    monkeypatch.setattr(vvmf.dimensions, "commutant_dimension", counting_commutant)
    rep = tensor_kappa(steinberg(5), 1)
    dim_table(rep, -2, 30)
    report = duality_report(rep)
    assert report.ok
    assert [c.status for c in report.checks if c.name.startswith("generator-mirror")] == [
        "pass", "pass"]
    assert calls == ["St(5)*k^1"]


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs the dtype of the array
    each call receives; return the log."""
    calls = []
    original = getattr(module, name)

    def wrapper(a, *args, **kwargs):
        calls.append(a.dtype.name)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_certificates(monkeypatch):
    """Wrap modrep._t_spectrum, wherever it is looked up, to log the name
    of each representation whose t spectrum a call certifies rather than
    reads from rep.spectra, on either route; return the log."""
    calls = []
    original = modrep._t_spectrum

    def wrapper(rep, settings):
        if settings not in rep.spectra:
            calls.append(rep.name)
        return original(rep, settings)

    monkeypatch.setattr(modrep, "_t_spectrum", wrapper)
    monkeypatch.setattr(vvmf.invariants, "_t_spectrum", wrapper)
    return calls


def whole_analysis(rep):
    validate(rep)
    dim_table(rep, -2, 60)
    for kind in (HOLOMORPHIC, CUSP):
        try:
            generator_profile(rep, kind)
        except Weight1Indeterminate:
            pass
    duality_report(rep)


@pytest.mark.parametrize("n, twist, spectra, svds", [
    # p1(30) is exactly its own contragredient, so its dual shares the
    # analysis: one t spectrum, and one SVD for the h0 null space.
    (30, 0, 1, 1),
    # Twisted by kappa^2 it is not, and the dual has its own spectrum
    # and its own h0.
    (30, 2, 2, 2),
    # The odd part's commutant and its even partner reuse the spectrum
    # validate certified; the dual has its own.  The commutant reads its t
    # eigenbasis off the cycles of t, so its N x N nullity is the one SVD.
    (16, 3, 2, 1),
])
def test_analysis_derives_each_t_spectrum_once(monkeypatch, n, twist, spectra, svds):
    rep = tensor_kappa(build_p1_permutation(n), twist)
    certified = counting_certificates(monkeypatch)
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    whole_analysis(rep)
    assert (len(certified), len(svd_calls)) == (spectra, svds)
    # t and the dual's t are monomial, so no spectrum needs an eigenvalue solve.
    assert eigvals_calls == []


@pytest.mark.parametrize("n, twist, walks", [
    # p1(16)*k^3 is odd, so it is its own odd part: the commutant reads
    # the walk its spectrum took, and only the dual's t is walked again.
    (16, 3, 2),
    # No odd part, so no commutant: the representation and its dual.
    (12, 2, 2),
    # Its own contragredient, whose analysis it shares.
    (30, 0, 1),
])
def test_analysis_walks_each_monomial_t_once(monkeypatch, n, twist, walks):
    rep = tensor_kappa(build_p1_permutation(n), twist)
    calls = counting(monkeypatch, modrep, "_cycle_walk")
    whole_analysis(rep)
    assert len(calls) == walks


@pytest.mark.parametrize("build", [
    lambda: build_p1_permutation(30),
    lambda: tensor_kappa(build_p1_permutation(16), 3),
    lambda: tensor_kappa(steinberg(7), 3),
], ids=["p1(30)", "p1(16)*k^3", "St(7)*k^3"])
def test_h0_takes_no_qr(monkeypatch, build):
    # h0 is the null space of a square d x d product; the stacked 2d x d
    # matrix it replaced took a QR first, for p1(30) and for its dual.  The
    # commutant is the null space of a square N x N matrix as well.
    rep = build()
    qr_calls = counting(monkeypatch, np.linalg, "qr")
    whole_analysis(rep)
    assert qr_calls == []


@pytest.mark.parametrize("build, size, dimension", [
    (lambda: tensor_kappa(build_p1_permutation(16), 3), 60, 6),
    (lambda: tensor_kappa(steinberg(7), 3), 7, 1),
], ids=["p1(16)*k^3", "St(7)*k^3"])
def test_commutant_is_the_null_space_of_one_square_matrix(monkeypatch, build, size, dimension):
    # One N x N matrix, N the sum of the squared t multiplicities.
    rep = build()
    shapes = []
    nullity = modrep.nullity

    def recording(a, settings):
        shapes.append(a.shape)
        return nullity(a, settings)

    monkeypatch.setattr(modrep, "nullity", recording)
    assert commutant_dimension(rep) == dimension
    assert shapes == [(size, size)]


def test_a_table_leaves_no_rows_on_the_representation():
    # Each row is read off the part invariants on every call, so a long
    # table is freed with the table: the representation keeps only its
    # analysis, whose size does not grow with the weights asked.
    rep = build_p1_permutation(7)
    tracemalloc.start()
    try:
        table = dim_table(rep, 0, 20000)
        del table
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


def test_real_representation_runs_real_lapack(monkeypatch):
    certified = counting_certificates(monkeypatch)
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    whole_analysis(p1_sum(25, 27, 28))
    # One t spectrum, read off the cycles of the permutation t, and one h0
    # count, shared with the dual, which has the same images.
    assert (len(certified), eigvals_calls, svd_calls) == (1, [], ["float64"])
    # St(7) has a dense t, and its dual equals it only up to rounding: one
    # real eigenvalue solve and one real SVD per side.
    certified.clear()
    svd_calls.clear()
    whole_analysis(steinberg(7))
    assert (len(certified), eigvals_calls, svd_calls) == (2, ["float64"] * 2, ["float64"] * 2)


class CountingProducts(np.ndarray):
    """An array that counts the matrix products taken of it, or of any
    array computed from it, in CountingProducts.products."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingProducts.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountingProducts) else x for x in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(CountingProducts) if isinstance(result, np.ndarray) else result


def test_permutation_analysis_forms_one_dense_product(monkeypatch):
    # Of the 13 products one analysis takes of the images, 12 compose the
    # index maps of real permutation matrices; only the h0 product,
    # (t - 1)(s + 1), is dense.
    monkeypatch.setattr(CountingProducts, "products", 0)
    rep = p1_sum(25, 27, 28)
    for image in ("s_image", "t_image"):
        object.__setattr__(rep, image, getattr(rep, image).view(CountingProducts))
    whole_analysis(rep)
    assert CountingProducts.products == 1
    # A dense conjugate takes them all densely: s^3 and t^-1 take six.
    dense = conjugate(p1_sum(25, 27, 28), 0, condition=1.0)
    for image in ("s_image", "t_image"):
        object.__setattr__(dense, image, getattr(dense, image).view(CountingProducts))
    CountingProducts.products = 0
    contragredient(dense)
    assert CountingProducts.products == 6


@pytest.mark.parametrize("build, products", [
    (lambda: tensor_kappa(build_p1_permutation(30), 2), 8),
    (lambda: tensor_kappa(build_p1_permutation(16), 3), 13),
], ids=["p1(30)*k^2", "p1(16)*k^3"])
def test_signatures_form_no_product(monkeypatch, build, products):
    # Complex images keep dense products.  A signature reads tr s and
    # tr st, the sum of s_ij t_ji, so it forms none; forming
    # s t^-1 = (ts)^2 per part and checking s^2 central took four more.
    monkeypatch.setattr(CountingProducts, "products", 0)
    rep = build()
    for image in ("s_image", "t_image"):
        object.__setattr__(rep, image, getattr(rep, image).view(CountingProducts))
    whole_analysis(rep)
    assert CountingProducts.products == products


SELF_DUAL = {
    "rho0": build_rho0,
    **{f"p1({n})": lambda n=n: build_p1_permutation(n) for n in range(2, 8)},
    "p1(5)+p1(7)": lambda: p1_sum(5, 7),
    "p1(25)+p1(27)+p1(28)": lambda: p1_sum(25, 27, 28),
    # Negated images: -0.0 where the contragredient has 0.0.
    "p1(5)*k^6": lambda: tensor_kappa(build_p1_permutation(5), 6),
    # The sign character, whose images are exactly -1, alone and in a sum.
    "kappa^6": lambda: build_kappa_power(6),
    "p1(5)+kappa^6": lambda: direct_sum(build_p1_permutation(5), build_kappa_power(6)),
    # A permutation representation with an odd part.
    "vec(3)": lambda: vector_permutation(3),
}


@pytest.mark.parametrize("name", SELF_DUAL)
def test_dual_with_the_same_images_shares_the_analysis(monkeypatch, name):
    rep = SELF_DUAL[name]()
    a = Analysis.of(rep)
    validate(rep)
    dim_table(rep, -2, 60)
    numerators(a)
    # The duality report solves nothing that the analysis has not.
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    assert duality_report(rep).dual_name == "~" + rep.name
    assert (eigvals_calls, svd_calls) == ([], [])
    d = a.dual
    assert d.rep.name == "~" + rep.name
    assert Analysis.of(d.rep) is d
    assert d.split is a.split
    fresh = Analysis.of(ModularRepresentation(d.rep.s_image, d.rep.t_image, d.rep.name))
    for odd in (False, True):
        if (fresh.split.odd_part if odd else fresh.split.even_part).degree:
            assert d.invariants(odd) == fresh.invariants(odd)
    for w in range(-2, 61):
        for cusp in (False, True):
            assert d.dim(w, cusp) == fresh.dim(w, cusp), (w, cusp)
    assert numerators(d) == numerators(fresh)


@pytest.mark.parametrize("build", [
    lambda: steinberg(5),
    lambda: steinberg(7),
    lambda: tensor_kappa(build_p1_permutation(7), 2),
    lambda: resolve("kappa^1+kappa^11"),
    lambda: conjugate(build_p1_permutation(7), 3),
], ids=["St(5)", "St(7)", "p1(7)*k^2", "kappa^1+kappa^11", "conj(p1(7))"])
def test_dual_with_other_images_has_its_own_analysis(monkeypatch, build):
    # St(p) equals its contragredient only up to rounding; the others
    # differ outright.
    rep = build()
    certified = counting_certificates(monkeypatch)
    whole_analysis(rep)
    a = Analysis.of(rep)
    assert a.dual.split is not a.split
    assert certified == [rep.name, "~" + rep.name]


def test_shared_dual_takes_the_weight_one_certificate(monkeypatch):
    calls = []

    def counting_commutant(rep, settings):
        calls.append(rep.name)
        return commutant_dimension(rep, settings)

    monkeypatch.setattr(vvmf.dimensions, "commutant_dimension", counting_commutant)
    a = Analysis.of(vector_permutation(3))
    assert a.dual.weight1_exact == a.weight1_exact
    assert calls == ["vec(3)[odd]"]


def test_pure_parity_representation_is_its_own_part(monkeypatch):
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    even = build_p1_permutation(7)
    split = parity_split(even)
    assert split.even_part is even
    assert split.odd_part.degree == 0
    assert np.array_equal(split.even_basis, np.eye(even.degree))
    assert split.odd_basis.shape == (even.degree, 0)
    odd = tensor_kappa(even, 1)
    split = parity_split(odd)
    assert split.odd_part is odd
    assert split.even_part.degree == 0
    assert svd_calls == []
    # A mixed representation is still split through both null spaces.
    mixed = direct_sum(build_p1_permutation(5), odd)
    split = parity_split(mixed)
    assert (split.even_part.degree, split.odd_part.degree) == (6, 8)
    assert split.even_part.name == "p1(5)+p1(7)*k^1[even]"
    assert split.odd_part.name == "p1(5)+p1(7)*k^1[odd]"
    assert len(svd_calls) == 2


def test_failing_t_spectrum_is_not_cached(monkeypatch):
    rep = noisy_p1_two()
    certified = counting_certificates(monkeypatch)
    for attempt in (1, 2):
        with pytest.raises(TOrderNotFound):
            modrep._t_spectrum(rep, Settings())
        assert len(certified) == attempt
    assert rep.spectra == {}
    loose = Settings(eps=1e-5)
    assert modrep._t_spectrum(rep, loose) is modrep._t_spectrum(rep, loose)
    assert list(rep.spectra) == [loose]
    assert len(certified) == 3


def test_t_spectrum_is_kept_per_order_cap():
    # kappa^3 has t order 4: a cap of 4 certifies it, a cap of 3 does not,
    # and neither may reuse the spectrum certified under another cap.
    rep = build_kappa_power(3)
    wide, narrow = Settings(), Settings(order_cap=4)
    assert _t_spectrum(rep, wide) == _t_spectrum(rep, narrow) == (4, (1,))
    assert list(rep.spectra) == [wide, narrow]
    with pytest.raises(TOrderNotFound):
        _t_spectrum(rep, Settings(order_cap=3))
    assert list(rep.spectra) == [wide, narrow]


@pytest.mark.parametrize("build, decisions", [
    # The dual of p1(30) has its images and shares its split.
    (lambda: build_p1_permutation(30), 1),
    (lambda: tensor_kappa(build_p1_permutation(30), 2), 2),
    (lambda: tensor_kappa(build_p1_permutation(16), 3), 2),
    (lambda: direct_sum(build_p1_permutation(5), tensor_kappa(build_p1_permutation(7), 1)), 2),
], ids=["p1(30)", "p1(30)*k^2", "p1(16)*k^3", "p1(5)+p1(7)*k^1"])
def test_analysis_decides_parity_once_per_representation(monkeypatch, build, decisions):
    # One decision each for the representation and its dual unless they
    # share the analysis, made in the parity split; the parts and the odd
    # part's partner are not tested again.
    rep = build()
    calls = []
    original = modrep._parity_of_square

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(modrep, "_parity_of_square", counting)
    whole_analysis(rep)
    assert len(calls) == decisions


@pytest.mark.parametrize("n, j, eps", [
    (11, 1, 1e-4), (17, 2, 1e-4), (23, 2, 1e-4), (25, 10, 1e-4), (27, 1, 1e-4), (29, 1, 1e-5)])
@pytest.mark.parametrize("dual", [False, True], ids=["rep", "dual"])
def test_loose_tolerance_certifies_twisted_permutations(n, j, eps, dual):
    # Each phase snapped on its own found small-denominator convergents
    # within a loose eps that failed the power or divisor check; one
    # convergent per cycle finds the true order.
    rep = tensor_kappa(build_p1_permutation(n), j)
    if dual:
        rep = contragredient(rep)
    loose = Settings(eps=eps)
    assert modrep.find_t_order(rep, loose) == np.lcm(n, 12 // np.gcd(j, 12))
    assert dim_table(rep, -2, 30, loose) == dim_table(rep, -2, 30)
    assert duality_report(rep, settings=loose).ok


@pytest.mark.parametrize("dim, message", [
    (dim_holomorphic, "holomorphic dimension -1 < 0 by the rule even-k>0, with lambda+ = -1"),
    (dim_cusp, "cusp dimension -1 < 0 by the rule cusp-weight-2, with lambda- = -1"),
], ids=["M", "S"])
def test_negative_dimension_is_refused_by_name(dim, message):
    # The relations and the t order hold, but no positive-definite form is
    # preserved, and the formulas give -1 at weight two.  The refusal must
    # be an exception that python -O keeps, not an assert.
    rep = no_invariant_form()
    assert validate(rep).t_order == 24
    with pytest.raises(SnapFailure, match=re.escape(f"weight 2 gives the {message}")):
        dim(rep, 2)
    assert dim(rep, 4).value == 0


def test_mason_family_matches_its_oracle():
    # Mason's irreducible two-dimensional representations are dense and
    # complex, and most have an infinite image.  Every unitarizable one,
    # of either parity, must give the oracle's exact table at weights
    # -4..24; some have forms of weight one.  CI runs 3000 trials.
    counts, mismatches = mason_sweep(300)
    assert mismatches == []
    assert counts["matching"] == counts["unitarizable"] >= 150
    assert counts["matching with M_1 > 0"] > 0


FREE_MODULE_GROUPS = {
    "catalog": lambda: [resolve(name) for name in catalog_names()],
    "golden-sums": lambda: [resolve(name) for name in SUMS],
    "p1-twists": lambda: [tensor_kappa(build_p1_permutation(n), j)
                          for n in range(2, 31) for j in range(12)],
    "steinberg-twists": lambda: [tensor_kappa(steinberg(p), j)
                                 for p in (3, 5, 7, 11) for j in (0, 1, 3, 4)],
    "gamma1": lambda: [gamma1(n) for n in range(5, 13)],
    "millington": lambda: [millington(d, seed, odd) for d, seed, odd in
                           [(12, 0, False), (20, 1, True), (30, 2, False), (48, 3, True)]],
    "mason": lambda: [rep for rep, _, _, unitarizable in mason_inputs(300) if unitarizable],
}


@pytest.mark.parametrize("group", FREE_MODULE_GROUPS)
def test_dimensions_are_those_of_a_free_module(group):
    # The library reads the generator counts off rows 0..12 alone; the
    # rows above must make (1-z^4)(1-z^6) times each series vanish there,
    # and the counts must add up to the degree.
    reps = FREE_MODULE_GROUPS[group]()
    assert reps
    for rep in reps:
        expected = numerators(Analysis.of(rep))
        for kind, coeffs in enumerate(product_coefficients(dim_table(rep, 0, 60))):
            assert [w for w in range(13, 61) if coeffs[w]] == [], (rep.name, kind)
            counts = tuple(coeffs[w] for w in range(13))
            assert sum(counts) == rep.degree, (rep.name, kind)
            if expected is not None:
                assert counts == expected[kind], (rep.name, kind)


def test_free_module_oracle_sees_a_broken_quasi_period(monkeypatch):
    # gamma(k + 6) = gamma(k) + d + 1 breaks freeness above weight 12 and
    # the count of generators, and the oracle must say so for both kinds.
    monkeypatch.setattr(PartInvariants, "gamma", lambda self, k: (
        self.gamma_base[k % 6] + (self.sig.d + 1) * (k // 6)))
    rep = build_p1_permutation(7)
    for coeffs in product_coefficients(dim_table(rep, 0, 60)):
        assert any(coeffs[w] for w in range(13, 61))
        assert sum(coeffs[w] for w in range(13)) != rep.degree


def test_generator_numerator_reads_rows_0_to_12(monkeypatch):
    # The coefficients above weight 12 vanish identically, so the
    # numerator builds no row above 12.
    weights = []
    row = Analysis._row

    def counting(self, w, cusp):
        weights.append(w)
        return row(self, w, cusp)

    monkeypatch.setattr(Analysis, "_row", counting)
    Analysis.of(build_p1_permutation(7)).generator_numerator(False)
    assert weights == list(range(13))
