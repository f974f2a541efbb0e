import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import vvmf.dimensions
import vvmf.invariants
import vvmf.modrep as modrep
from helpers import conjugate, dim_via_exponent_shift, enumerate_closure, p1_sum, steinberg
from vvmf.catalog import catalog_names, resolve
from vvmf.dimensions import (
    EXACT,
    LOWER_BOUND,
    DimResult,
    Weight1Indeterminate,
    certify_irreducible,
    dim_cusp,
    dim_holomorphic,
    dim_table,
)
from vvmf.invariants import part_invariants
from vvmf.linalg import Settings, snap_integer
from vvmf.modrep import (
    ModularRepresentation,
    ParityError,
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
    with pytest.raises(ParityError):
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


def noisy_p1_two():
    rep = build_p1_permutation(2)
    t = rep.t_image.copy()
    nonzero = t != 0
    t[nonzero] += 1e-7 * np.random.default_rng(0).standard_normal(nonzero.sum())
    return ModularRepresentation(rep.s_image, t, "noisy p1(2)")


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
    assert [str(x) for x in inv.exp.phases] == ["1/6"]
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


def whole_analysis(rep):
    validate(rep)
    dim_table(rep, -2, 60)
    for kind in (HOLOMORPHIC, CUSP):
        try:
            generator_profile(rep, kind)
        except Weight1Indeterminate:
            pass
    duality_report(rep)


@pytest.mark.parametrize("n, twist, eigvals, svds", [
    # One t spectrum each for the representation and its dual; the two
    # SVDs left are the h0 null spaces.
    (30, 0, 2, 2),
    # The odd part's commutant and its even partner reuse the spectrum
    # validate certified; the dual has its own.
    (16, 3, 2, 17),
])
def test_analysis_derives_each_t_spectrum_once(monkeypatch, n, twist, eigvals, svds):
    rep = tensor_kappa(build_p1_permutation(n), twist)
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    whole_analysis(rep)
    assert (len(eigvals_calls), len(svd_calls)) == (eigvals, svds)


def test_real_representation_runs_real_lapack(monkeypatch):
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    svd_calls = counting(monkeypatch, np.linalg, "svd")
    whole_analysis(p1_sum(25, 27, 28))
    # One t spectrum and one h0 count each for the representation and its dual.
    assert (eigvals_calls, svd_calls) == (["float64"] * 2, ["float64"] * 2)


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
    eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
    for attempt in (1, 2):
        with pytest.raises(TOrderNotFound):
            _t_spectrum(rep, Settings())
        assert len(eigvals_calls) == attempt
    assert rep.spectra == {}
    loose = Settings(eps=1e-5)
    assert _t_spectrum(rep, loose) is _t_spectrum(rep, loose)
    assert list(rep.spectra) == [loose]
    assert len(eigvals_calls) == 3


def test_t_spectrum_is_kept_per_order_cap():
    # kappa^3 has t order 4: a cap of 4 certifies it, a cap of 3 does not,
    # and neither may reuse the spectrum certified under another cap.
    rep = build_kappa_power(3)
    wide, narrow = Settings(), Settings(order_cap=4)
    assert _t_spectrum(rep, wide) == _t_spectrum(rep, narrow) == (4, (Fraction(1, 4),))
    assert list(rep.spectra) == [wide, narrow]
    with pytest.raises(TOrderNotFound):
        _t_spectrum(rep, Settings(order_cap=3))
    assert list(rep.spectra) == [wide, narrow]


@pytest.mark.parametrize("build", [
    lambda: build_p1_permutation(30),
    lambda: tensor_kappa(build_p1_permutation(16), 3),
    lambda: direct_sum(build_p1_permutation(5), tensor_kappa(build_p1_permutation(7), 1)),
], ids=["p1(30)", "p1(16)*k^3", "p1(5)+p1(7)*k^1"])
def test_analysis_decides_parity_once_per_representation(monkeypatch, build):
    # One decision each for the representation and its dual, made in the
    # parity split; the parts and the odd part's partner are not tested
    # again, and the public parity test is not on the analysis path.
    rep = build()
    calls = {"_parity_of_square": 0, "parity": 0}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(modrep, "_parity_of_square")
    # invariants holds its own reference to parity, for signature.
    count(modrep, "parity")
    count(vvmf.invariants, "parity")
    whole_analysis(rep)
    assert calls == {"_parity_of_square": 2, "parity": 0}
