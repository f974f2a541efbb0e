import pytest

from vvmf.catalog import catalog_names, resolve
from vvmf.dimensions import EXACT, dim_cusp, dim_holomorphic
from vvmf.invariants import part_invariants
from vvmf.modrep import (
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    parity_split,
    tensor_kappa,
)
from vvmf.series import (
    CUSP,
    HOLOMORPHIC,
    GeneratorProfile,
    Weight1Indeterminate,
    duality_report,
    generator_profile,
)


def expand_by_long_division(numerator, max_weight):
    # 1/((1-z^4)(1-z^6)) satisfies c[w] = n[w] + c[w-4] + c[w-6] - c[w-10].
    c = [0] * (max_weight + 1)
    for w in range(max_weight + 1):
        total = numerator[w] if w < len(numerator) else 0
        for shift, sign in ((4, 1), (6, 1), (10, -1)):
            if w >= shift:
                total += sign * c[w - shift]
        c[w] = total
    return c


def formula_profile(rep, kind):
    """Generator counts from closed formulas in the invariants, or None.

    The oracle for generator_profile: per parity part and module kind,
    each count is an integer combination of gamma, the lambdas and h0
    (even) or of the weight-one dimensions (odd).  None where the odd
    weight-one dimensions are only lower bounds.
    """
    split = parity_split(rep)
    counts = {}

    def put(table):
        for w, c in table.items():
            if c:
                counts[w] = counts.get(w, 0) + c

    if split.even_part.degree:
        inv = part_invariants(split, False)
        g, lp, lm, h0 = inv.gamma, inv.lambda_plus, inv.lambda_minus, inv.h0
        if kind == HOLOMORPHIC:
            put({0: h0, 2: g(1) + lp, 4: g(2) + lp - h0, 6: g(3) - g(1) - h0,
                 8: g(6) - g(5) - lp, 10: h0 - lp})
        else:
            put({2: g(1) + lm + h0, 4: g(2) + lm, 6: g(3) - g(1) - h0,
                 8: g(6) - g(5) - lm - h0, 10: -lm, 12: h0})
    if split.odd_part.degree:
        m1, s1 = dim_holomorphic(rep, 1), dim_cusp(rep, 1)
        if m1.status != EXACT or s1.status != EXACT:
            return None
        inv = part_invariants(split, True)
        g, lp, lm = inv.gamma, inv.lambda_plus, inv.lambda_minus
        if kind == HOLOMORPHIC:
            put({1: m1.value, 3: g(1) + lp, 5: g(2) + lp - m1.value,
                 7: g(3) - g(1) - m1.value, 9: g(6) - g(5) - lp, 11: m1.value - lp})
        else:
            put({1: s1.value, 3: g(1) + lm, 5: g(2) + lm - s1.value,
                 7: g(3) - g(1) - s1.value, 9: g(6) - g(5) - lm, 11: s1.value - lm})
    return counts


def oracle_reps():
    reps = [resolve(name) for name in catalog_names()]
    reps += [resolve(f"p1({n})*k^{j}") for n in range(2, 8) for j in range(1, 12)]
    reps += [build_p1_permutation(n) for n in (8, 12, 16, 30)]
    reps += [tensor_kappa(build_p1_permutation(n), 2) for n in (12, 30)]
    return reps


def test_profile_matches_formula_oracle():
    determinate = 0
    for rep in oracle_reps():
        for kind in (HOLOMORPHIC, CUSP):
            expected = formula_profile(rep, kind)
            if expected is None:
                with pytest.raises(Weight1Indeterminate):
                    generator_profile(rep, kind)
                continue
            determinate += 1
            assert generator_profile(rep, kind).counts == expected, (rep.name, kind)
    assert determinate >= 108


def test_rho0_profiles():
    assert generator_profile(build_rho0(), HOLOMORPHIC).counts == {0: 1}
    assert generator_profile(build_rho0(), CUSP).counts == {12: 1}


def test_kappa_profiles():
    assert generator_profile(build_kappa_power(1), HOLOMORPHIC).counts == {1: 1}
    assert generator_profile(build_kappa_power(1), CUSP).counts == {1: 1}
    assert generator_profile(build_kappa_power(11), HOLOMORPHIC).counts == {11: 1}
    assert generator_profile(build_kappa_power(11), CUSP).counts == {11: 1}


def test_p1_two_profiles(catalog_reps):
    rep = catalog_reps["p1(2)"]
    assert generator_profile(rep, HOLOMORPHIC).counts == {0: 1, 2: 1, 4: 1}
    assert generator_profile(rep, CUSP).counts == {8: 1, 10: 1, 12: 1}


def test_profile_totals_and_nonnegativity(catalog_reps):
    determinate = 0
    for rep in catalog_reps.values():
        split = parity_split(rep)
        for kind in (HOLOMORPHIC, CUSP):
            try:
                profile = generator_profile(rep, kind)
            except Weight1Indeterminate:
                continue
            determinate += 1
            assert sum(profile.counts.values()) == rep.degree
            assert all(c >= 0 for c in profile.counts.values())
            if split.odd_part.degree == 0:
                assert all(w % 2 == 0 for w in profile.counts)
            if split.even_part.degree == 0:
                assert all(w % 2 == 1 for w in profile.counts)
    assert determinate >= 28


def test_profile_validation():
    with pytest.raises(ValueError):
        GeneratorProfile(HOLOMORPHIC, {14: 1}, 1)
    with pytest.raises(ValueError):
        GeneratorProfile(CUSP, {2: -1, 4: 2}, 1)
    with pytest.raises(ValueError):
        GeneratorProfile(HOLOMORPHIC, {2: 1}, 3)
    with pytest.raises(ValueError):
        generator_profile(build_rho0(), "meromorphic")


def test_weight_one_indeterminate():
    with pytest.raises(Weight1Indeterminate):
        generator_profile(resolve("kappa^1+kappa^11"))
    with pytest.raises(Weight1Indeterminate):
        generator_profile(resolve("p1(3)*k^3"), CUSP)


def test_expansion_matches_dimensions(catalog_reps):
    for name, rep in catalog_reps.items():
        for kind, dim in ((HOLOMORPHIC, dim_holomorphic), (CUSP, dim_cusp)):
            try:
                counts = generator_profile(rep, kind).counts
            except Weight1Indeterminate:
                continue
            numerator = [counts.get(w, 0) for w in range(13)]
            dims = expand_by_long_division(numerator, 40)
            for w in range(41):
                assert dims[w] == dim(rep, w).value, (name, kind, w)


def test_duality_report_kappa_squared():
    report = duality_report(build_kappa_power(2), 2)
    assert report.ok
    assert report.dual_name == "~kappa^2"
    by_name = {c.name: c for c in report.checks}
    assert by_name["even-weight-sum"].status == "pass"
    assert by_name["odd-weight-sum"].status == "skipped"
    assert by_name["generator-mirror-holo"].status == "pass"
    assert by_name["generator-mirror-cusp"].status == "pass"


def test_duality_report_rho0():
    report = duality_report(build_rho0(), 3)
    assert report.ok
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["even-weight-sum"] == "pass"
    assert statuses["odd-weight-sum"] == "skipped"


def test_duality_report_skips_indeterminate_mirror():
    report = duality_report(resolve("kappa^1+kappa^11"), 2)
    assert report.ok
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["odd-weight-sum"] == "pass"
    assert statuses["generator-mirror-holo"] == "skipped"
    assert statuses["generator-mirror-cusp"] == "skipped"


def test_generator_mirror_matches_reflection():
    # Cusp generators of the dual sit at twelve minus the holomorphic weights.
    for j in (1, 2, 5, 11):
        rep = build_kappa_power(j)
        dual = build_kappa_power((-j) % 12)
        holo = generator_profile(rep, HOLOMORPHIC).counts
        dual_cusp = generator_profile(dual, CUSP).counts
        for w in range(13):
            assert dual_cusp.get(w, 0) == holo.get(12 - w, 0), (j, w)
