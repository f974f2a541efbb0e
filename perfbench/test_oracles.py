"""Tests of the benchmark's oracles and checkers.

Run from the root of the repository with
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import pytest

import oracles as O


@pytest.mark.parametrize("n, genus", [
    (1, 0), (2, 0), (7, 0), (10, 0), (11, 1), (12, 0), (13, 0), (16, 0), (18, 0),
    (22, 2), (23, 2), (25, 0), (27, 1), (28, 2), (30, 3), (37, 2),
])
def test_genus_of_x0(n, genus):
    assert O.gamma0_invariants(n)["genus"] == genus


def test_gamma0_invariants_textbook_values():
    assert O.gamma0_invariants(6)["mu"] == 12
    assert O.gamma0_invariants(12)["eps_inf"] == 6
    assert O.gamma0_invariants(13)["eps2"] == 2 and O.gamma0_invariants(13)["eps3"] == 2
    assert O.gamma0_invariants(4)["eps2"] == 0 and O.gamma0_invariants(9)["eps3"] == 0


def test_gamma0_dimensions():
    assert O.gamma0_dims(11, 2) == (2, 1)
    assert O.gamma0_dims(11, 4) == (4, 2)
    assert O.gamma0_dims(1, 12) == (2, 1)
    assert [O.gamma0_dims(4, k)[0] for k in range(0, 12, 2)] == [1, 2, 3, 4, 5, 6]
    assert O.gamma0_dims(5, 3) == (0, 0) and O.gamma0_dims(5, -2) == (0, 0)


def test_level_one_matches_gamma0_of_level_one():
    for k in range(-4, 100):
        assert O.level_one_dim(k) == O.gamma0_dims(1, k)[0]


def test_kappa_eta_quotient():
    assert O.kappa_dims(1, 1) == (1, 1)          # eta^2 itself
    assert O.kappa_dims(0, 12) == (2, 1)         # E4^3 and Delta
    assert O.kappa_dims(11, 1) == (0, 0)
    assert O.kappa_dims(1, 13) == (2, 2)
    assert O.kappa_dims(6, 5) == (0, 0) and O.kappa_dims(6, 6) == (1, 1)


def test_t_order_of_p1_sums_is_lcm_of_moduli():
    import workloads as W

    assert W.expr_t_order("p1(5)+p1(7)+p1(9)") == 315
    assert W.expr_t_order("p1(16)+p1(27)+p1(5)") == 2160
    assert W.expr_t_order("p1(25)+p1(27)+p1(28)") == 18900
    assert W.expr_t_order("p1(7)*k^4") == 21


def test_series_expand_against_brute_force():
    counts = {0: 1, 2: 3, 5: 2, 12: 1}
    brute = [0] * 41
    for w, c in counts.items():
        for a in range(11):
            for b in range(7):
                if w + 4 * a + 6 * b <= 40:
                    brute[w + 4 * a + 6 * b] += c
    assert O.series_expand(counts, 40) == brute


def test_level_one_profile_reproduces_level_one_table():
    table = {w: (O.level_one_dim(w), 0) for w in range(0, 61)}
    assert O.check_profile({0: 1}, O.HOLOMORPHIC, 1, table, range(0, 61)) == []


@pytest.mark.parametrize("n", [2, 5, 7, 11, 12, 30])
def test_duality_sum_holds_for_the_oracles(n):
    weights = range(-2, 61)
    table = O.p1_table(n, weights)
    assert O.check_duality(table, table, O.gamma0_invariants(n)["mu"], 0) == []


def test_kappa_duality_pairs_j_with_12_minus_j():
    weights = range(-2, 61)
    for j in range(12):
        even, odd = (0, 1) if j % 2 else (1, 0)
        assert O.check_duality(O.kappa_table(j, weights), O.kappa_table(-j, weights), even, odd) == []


def _off_by_one(table, w, col):
    bad = dict(table)
    row = list(bad[w])
    row[col] += 1
    bad[w] = tuple(row)
    return bad


def test_checkers_catch_a_table_off_by_one():
    weights = range(-2, 61)
    oracle = O.p1_table(12, weights)
    assert O.check_table(oracle, oracle) == []
    assert O.check_table(_off_by_one(oracle, 14, 0), oracle)
    assert O.check_table(_off_by_one(oracle, 2, 1), oracle)
    mu = O.gamma0_invariants(12)["mu"]
    assert O.check_duality(_off_by_one(oracle, 8, 0), oracle, mu, 0)
    counts = {0: 1, 2: 5, 4: 8, 6: 7, 8: 3}
    assert O.check_profile(counts, O.HOLOMORPHIC, mu, oracle, range(0, 61)) == []
    assert O.check_profile(counts, O.HOLOMORPHIC, mu, _off_by_one(oracle, 20, 0), range(0, 61))


def test_weight_one_lower_bound_passes_only_below_the_oracle():
    oracle = O.add_tables(O.kappa_table(1, range(0, 4)), O.kappa_table(11, range(0, 4)))
    statuses = {w: (w != 1, w != 1) for w in range(0, 4)}
    low = {**oracle, 1: (0, 0)}
    high = {**oracle, 1: (2, 0)}
    assert O.check_table(low, oracle, statuses) == []
    assert O.check_table(high, oracle, statuses)
    assert O.check_table(low, oracle)                      # as an exact value it is wrong
    assert O.check_lower_bounds(low, statuses) == []
    assert O.check_lower_bounds(low, {0: (False, True)})   # only weight one may be a bound


def test_analysis_checker_catches_corrupted_output():
    import workloads as W

    spec = W.in_process_specs("ladder", 0)[0]
    out = W.analyse(spec)
    assert W.check_outcome(spec, out) == []
    out.table = _off_by_one(out.table, 10, 1)
    assert W.check_outcome(spec, out)


def test_steinberg_additivity():
    import workloads as W

    oracle = W.additivity_oracle("St(5)*k^1")
    table = {w: (m.value, s.value) for w, m, s in W.dimensions.dim_table(W.build("St(5)*k^1"), 2, 60)}
    assert O.check_table(table, oracle) == []
