import numpy as np
import pytest

from vvmf.linalg import (
    DEFAULT_EPS,
    DEFAULT_SETTINGS,
    Settings,
    SnapFailure,
    as_matrix,
    clean,
    is_identity,
    mat_pow,
    max_abs,
    rank,
    row_reduce,
    snap_integer,
)

S = np.array([[0, -1], [1, 0]], dtype=complex)


def test_tolerance_range():
    assert Settings().eps == DEFAULT_EPS
    with pytest.raises(ValueError):
        Settings(0.0)
    with pytest.raises(ValueError):
        Settings(-1e-9)
    with pytest.raises(ValueError):
        Settings(1e-3)


def test_caps_must_be_positive():
    with pytest.raises(ValueError, match="order cap"):
        Settings(order_cap=0)
    with pytest.raises(ValueError, match="closure cap"):
        Settings(closure_cap=0)


def test_as_matrix_shapes():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_mat_pow_basics():
    m = np.array([[2, 1], [0, 1]], dtype=complex)
    assert np.array_equal(mat_pow(m, 0), np.eye(2))
    assert np.array_equal(mat_pow(m, 1), m)
    with pytest.raises(ValueError):
        mat_pow(m, -1)
    with pytest.raises(ValueError):
        mat_pow(np.ones((2, 3)), 2)


def test_mat_pow_sixth_root_of_unity():
    zeta6 = np.exp(2j * np.pi / 6)
    m = np.diag([zeta6, zeta6**5])
    assert is_identity(mat_pow(m, 6))


@pytest.mark.parametrize("m,n", [(0, 5), (3, 4), (17, 13), (31, 33), (1, 63)])
def test_mat_pow_additive_exponents(m, n):
    rng = np.random.default_rng(11)
    a = np.diag(np.exp(2j * np.pi * rng.integers(0, 8, size=4) / 8))
    lhs = mat_pow(a, m + n)
    rhs = mat_pow(a, m) @ mat_pow(a, n)
    assert max_abs(lhs - rhs) <= 10 * DEFAULT_EPS


def test_is_identity():
    assert is_identity(np.eye(3, dtype=complex))
    bumped = np.eye(3, dtype=complex)
    bumped[0, 1] = DEFAULT_EPS / 2
    assert is_identity(bumped)
    assert not is_identity(S)


def test_rank_examples():
    assert rank(np.zeros((3, 3), dtype=complex)) == 0
    for d in (1, 2, 5):
        assert rank(np.eye(d, dtype=complex)) == d
    assert rank(np.array([[1, 1], [1, 1]], dtype=complex)) == 1


def test_rank_row_permutation_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) @ np.diag([1, 1, 0, 0]) @ rng.normal(size=(4, 4))
    m = m.astype(complex)
    assert rank(m) == 2
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(4)
        assert rank(m[perm]) == 2


def test_row_reduce_pivots():
    reduced, pivots = row_reduce(np.array([[0, 1], [0, 2]], dtype=complex))
    assert pivots == [1]
    assert reduced[0, 1] == 1
    _, none = row_reduce(np.zeros((2, 2), dtype=complex))
    assert none == []


def test_snap_integer_examples():
    assert snap_integer(2.0000000001) == 2
    assert snap_integer(-1 + 1e-12) == -1
    with pytest.raises(SnapFailure):
        snap_integer(0.5)


def test_snap_integer_idempotent():
    for x in (0.0, 3.0 - 1e-10, -7.0 + 2e-10):
        once = snap_integer(x)
        assert snap_integer(once) == once


def test_default_tolerance_override():
    assert DEFAULT_SETTINGS.eps == DEFAULT_EPS
    assert snap_integer(1 + 1e-7, Settings(1e-6)) == 1
    with pytest.raises(SnapFailure):
        snap_integer(1 + 1e-7)


def test_explicit_tolerance_beats_default():
    assert snap_integer(1 + 1e-7, Settings(1e-5)) == 1


def test_clean_zeroes_sub_tolerance_entries():
    m = np.array([[1, 1e-12], [1e-15, 1]], dtype=complex)
    out = clean(m)
    assert out[0, 1] == 0
    assert out[1, 0] == 0
    assert out[0, 0] == 1
    assert m[0, 1] == 1e-12
