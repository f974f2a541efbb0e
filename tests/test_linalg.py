import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vvmf.linalg import (
    DEFAULT_EPS,
    DEFAULT_SETTINGS,
    Settings,
    SnapFailure,
    as_matrix,
    is_identity,
    max_abs,
    nullity,
    nullspace,
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
    with pytest.raises(TypeError):
        Settings(closure_cap=20000)


def test_as_matrix_shapes():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert as_matrix(np.array([[1, -0.0j], [3, 4 + 0j]])).dtype == np.float64
    assert as_matrix([[1, 1e-300j], [3, 4]]).dtype == np.complex128
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


@pytest.mark.parametrize("entries", [
    np.array([[-0.0, 1.5], [2.0, -3.0]]),
    np.array([[-0.0, 1.5], [2.0, -3.0]]).T,
    np.array([[1, -2], [3, 2**60 + 1]]),
    np.array([[True, False], [False, True]]),
    np.array([[0.1, -0.0], [1e-300, 2.0]], dtype=np.float32),
], ids=["float64", "transposed", "int64", "bool", "float32"])
def test_real_array_is_copied_as_through_complex(entries):
    # One float64 copy holds what the complex copy's real part held: the
    # values, -0.0 and C order.
    expected = np.array(entries, dtype=np.complex128).real.copy()
    m = as_matrix(entries)
    assert m.dtype == np.float64 and m.flags.c_contiguous and m.flags.owndata
    assert m.tobytes() == expected.tobytes()
    assert m is not entries and not np.shares_memory(m, entries)


def test_is_identity():
    assert is_identity(np.eye(3, dtype=complex))
    bumped = np.eye(3, dtype=complex)
    bumped[0, 1] = DEFAULT_EPS / 2
    assert is_identity(bumped)
    assert not is_identity(S)


def null_basis(a, settings=DEFAULT_SETTINGS):
    """nullspace(a), checked to be orthonormal and annihilated by a."""
    basis = nullspace(np.asarray(a, dtype=complex), settings)
    assert basis.shape[0] == np.shape(a)[1]
    assert max_abs(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert max_abs(np.asarray(a, dtype=complex) @ basis) <= 1e-12
    return basis


def test_nullspace_examples():
    assert null_basis(np.zeros((3, 3))).shape == (3, 3)
    for d in (1, 2, 5):
        assert null_basis(np.eye(d)).shape == (d, 0)
    basis = null_basis([[1, 1], [1, 1]])
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0] + basis[1, 0]) <= 1e-12


def test_nullspace_row_permutation_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) @ np.diag([1, 1, 0, 0]) @ rng.normal(size=(4, 4))
    m = m.astype(complex)
    basis = null_basis(m)
    assert basis.shape == (4, 2)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(4)
        other = null_basis(m[perm])
        # Same space: the orthogonal projectors agree.
        assert max_abs(basis @ basis.conj().T - other @ other.conj().T) <= 1e-9
    # A tall matrix with the same null space: 40 generic combinations of the rows.
    tall = null_basis(rng.normal(size=(40, 4)) @ m)
    assert max_abs(basis @ basis.conj().T - tall @ tall.conj().T) <= 1e-9


def test_nullspace_of_a_zero_column():
    basis = null_basis([[0, 1], [0, 2]])
    assert basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1) <= 1e-12


def test_nullspace_ignores_sub_tolerance_entries():
    assert null_basis([[1, 1e-12], [1e-15, 1]]).shape == (2, 0)
    noise = 1e-12 * np.random.default_rng(5).standard_normal((6, 6))
    assert nullspace(noise).shape == (6, 6)
    # Above one, the threshold scales with the largest singular value.
    wide_range = np.diag([1e6, 1e-4]).astype(complex)
    assert nullspace(wide_range).shape == (2, 1)
    assert nullspace(wide_range, Settings(1e-12)).shape == (2, 0)


def test_nullspace_empty_shapes():
    assert nullspace(np.zeros((0, 3), dtype=complex)).shape == (3, 3)
    assert nullspace(np.zeros((3, 0), dtype=complex)).shape == (0, 0)
    assert nullspace(np.zeros((0, 0), dtype=complex)).shape == (0, 0)
    wide = null_basis([[1, 0, 0], [0, 1, 0]])
    assert wide.shape == (3, 1)
    assert abs(abs(wide[2, 0]) - 1) <= 1e-12


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("22a6181a89320320d032bfffdecc4688313f464d7ba81a5b"
          "8d0b045721a831490d8e7464601c7929a64582c2210032be", 16))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.sampled_from([np.float64, np.complex128]), st.sampled_from(["rank", "zero", "noise"]),
       st.integers(0, 2**32 - 1))
def test_nullity_counts_the_nullspace(rows, cols, rank, dtype, kind, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is np.complex128 else x

    rank = min(rank, rows, cols)
    if kind == "rank":
        a = draw((rows, rank)) @ draw((rank, cols))
    else:
        # Noise at 1e-12 stays under the floor eps * max(1, sigma_max): rank 0.
        a = np.zeros((rows, cols), dtype=dtype) if kind == "zero" else 1e-12 * draw((rows, cols))
        rank = 0
    assert a.dtype == dtype
    assert nullity(a) == nullspace(a).shape[1] == cols - rank


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
