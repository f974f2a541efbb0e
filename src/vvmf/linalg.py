"""The package's own rules for dense real or complex matrices.

Three rules live here; numpy does the arithmetic.  The storage rule: a
matrix whose entries are all exactly real is kept in float64, so that
every factorisation and product on it runs in real arithmetic; complex
scalars upcast it where they enter.  The rank rule: a singular value
counts as zero below a threshold scaled by the largest one.  The
snapping rule: everything the package ultimately reports (multiplicities,
dimensions, generator counts) is an integer, floating point enters only
through the matrix images of the two group generators, and every
float-to-integer conversion goes through ``snap_integer``, so numerical
corruption becomes a hard error instead of a silently wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A float64 or complex128 array.
Matrix = np.ndarray

DEFAULT_EPS = 1e-9
DEFAULT_ORDER_CAP = 4096


class SnapFailure(ValueError):
    """A quantity that should have been a (non-negative) integer was not."""


@dataclass(frozen=True)
class Settings:
    """Numeric tolerance and order cap, passed explicitly to every computation.

    eps is the absolute entrywise tolerance for all approximate
    comparisons and order_cap the largest denominator allowed for an
    eigenphase of the t image (the t order, their lcm, may exceed it).
    """

    eps: float = DEFAULT_EPS
    order_cap: int = DEFAULT_ORDER_CAP

    def __post_init__(self):
        if not 0.0 < self.eps < 1e-3:
            raise ValueError(f"tolerance eps must lie in (0, 1e-3), got {self.eps!r}")
        if self.order_cap < 1:
            raise ValueError("order cap must be positive")


DEFAULT_SETTINGS = Settings()


def as_matrix(entries) -> Matrix:
    """Copy nested lists or an array to an owned square matrix.

    The copy is float64 when every imaginary part is exactly zero and
    complex128 otherwise; a real array is copied once, in C order.
    """
    real = isinstance(entries, np.ndarray) and entries.dtype.kind in "biuf"
    if real:
        a = np.array(entries, dtype=np.float64, order="C")
    else:
        a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a if real or a.imag.any() else a.real.copy()


def max_abs(a: Matrix) -> float:
    """Largest entry magnitude; 0.0 for empty matrices."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_identity(a: Matrix, settings: Settings = DEFAULT_SETTINGS) -> bool:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return max_abs(a - np.eye(a.shape[0])) <= settings.eps


def _rank(sigma: np.ndarray, settings: Settings) -> int:
    """Number of singular values (sorted, largest first) that count as nonzero.

    A singular value counts as zero when it is at most
    eps * max(1, largest singular value).  The floor of one keeps a
    matrix made only of floating point noise (such as s^2 - 1 of a
    purely even representation in a rotated basis) from getting full
    rank; the scaling keeps large honest entries from hiding a rank drop.
    """
    return int(np.count_nonzero(sigma > settings.eps * max(1.0, sigma[0])))


def nullspace(a: Matrix, settings: Settings = DEFAULT_SETTINGS) -> Matrix:
    """Orthonormal basis of the null space of a, as the columns of a matrix.

    The rank is the count of singular values above the threshold of
    _rank; nullity gives the dimension alone.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=a.dtype)
    _, sigma, vh = np.linalg.svd(a, full_matrices=rows < cols)
    return vh[_rank(sigma, settings):].conj().T


def nullity(a: Matrix, settings: Settings = DEFAULT_SETTINGS) -> int:
    """Dimension of the null space of a, from its singular values alone.

    It equals nullspace(a, settings).shape[1].
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return cols
    return cols - _rank(np.linalg.svd(a, compute_uv=False), settings)


def snap_integer(x: float, settings: Settings = DEFAULT_SETTINGS) -> int:
    """Round to the nearest integer, failing hard when x is not close to one."""
    eps = settings.eps
    n = round(float(x))
    if abs(float(x) - n) > eps:
        raise SnapFailure(f"{x!r} is not within {eps} of an integer")
    return int(n)
