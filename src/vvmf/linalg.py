"""Dense complex matrix helpers with tolerance-guarded integer snapping.

Everything the package ultimately reports (multiplicities, dimensions,
generator counts) is an integer; floating point enters only through the
matrix images of the two group generators.  Every float-to-integer
conversion goes through ``snap_integer`` so numerical corruption becomes
a hard error instead of a silently wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ComplexMatrix = np.ndarray

DEFAULT_EPS = 1e-9
DEFAULT_ORDER_CAP = 4096
DEFAULT_CLOSURE_CAP = 20000


class SnapFailure(ValueError):
    """A quantity that should have been a (non-negative) integer was not."""


@dataclass(frozen=True)
class Settings:
    """Numeric tolerance and search caps, passed explicitly to every computation.

    eps is the absolute entrywise tolerance for all approximate
    comparisons, order_cap the largest t order searched for and
    closure_cap the largest matrix group enumerated.
    """

    eps: float = DEFAULT_EPS
    order_cap: int = DEFAULT_ORDER_CAP
    closure_cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        if not 0.0 < self.eps < 1e-3:
            raise ValueError(f"tolerance eps must lie in (0, 1e-3), got {self.eps!r}")
        if self.order_cap < 1:
            raise ValueError("order cap must be positive")
        if self.closure_cap < 1:
            raise ValueError("closure cap must be positive")


DEFAULT_SETTINGS = Settings()


def as_matrix(entries) -> ComplexMatrix:
    """Copy nested lists or an array to an owned square complex128 matrix."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(a: ComplexMatrix) -> float:
    """Largest entry magnitude; 0.0 for empty matrices."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def clean(a: ComplexMatrix, settings: Settings = DEFAULT_SETTINGS) -> ComplexMatrix:
    """Copy with sub-tolerance entries zeroed.

    Rank computations here always see matrices whose honest entries are
    of order one, so anything below tolerance is floating point noise
    and must not produce pivots.
    """
    out = np.array(a, dtype=np.complex128)
    if out.size:
        out[np.abs(out) <= settings.eps] = 0
    return out


def mat_pow(a: ComplexMatrix, n: int) -> ComplexMatrix:
    """Non-negative matrix power by repeated squaring."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n < 0:
        raise ValueError("exponent must be non-negative")
    result = np.eye(a.shape[0], dtype=np.complex128)
    base = a
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


def is_identity(a: ComplexMatrix, settings: Settings = DEFAULT_SETTINGS) -> bool:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return max_abs(a - np.eye(a.shape[0], dtype=np.complex128)) <= settings.eps


def row_reduce(a: ComplexMatrix, settings: Settings = DEFAULT_SETTINGS):
    """Row echelon form with partial pivoting.

    Returns (reduced, pivot_columns).  The pivot threshold is the
    tolerance scaled by the largest entry magnitude of the input, so an
    exactly-zero matrix has no pivots.
    """
    m = np.array(a, dtype=np.complex128)
    pivots: list[int] = []
    if m.size == 0:
        return m, pivots
    threshold = settings.eps * max_abs(m)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[p, c]) <= threshold:
            continue
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        r += 1
        pivots.append(c)
    return m, pivots


def rank(a: ComplexMatrix, settings: Settings = DEFAULT_SETTINGS) -> int:
    _, pivots = row_reduce(a, settings)
    return len(pivots)


def snap_integer(x: float, settings: Settings = DEFAULT_SETTINGS) -> int:
    """Round to the nearest integer, failing hard when x is not close to one."""
    eps = settings.eps
    n = round(float(x))
    if abs(float(x) - n) > eps:
        raise SnapFailure(f"{x!r} is not within {eps} of an integer")
    return int(n)
