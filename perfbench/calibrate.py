"""A fixed calibration kernel that measures how fast the machine runs right now.

The 2-vCPU machine this benchmark was tuned on alternates between a
fast and a slow state, about 1.4 to 1.9 times apart, for stretches of a
few seconds up to a whole run, with no other process of its own running
(the cause is outside the container).  A wall time read in the slow
state is not comparable with one read in the fast state, and a median
over ten runs moves with the share of slow stretches they happened to
meet.

The kernel does a fixed amount of the two kinds of work vvmf does (small
dense complex products through BLAS and a pure-Python complex loop) and
uses no vvmf code, so a change to vvmf cannot move it.  The benchmark
reads the kernel time before, between and after the steps of every timed
operation and divides each stretch of wall time by the mean of the two
kernel times around it, scaled by REFERENCE_MS, the kernel's time on
that machine in its fast state.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

REFERENCE_MS = 1.0

_SIZE = 32
_PRODUCTS = 60
_LOOP = 6000
_ROOTS = [cmath.exp(2j * math.pi * k / 97) for k in range(97)]


def _matrix() -> np.ndarray:
    rng = np.random.default_rng(12)
    z = rng.standard_normal((_SIZE, _SIZE)) + 1j * rng.standard_normal((_SIZE, _SIZE))
    q, _ = np.linalg.qr(z)
    return q


_A = _matrix()


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    p = np.eye(_SIZE, dtype=np.complex128)
    for _ in range(_PRODUCTS):
        p = p @ _A
    acc = 0j
    for k in range(_LOOP):
        acc += _ROOTS[(k * 7) % 97]
    return time.perf_counter() - start


def machine_seconds() -> float:
    """The faster of two kernel passes, so that one stall does not count."""
    return min(kernel_seconds(), kernel_seconds())


def reference_scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two kernel reads into reference time."""
    return REFERENCE_MS / (1e3 * (before + after) / 2)


# A step running longer than this is followed by a fresh kernel read;
# shorter ones share the reads around them.
RECALIBRATE_S = 0.05


def timed(steps):
    """(reference seconds, wall seconds, exception) of running steps in order.

    The kernel is read before the first step, after any stretch of steps
    longer than RECALIBRATE_S and after the last, so that a step lasting
    seconds is scaled by the machine state during that step and not by
    one read seconds earlier.  A step that raises ends the operation; its
    time to failure counts.
    """
    ref = wall = pending = 0.0
    error = None
    before = machine_seconds()
    for i, step in enumerate(steps):
        start = time.perf_counter()
        try:
            step()
        except Exception as exc:  # the caller counts it as a failed operation
            error = exc
        elapsed = time.perf_counter() - start
        wall += elapsed
        pending += elapsed
        if pending >= RECALIBRATE_S or error is not None or i == len(steps) - 1:
            after = machine_seconds()
            ref += pending * reference_scale(before, after)
            before, pending = after, 0.0
        if error is not None:
            break
    return ref, wall, error
