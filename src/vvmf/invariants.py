"""Integer invariants controlling all dimension formulas.

Two kinds of data are extracted from a purely even representation: the
eigenvalue multiplicities of the torsion generator images (the
signature) and the multiset of eigenvalue phases of the t image
together with an exact trace (the exponent data).  Everything else in
the package is arithmetic on these integers and rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure, nullspace, snap_integer
from .modrep import (
    ModularRepresentation,
    ParityError,
    _t_spectrum,
    parity,
    st_inverse_image,
    tensor_kappa,
)

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Signature:
    """Eigenvalue multiplicities of the order-four and order-three images.

    alpha counts the eigenvalue -1 of the s image; beta1 and beta2 count
    the primitive cube roots of unity (positive imaginary part first)
    of the s t^-1 image.
    """

    d: int
    alpha: int
    beta1: int
    beta2: int

    def __post_init__(self):
        ok = (0 <= self.alpha <= self.d and self.beta1 >= 0 and self.beta2 >= 0
              and self.beta1 + self.beta2 <= self.d)
        if not ok:
            raise ValueError(f"multiplicities out of range: {self}")

    @property
    def trace_lambda(self) -> Fraction:
        """Exact trace of the canonical logarithm of the t image.

        Each eigenvalue phase is pinned to [0, 1) except that the two
        torsion images fix the fractional parts on their eigenspaces,
        which is what the alpha/2 and (beta1 + 2 beta2)/3 corrections
        encode.
        """
        return Fraction(self.d) - Fraction(self.alpha, 2) - Fraction(self.beta1 + 2 * self.beta2, 3)


@dataclass(frozen=True)
class ExponentData:
    """Eigenphase multiset of the t image plus the exact log trace.

    phases are fractions in [0, 1), one per dimension, sorted.  The sum
    of the floors of the shifted log eigenvalues depends only on this
    data, which is why the log matrix itself is never materialized.
    """

    phases: tuple[Fraction, ...]
    trace_lambda: Fraction

    def __post_init__(self):
        assert all(0 <= x < 1 for x in self.phases)
        assert list(self.phases) == sorted(self.phases)

    @property
    def degree(self) -> int:
        return len(self.phases)

    def integer_offset(self) -> int:
        """Difference between the log trace and the phase sum.

        The log eigenvalues are the phases shifted by integers, so this
        is an integer whenever signature and phases belong to the same
        representation.  A fractional value means corrupted input.
        """
        gap = self.trace_lambda - sum(self.phases, Fraction(0))
        if gap.denominator != 1:
            raise SnapFailure(f"log trace differs from phase sum by the non-integer {gap}")
        return int(gap)


def floor_trace(exp: ExponentData, shift=0) -> int:
    """Sum of floor(log eigenvalue + shift) over all eigenvalues.

    Exact integer arithmetic: the floors only see the fractional phases,
    and the integer parts contribute the integer offset.
    """
    s = Fraction(shift)
    return exp.integer_offset() + sum(math.floor(x + s) for x in exp.phases)


def floor_trace_complement(exp: ExponentData, shift=1) -> int:
    """Sum of floor(shift - log eigenvalue) over all eigenvalues."""
    s = Fraction(shift)
    return -exp.integer_offset() + sum(math.floor(s - x) for x in exp.phases)


def t_eigenphases(rep: ModularRepresentation,
                  settings: Settings = DEFAULT_SETTINGS) -> tuple[Fraction, ...]:
    """Eigenvalue phases of the t image as exact fractions in [0, 1), sorted.

    They come from one eigenvalue solve, rationalised with denominators
    up to settings.order_cap and certified against the order of the
    image; see modrep for the checks.
    """
    return _t_spectrum(rep, settings.order_cap, settings)[1]


def signature(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> Signature:
    """Signature of a purely even representation, recovered from traces."""
    if parity(rep, settings) != 1:
        raise ParityError("signature needs a purely even representation")
    d = rep.degree
    tr_s = complex(np.trace(rep.s_image))
    alpha = snap_integer((d - tr_s.real) / 2, settings)
    tr_u = complex(np.trace(st_inverse_image(rep)))
    beta_sum = snap_integer(2 * (d - tr_u.real) / 3, settings)
    beta_diff = snap_integer(2 * tr_u.imag / _SQRT3, settings)
    if (beta_sum + beta_diff) % 2:
        raise SnapFailure(f"cube root multiplicities {beta_sum}, {beta_diff} have mixed parity")
    return Signature(d, alpha, (beta_sum + beta_diff) // 2, (beta_sum - beta_diff) // 2)


_TWIST_TABLE = (
    lambda d, a, b1, b2: (a, b1, b2),
    lambda d, a, b1, b2: (d - a, b2, d - b1 - b2),
    lambda d, a, b1, b2: (a, d - b1 - b2, b1),
    lambda d, a, b1, b2: (d - a, b1, b2),
    lambda d, a, b1, b2: (a, b2, d - b1 - b2),
    lambda d, a, b1, b2: (d - a, d - b1 - b2, b1),
)


def signature_of_twist(sig: Signature, k: int) -> Signature:
    """Signature after tensoring with the (-2k)-th character power.

    Only k mod 6 matters because the twelfth character power is trivial
    and even twists preserve parity.
    """
    a, b1, b2 = _TWIST_TABLE[k % 6](sig.d, sig.alpha, sig.beta1, sig.beta2)
    return Signature(sig.d, a, b1, b2)


@dataclass(frozen=True)
class EvenInvariants:
    """Everything the even-weight dimension formulas consume."""

    sig: Signature
    exp: ExponentData
    lambda_plus: int
    lambda_minus: int
    h0: int
    gamma_base: tuple[int, int, int, int, int, int]

    def gamma(self, k: int) -> int:
        """Degree-six quasi-period: gamma(k + 6) = gamma(k) + d."""
        return self.gamma_base[k % 6] + self.sig.d * (k // 6)


@dataclass(frozen=True)
class OddInvariants:
    """Invariants of an odd representation, read off its even partner.

    The partner is the tensor with the inverse character; its floor
    traces are taken at the shifts 1/12 and 11/12 because the character
    moves every eigenphase by one twelfth.
    """

    dot_sig: Signature
    dot_exp: ExponentData
    dot_lambda_plus: int
    dot_lambda_minus: int
    gamma_base: tuple[int, int, int, int, int, int]

    def dot_gamma(self, k: int) -> int:
        return self.gamma_base[k % 6] + self.dot_sig.d * (k // 6)


def _gamma_base(sig: Signature) -> tuple[int, int, int, int, int, int]:
    d, a, b1, b2 = sig.d, sig.alpha, sig.beta1, sig.beta2
    return (0, a + b1 + b2 - d, b2, a, b1 + b2, a + b2)


def even_invariants(rep: ModularRepresentation,
                    settings: Settings = DEFAULT_SETTINGS) -> EvenInvariants:
    """Extract all even-weight invariants at once."""
    if parity(rep, settings) != 1:
        raise ParityError("even invariants need a purely even representation")
    phases = t_eigenphases(rep, settings)
    sig = signature(rep, settings)
    exp = ExponentData(phases, sig.trace_lambda)
    lam_plus = floor_trace(exp, 0)
    lam_minus = -floor_trace_complement(exp, 1)
    eye = np.eye(rep.degree, dtype=np.complex128)
    h0 = nullspace(np.vstack([rep.s_image - eye, rep.t_image - eye]), settings).shape[1]
    return EvenInvariants(sig, exp, lam_plus, lam_minus, h0, _gamma_base(sig))


def odd_invariants(rep: ModularRepresentation,
                   settings: Settings = DEFAULT_SETTINGS) -> OddInvariants:
    """Extract all odd-weight invariants via the even partner."""
    if parity(rep, settings) != -1:
        raise ParityError("odd invariants need a purely odd representation")
    partner = tensor_kappa(rep, -1)
    phases = t_eigenphases(partner, settings)
    sig = signature(partner, settings)
    exp = ExponentData(phases, sig.trace_lambda)
    lam_plus = floor_trace(exp, Fraction(1, 12))
    lam_minus = -floor_trace_complement(exp, Fraction(11, 12))
    return OddInvariants(sig, exp, lam_plus, lam_minus, _gamma_base(sig))
