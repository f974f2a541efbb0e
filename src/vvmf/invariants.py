"""Integer invariants controlling all dimension formulas.

Two kinds of data are extracted from a purely even representation: the
eigenvalue multiplicities of the torsion generator images (the
signature) and the multiset of eigenvalue phases of the t image
together with an exact trace (the exponent data).  A purely odd
representation is read through its even partner.  Everything else in
the package is arithmetic on these integers and rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure, nullity, snap_integer
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
        m, numerators, trace = _over_common_denominator(self, self.trace_lambda)
        gap = trace - sum(numerators)
        if gap % m:
            raise SnapFailure(
                f"log trace differs from phase sum by the non-integer {Fraction(gap, m)}")
        return gap // m


def _over_common_denominator(exp: ExponentData, x: Fraction) -> tuple[int, list[int], int]:
    """A common denominator m of the phases and x, the phase numerators over m, and m * x."""
    m = math.lcm(x.denominator, *(p.denominator for p in exp.phases))
    numerators = [p.numerator * (m // p.denominator) for p in exp.phases]
    return m, numerators, x.numerator * (m // x.denominator)


def floor_trace(exp: ExponentData, shift=0) -> int:
    """Sum of floor(log eigenvalue + shift) over all eigenvalues.

    Exact integer arithmetic over a common denominator: the floors only
    see the fractional phases, and the integer parts contribute the
    integer offset.
    """
    m, numerators, s = _over_common_denominator(exp, Fraction(shift))
    return exp.integer_offset() + sum((x + s) // m for x in numerators)


def floor_trace_complement(exp: ExponentData, shift=1) -> int:
    """Sum of floor(shift - log eigenvalue) over all eigenvalues."""
    m, numerators, s = _over_common_denominator(exp, Fraction(shift))
    return -exp.integer_offset() + sum((s - x) // m for x in numerators)


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
class PartInvariants:
    """Everything the dimension formulas consume for one parity part.

    An odd part is read off its even partner, the tensor with the
    inverse character: sig and exp belong to the partner, and its floor
    traces are taken at the shifts 1/12 and 11/12 because the character
    moves every eigenphase by one twelfth.  The partner's phases are the
    part's certified phases moved back by that twelfth.  h0, the
    dimension of the invariant vectors, is None for an odd part.
    """

    parity: int
    sig: Signature
    exp: ExponentData
    lambda_plus: int
    lambda_minus: int
    h0: int | None
    gamma_base: tuple[int, int, int, int, int, int]

    def gamma(self, k: int) -> int:
        """Degree-six quasi-period: gamma(k + 6) = gamma(k) + d."""
        return self.gamma_base[k % 6] + self.sig.d * (k // 6)


def part_invariants(part: ModularRepresentation,
                    settings: Settings = DEFAULT_SETTINGS) -> PartInvariants:
    """Extract all invariants of a purely even or purely odd representation."""
    sign = parity(part, settings)
    if sign == 0:
        raise ParityError("invariants need a purely even or purely odd representation")
    phases = t_eigenphases(part, settings)
    h0 = None
    if sign == 1:
        even, shift = part, Fraction(0)
        eye = np.eye(part.degree)
        h0 = nullity(np.vstack([part.s_image - eye, part.t_image - eye]), settings)
    else:
        # The partner's t is e(-1/12) times the certified t of the part.
        even, shift = tensor_kappa(part, -1), Fraction(1, 12)
        phases = tuple(sorted((x - shift) % 1 for x in phases))
    sig = signature(even, settings)
    exp = ExponentData(phases, sig.trace_lambda)
    d, a, b1, b2 = sig.d, sig.alpha, sig.beta1, sig.beta2
    return PartInvariants(sign, sig, exp, floor_trace(exp, shift),
                          -floor_trace_complement(exp, 1 - shift), h0,
                          (0, a + b1 + b2 - d, b2, a, b1 + b2, a + b2))
