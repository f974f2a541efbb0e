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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure, nullity, snap_integer
from .modrep import (
    _KAPPA_POWERS,
    ModularRepresentation,
    ParityDecomposition,
    ParityError,
    _t_spectrum,
    parity,
    st_inverse_image,
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
    # The phases over their common denominator with the log trace, and the
    # log trace minus the phase sum over it: the integers every floor
    # trace reads, derived once.
    _denominator: int = field(init=False, repr=False, compare=False)
    _numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _gap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = math.lcm(self.trace_lambda.denominator, *(p.denominator for p in self.phases))
        numerators = tuple(p.numerator * (m // p.denominator) for p in self.phases)
        assert all(0 <= x < m for x in numerators)
        assert list(numerators) == sorted(numerators)
        object.__setattr__(self, "_denominator", m)
        object.__setattr__(self, "_numerators", numerators)
        trace = self.trace_lambda.numerator * (m // self.trace_lambda.denominator)
        object.__setattr__(self, "_gap", trace - sum(numerators))

    @property
    def degree(self) -> int:
        return len(self.phases)

    def integer_offset(self) -> int:
        """Difference between the log trace and the phase sum.

        The log eigenvalues are the phases shifted by integers, so this
        is an integer whenever signature and phases belong to the same
        representation.  A fractional value means corrupted input.
        """
        if self._gap % self._denominator:
            raise SnapFailure(f"log trace differs from phase sum by the non-integer "
                              f"{Fraction(self._gap, self._denominator)}")
        return self._gap // self._denominator


def floor_trace(exp: ExponentData, shift=0) -> int:
    """Sum of floor(log eigenvalue + shift) over all eigenvalues.

    Exact integer arithmetic over the common denominator m of the phases:
    with shift = a/b, floor(x/m + a/b) = (b x + a m) // (b m).  The floors
    only see the fractional phases, and the integer parts contribute the
    integer offset.
    """
    s, m = Fraction(shift), exp._denominator
    b, am, bm = s.denominator, s.numerator * m, s.denominator * m
    return exp.integer_offset() + sum((b * x + am) // bm for x in exp._numerators)


def floor_trace_complement(exp: ExponentData, shift=1) -> int:
    """Sum of floor(shift - log eigenvalue) over all eigenvalues."""
    s, m = Fraction(shift), exp._denominator
    b, am, bm = s.denominator, s.numerator * m, s.denominator * m
    return -exp.integer_offset() + sum((am - b * x) // bm for x in exp._numerators)


def t_eigenphases(rep: ModularRepresentation,
                  settings: Settings = DEFAULT_SETTINGS) -> tuple[Fraction, ...]:
    """Eigenvalue phases of the t image as exact fractions in [0, 1), sorted.

    They come from the cycles of a monomial t or one eigenvalue solve,
    rationalised with denominators up to the order cap of the settings
    and certified against the order of the image; see modrep for the checks.
    """
    return _t_spectrum(rep, settings)[1]


def signature(rep: ModularRepresentation, settings: Settings = DEFAULT_SETTINGS) -> Signature:
    """Signature of a purely even representation, recovered from traces."""
    if parity(rep, settings) != 1:
        raise ParityError("signature needs a purely even representation")
    return _signature_from_traces(rep.degree, complex(np.trace(rep.s_image)),
                                  complex(np.trace(st_inverse_image(rep))), settings)


def _signature_from_traces(d: int, tr_s: complex, tr_u: complex,
                           settings: Settings) -> Signature:
    """Signature of a purely even representation of degree d from tr s and tr s t^-1."""
    alpha = snap_integer((d - tr_s.real) / 2, settings)
    beta_sum = snap_integer(2 * (d - tr_u.real) / 3, settings)
    beta_diff = snap_integer(2 * tr_u.imag / _SQRT3, settings)
    if (beta_sum + beta_diff) % 2:
        raise SnapFailure(f"cube root multiplicities {beta_sum}, {beta_diff} have mixed parity")
    return Signature(d, alpha, (beta_sum + beta_diff) // 2, (beta_sum - beta_diff) // 2)


@dataclass(frozen=True)
class PartInvariants:
    """Everything the dimension formulas consume for one parity part.

    An odd part is read off its even partner, the tensor with the
    inverse character: sig and exp belong to the partner, and its floor
    traces are taken at the shifts 1/12 and 11/12 because the character
    moves every eigenphase by one twelfth.  The partner is never built:
    its traces and phases are the part's, moved by the character.  h0,
    the dimension of the invariant vectors, is None for an odd part.
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


def part_invariants(split: ParityDecomposition, odd: bool,
                    settings: Settings = DEFAULT_SETTINGS) -> PartInvariants:
    """Extract all invariants of the odd or the even part of a parity split.

    The split has settled the part's parity, so it is not tested again.
    """
    part = split.odd_part if odd else split.even_part
    phases = t_eigenphases(part, settings)
    u = st_inverse_image(part)
    tr_s, tr_u = complex(np.trace(part.s_image)), complex(np.trace(u))
    shift = Fraction(1 if odd else 0, 12)
    if odd:
        # The even partner's s, u = (t s)^2 and t are the part's times
        # kappa^-1(s), (kappa^-1(s) kappa^-1(t))^2 and e(-1/12); only traces are read.
        ks, kt = _KAPPA_POWERS[11]
        tr_s, tr_u = ks * tr_s, (ks * kt) ** 2 * tr_u
        phases = tuple(sorted((x - shift) % 1 for x in phases))
    sig = _signature_from_traces(part.degree, tr_s, tr_u, settings)
    h0 = None if odd else _h0(part, u, sig.alpha, settings)
    exp = ExponentData(phases, sig.trace_lambda)
    d, a, b1, b2 = sig.d, sig.alpha, sig.beta1, sig.beta2
    return PartInvariants(-1 if odd else 1, sig, exp, floor_trace(exp, shift),
                          -floor_trace_complement(exp, 1 - shift), h0,
                          (0, a + b1 + b2 - d, b2, a, b1 + b2, a + b2))


def _h0(rep: ModularRepresentation, u: np.ndarray, alpha: int, settings: Settings) -> int:
    """Dimension of the vectors fixed by s and t, for an even rep with u = s t^-1.

    A vector fixed by s and u is fixed by t = u^-1 s.  Since s^2 = 1,
    s + 1 kills exactly the alpha-dimensional -1 eigenspace of s and
    maps onto its fixed space, so (u - 1)(s + 1) has nullity alpha + h0.
    """
    eye = np.eye(rep.degree)
    h0 = nullity((u - eye) @ (rep.s_image + eye), settings) - alpha
    if h0 < 0:
        raise SnapFailure(f"h0 comes out as {h0}: (u - 1)(s + 1) has a smaller null space "
                          f"than the {alpha}-dimensional -1 eigenspace of s")
    return h0
