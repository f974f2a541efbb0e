"""Integer invariants controlling all dimension formulas.

Two kinds of data are extracted from each parity part: the eigenvalue
multiplicities of the torsion generator images (the signature, which
also fixes the exact trace of the logarithm of the t image) and the t
eigenphases, whole numbers of n-ths of the t order n; lambda+ is the
part's own log trace less its phase sum.  An odd part is read through
its even partner.  Everything else is arithmetic on these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_SETTINGS, Settings, SnapFailure, nullity, snap_integer
from .modrep import (
    _KAPPA_POWERS,
    ModularRepresentation,
    ParityDecomposition,
    _t_spectrum,
)

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Signature:
    """Eigenvalue multiplicities of the order-four and order-three images.

    alpha counts the eigenvalue -1 of the s image; beta1 and beta2 count
    the primitive cube roots of unity (positive imaginary part first)
    of the s t^-1 image.  On an even representation s t^-1 is conjugate
    to (st)^-1, so they are read off the trace of st.
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


def t_eigenphases(rep: ModularRepresentation,
                  settings: Settings = DEFAULT_SETTINGS) -> tuple[Fraction, ...]:
    """Eigenvalue phases of the t image as exact fractions in [0, 1), sorted.

    They come from the cycles of a monomial t or one eigenvalue solve,
    rationalised with denominators up to the order cap of the settings
    and certified against the order of the image; see modrep for the checks.
    """
    n, numerators = _t_spectrum(rep, settings)
    return tuple(Fraction(a, n) for a in numerators)


def _signature_from_traces(d: int, tr_s: complex, tr_st: complex,
                           settings: Settings) -> Signature:
    """Signature of a purely even representation of degree d from tr s and tr st.

    There s^2 = 1, so s t^-1 = s (st)^-1 s^-1 has trace conj(tr st): the
    eigenvalues of st are cube roots of unity.
    """
    alpha = snap_integer((d - tr_s.real) / 2, settings)
    beta_sum = snap_integer(2 * (d - tr_st.real) / 3, settings)
    beta_diff = snap_integer(-2 * tr_st.imag / _SQRT3, settings)
    if (beta_sum + beta_diff) % 2:
        raise SnapFailure(f"cube root multiplicities {beta_sum}, {beta_diff} have mixed parity")
    return Signature(d, alpha, (beta_sum + beta_diff) // 2, (beta_sum - beta_diff) // 2)


@dataclass(frozen=True)
class PartInvariants:
    """Everything the dimension formulas consume for one parity part.

    An odd part is read off its even partner, the tensor with the
    inverse character: sig and phases (the t eigenphases, sorted in
    [0, 1)) belong to the partner, which is never built: its traces and
    phases are the part's, moved by the character.  sig.trace_lambda is
    the exact trace of the partner's log t, and the part's own is d/12
    more.  lambda+ and lambda- are the sums of floor(x) and of ceil(x) - 1
    over the part's own log eigenvalues x.  h0, the dimension of the
    invariant vectors, is None for an odd part.  _spectrum is the part's
    own t order n and eigenphase numerators over n, from which phases is
    built on demand.
    """

    parity: int
    sig: Signature
    lambda_plus: int
    lambda_minus: int
    h0: int | None
    gamma_base: tuple[int, int, int, int, int, int]
    _spectrum: tuple[int, tuple[int, ...]]

    @property
    def phases(self) -> tuple[Fraction, ...]:
        # The partner's phases, m/n - 1/12 mod 1 for an odd part, in 12n-ths.
        n, numerators = self._spectrum
        shift = n if self.parity == -1 else 0
        return tuple(Fraction(x, 12 * n) for x in sorted((12 * m - shift) % (12 * n)
                                                         for m in numerators))

    def gamma(self, k: int) -> int:
        """Degree-six quasi-period: gamma(k + 6) = gamma(k) + d."""
        return self.gamma_base[k % 6] + self.sig.d * (k // 6)


def part_invariants(split: ParityDecomposition, odd: bool,
                    settings: Settings = DEFAULT_SETTINGS) -> PartInvariants:
    """Extract all invariants of the odd or the even part of a parity split.

    The split has settled the part's parity, so it is not tested again.
    """
    part = split.odd_part if odd else split.even_part
    n, numerators = _t_spectrum(part, settings)
    s, t = part.s_image, part.t_image
    # tr st is the sum of s_ij t_ji, which needs no product.
    tr_s, tr_st = complex(np.trace(s)), complex(np.einsum("ij,ji->", s, t))
    if odd:
        # The even partner's s, st and t are the part's times kappa^-1(s),
        # kappa^-1(s) kappa^-1(t) = e(1/6) and e(-1/12); only traces are read.
        ks, kt = _KAPPA_POWERS[11]
        tr_s, tr_st = ks * tr_s, ks * kt * tr_st
    sig = _signature_from_traces(part.degree, tr_s, tr_st, settings)
    h0 = None if odd else _h0(part, sig.alpha, settings)
    d, a, b1, b2 = sig.d, sig.alpha, sig.beta1, sig.beta2
    lambda_plus, lambda_minus = _lambdas(n, numerators, sig.trace_lambda + Fraction(odd * d, 12))
    return PartInvariants(-1 if odd else 1, sig, lambda_plus, lambda_minus, h0,
                          (0, a + b1 + b2 - d, b2, a, b1 + b2, a + b2), (n, numerators))


def _lambdas(n: int, numerators: tuple[int, ...], log_trace: Fraction) -> tuple[int, int]:
    """lambda+ and lambda-: the sums of floor(x) and of ceil(x) - 1 over the
    log eigenvalues x of the t image, whose phases are the numerators over
    n in [0, 1) and whose sum is log_trace.

    Each x is its phase plus an integer, so floor(x) is x less its phase,
    and ceil(x) - 1 is one less again where the phase is 0.  The log trace
    less the phase sum is an integer whenever both belong to the same
    representation; a fractional value means corrupted input.
    """
    lambda_plus = log_trace - Fraction(sum(numerators), n)
    if lambda_plus.denominator != 1:
        raise SnapFailure(f"log trace differs from phase sum by the non-integer {lambda_plus}")
    return int(lambda_plus), int(lambda_plus) - numerators.count(0)


def _h0(rep: ModularRepresentation, alpha: int, settings: Settings) -> int:
    """Dimension of the vectors fixed by s and t, for an even rep.

    Since s^2 = 1, s + 1 kills exactly the alpha-dimensional -1
    eigenspace of s and maps onto its fixed space, so (t - 1)(s + 1) has
    nullity alpha + h0.
    """
    eye = np.eye(rep.degree)
    h0 = nullity((rep.t_image - eye) @ (rep.s_image + eye), settings) - alpha
    if h0 < 0:
        raise SnapFailure(f"h0 comes out as {h0}: (t - 1)(s + 1) has a smaller null space "
                          f"than the {alpha}-dimensional -1 eigenspace of s")
    return h0
