"""Special functions for the fading and device-count statistics.

The exponentially scaled modified Bessel I0, the first-order Marcum
Q-function, the Rician magnitude PDF, and the Poisson inverse moment
E[1/K; K >= 1], which the paper's MSE variants put on the whole bracket and
the "conditional" variant on the noise term only.

The two kernels under every analytic MSE panel cost a fixed number of numpy
calls whatever the argument values (per block of 128 points for the Marcum
function): I0 is Cephes' Chebyshev form, and the Marcum series is evaluated
for all of its terms at once as array operations.

All functions are pure.  bessel_i0e, marcum_q1 (in b) and rician_pdf
accept a scalar, which gives a float, or a numpy array, which gives an array
of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RicianParams",
    "bessel_i0e",
    "marcum_q1",
    "rician_pdf",
    "poisson_inverse_moment",
]

# Cephes i0e (Moshier, "Methods and Programs for Mathematical Functions",
# 1989): Chebyshev coefficients of e^{-x} I0(x) in y = x/2 - 2 for
# 0 <= x <= 8, and of sqrt(x) e^{-x} I0(x) in y = 32/x - 2 for x > 8, highest
# order first, in the form the Clenshaw recurrence of _chbevl consumes.
_I0E_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I0E_SPLIT = 8.0

# marcum_q1 evaluates its (terms x points) gamma table this many points of b
# at a time, so its temporaries stay bounded whatever the array size.
_MARCUM_BLOCK = 128


def _chbevl(y: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Cephes chbevl: sum_k' coeffs[k] T_k(y / 2) by the Clenshaw recurrence."""
    b0 = coeffs[0]
    b1 = b2 = 0.0
    for c in coeffs[1:]:
        b2 = b1
        b1 = b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function e^{-x} I0(x), x >= 0.

    Cephes i0e: a 30-term Chebyshev series on [0, 8] and a 25-term one in
    1/x above, each evaluated only where it has points, so the cost is fixed
    per call and per point.  Raises ValueError if any x is negative.
    """
    x_arr = np.asarray(x, dtype=float)
    if (x_arr < 0).any():
        raise ValueError("bessel_i0e requires x >= 0")
    out = np.empty_like(x_arr)
    small = x_arr <= _I0E_SPLIT
    if small.any():
        out[small] = _chbevl(0.5 * x_arr[small] - 2.0, _I0E_A)
    large = ~small
    if large.any():
        xl = x_arr[large]
        out[large] = _chbevl(32.0 / xl - 2.0, _I0E_B) / np.sqrt(xl)
    return out if isinstance(x, np.ndarray) else float(out)


def marcum_q1(a: float, b):
    """First-order Marcum Q-function Q1(a, b), clamped to [0, 1].

    Evaluated by the canonical mixture series
    sum_n Poisson(n; a^2/2) Q(n+1, b^2/2), with Q the regularized upper
    incomplete gamma function.  The Poisson weights come from a scalar upward
    recurrence; the gamma factors for all n and all b at once from a
    cumulative product of [e^{-y}, y/1, y/2, ...] (the terms e^{-y} y^n / n!)
    and its cumulative sum, taken over blocks of b.  b may be an array.
    Raises ValueError if a or any b is negative.
    """
    if a < 0:
        raise ValueError("marcum_q1 requires a >= 0")
    b_arr = np.asarray(b, dtype=float)
    if (b_arr < 0).any():
        raise ValueError("marcum_q1 requires b >= 0")

    y = 0.5 * b_arr * b_arr
    x = 0.5 * a * a
    w = math.exp(-x)          # Poisson weight e^{-x} x^n / n!
    cum_w = w
    weights = [w]
    n = 0
    n_max = int(x + 12.0 * math.sqrt(x) + 60.0)
    while n < n_max and 1.0 - cum_w > 1e-17:
        n += 1
        w *= x / n
        cum_w += w
        weights.append(w)
    # The dropped terms sum to at most the Poisson mass beyond n, since
    # Q(n+1, y) <= 1.  In floating point 1 - cum_w cannot fall below the
    # rounding of cum_w (about 1e-16), so the loop either runs to n_max,
    # 12 standard deviations and 60 terms past the Poisson mean, where that
    # mass is below 1e-30, or stops early once cum_w has rounded to 1, where
    # the mass is only bounded by cum_w's accumulated rounding error, about
    # (n + 1) 2^-53.  The bound is absolute: values of Q1 near or below 1e-14
    # can carry a large relative error.
    weights = np.array(weights)
    divisors = np.arange(1.0, n + 1.0)[:, None]

    flat_y = y.ravel()
    acc = np.empty_like(flat_y)
    for start in range(0, flat_y.size, _MARCUM_BLOCK):
        yb = flat_y[start:start + _MARCUM_BLOCK]
        gamma = np.empty((n + 1, yb.size))
        gamma[0] = np.exp(-yb)
        np.divide(yb, divisors, out=gamma[1:])
        np.cumprod(gamma, axis=0, out=gamma)  # e^{-y} y^n / n!
        np.cumsum(gamma, axis=0, out=gamma)   # Q(n+1, y)
        # a column sum, not weights @ gamma: BLAS may round a column
        # differently with the block's width
        gamma *= weights[:, None]
        acc[start:start + _MARCUM_BLOCK] = gamma.sum(axis=0)
    out = np.clip(acc.reshape(y.shape), 0.0, 1.0)
    out = np.where(y == 0.0, 1.0, out)  # Q1(a, 0) = 1 exactly
    return out if isinstance(b, np.ndarray) else float(out)


@dataclass(frozen=True)
class RicianParams:
    """Derived Rician fading constants with unit second moment c^2 + 2 sigma^2 = 1."""

    c: float
    sigma: float

    @classmethod
    def from_b_factor(cls, b_factor: float) -> "RicianParams":
        if not (b_factor >= 0 and math.isfinite(b_factor)):
            raise ValueError(f"Rician factor must be finite and >= 0, got {b_factor}")
        c = math.sqrt(b_factor / (b_factor + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (b_factor + 1.0)))
        return cls(c=c, sigma=sigma)

    def __post_init__(self):
        if self.sigma <= 0 or self.c < 0:
            raise ValueError("require c >= 0 and sigma > 0")
        if abs(self.c ** 2 + 2.0 * self.sigma ** 2 - 1.0) > 1e-12:
            raise ValueError("RicianParams violate c^2 + 2 sigma^2 = 1")


def rician_pdf(v, rp: RicianParams):
    """Density of the fading magnitude |h| at v >= 0.

    (v / sigma^2) exp(-(v^2 + c^2) / (2 sigma^2)) I0(v c / sigma^2),
    evaluated through the scaled Bessel form so large Rician factors cannot
    overflow.  Raises ValueError if any v is negative.
    """
    v_arr = np.asarray(v, dtype=float)
    if (v_arr < 0).any():
        raise ValueError("rician_pdf requires v >= 0")
    s2 = rp.sigma ** 2
    z = v_arr * rp.c / s2
    # exp(-(v^2+c^2)/(2 s2)) I0(z) = exp(-(v-c)^2/(2 s2)) * e^{-z} I0(z)
    out = (v_arr / s2) * np.exp(-((v_arr - rp.c) ** 2) / (2.0 * s2)) \
        * bessel_i0e(z)
    return out if isinstance(v, np.ndarray) else float(out)


def poisson_inverse_moment(x: float) -> float:
    """E[1/K; K >= 1] for K ~ Poisson(x): e^{-x} sum_{m>=1} x^m / (m * m!),
    which equals e^{-x} (Ei(x) - gamma - ln x).

    Up to x = 600 the convergent series is summed directly.  Above 600 the
    part e^{-x} (gamma + ln x) is below 1e-250 and is dropped, and e^{-x}
    Ei(x) is the asymptotic series sum_k k! / x^{k+1} (DLMF 6.12.2), cut
    once a term falls below 1e-17 of the sum (at most nine terms there).
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"poisson_inverse_moment requires x > 0, got {x}")
    if x <= 600.0:
        # direct convergent series, terms until relative term < 1e-16
        term = 1.0  # x^m / m!
        acc = 0.0
        m = 0
        while True:
            m += 1
            term *= x / m
            contrib = term / m
            acc += contrib
            if contrib < 1e-16 * acc and m > x:
                break
        return math.exp(-x) * acc
    term = acc = 1.0 / x
    k = 0
    while term > 1e-17 * acc:
        k += 1
        term *= k / x
        acc += term
    return acc
