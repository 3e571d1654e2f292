"""Special functions for the fading and device-count statistics.

The exponentially scaled modified Bessel I0, the first-order Marcum
Q-function, the Rician magnitude PDF/CCDF, and the Poisson inverse moment
E[1/K; K >= 1], which the paper's MSE variants put on the whole bracket and
the "conditional" variant on the noise term only.

All functions accept scalars or numpy arrays and are pure.
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
    "rician_ccdf",
    "poisson_inverse_moment",
]

# Power series below this argument, asymptotic expansion above.  At x = 30
# the asymptotic series bottoms out near e^{-2x} ~ 1e-26, far below the
# 1e-10 accuracy target, and the series still cannot overflow.
_I0_CUTOFF = 30.0


def _i0_series(x: np.ndarray) -> np.ndarray:
    """I0 by its power series sum_m (x/2)^{2m} / (m!)^2."""
    t = 0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for m in range(1, 80):
        term = term * t / (m * m)
        acc = acc + term
        if np.all(term <= 1e-18 * acc):
            break
    return acc


def _i0e_asymptotic(x: np.ndarray) -> np.ndarray:
    """e^{-x} I0(x) by the large-argument expansion, truncated at the
    smallest term."""
    acc = np.ones_like(x)
    term = np.ones_like(x)
    ak = 1.0
    for k in range(40):
        ak_next = ak * (2 * k + 1) ** 2 / (8.0 * (k + 1))
        new_term = term * (ak_next / ak) / x
        ak = ak_next
        if np.all(np.abs(new_term) >= np.abs(term)):
            break  # divergent tail reached
        term = new_term
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * acc):
            break
    return acc / np.sqrt(2.0 * np.pi * x)


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function e^{-x} I0(x), x >= 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("bessel_i0e requires x >= 0")
    small = x_arr <= _I0_CUTOFF
    out = np.empty_like(x_arr)
    if np.any(small):
        xs = x_arr[small]
        out[small] = np.exp(-xs) * _i0_series(xs)
    if np.any(~small):
        out[~small] = _i0e_asymptotic(x_arr[~small])
    return out if isinstance(x, np.ndarray) else float(out)


def marcum_q1(a: float, b):
    """First-order Marcum Q-function Q1(a, b), clamped to [0, 1].

    Evaluated by the canonical mixture series: Poisson(a^2/2) weights times
    regularized upper incomplete gamma factors Q(n+1, b^2/2), both by stable
    upward recurrences.  b may be an array.
    """
    if a < 0:
        raise ValueError("marcum_q1 requires a >= 0")
    b_arr = np.asarray(b, dtype=float)
    if np.any(b_arr < 0):
        raise ValueError("marcum_q1 requires b >= 0")

    y = 0.5 * b_arr * b_arr
    if a == 0:
        out = np.exp(-y)
        return out if isinstance(b, np.ndarray) else float(out)

    x = 0.5 * a * a
    w = math.exp(-x)          # Poisson weight e^{-x} x^n / n!
    cum_w = w
    p = np.exp(-y)            # gamma term e^{-y} y^n / n!
    gup = np.exp(-y)          # Q(n+1, y) = sum_{k<=n} e^{-y} y^k / k!
    acc = w * gup
    n = 0
    n_max = int(x + 12.0 * math.sqrt(x) + 60.0)
    while n < n_max and 1.0 - cum_w > 1e-17:
        n += 1
        w *= x / n
        cum_w += w
        p = p * y / n
        gup = gup + p
        acc = acc + w * gup
    # the truncated Poisson tail contributes at most (1 - cum_w) <= 1e-17
    out = np.clip(acc, 0.0, 1.0)
    out = np.where(y == 0.0, 1.0, out)  # Q1(a, 0) = 1 exactly
    return out if isinstance(b, np.ndarray) else float(out)


@dataclass(frozen=True)
class RicianParams:
    """Derived Rician fading constants with unit second moment c^2 + 2 sigma^2 = 1."""

    b_factor: float
    c: float
    sigma: float

    @classmethod
    def from_b_factor(cls, b_factor: float) -> "RicianParams":
        if not (b_factor >= 0 and math.isfinite(b_factor)):
            raise ValueError(f"Rician factor must be finite and >= 0, got {b_factor}")
        c = math.sqrt(b_factor / (b_factor + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (b_factor + 1.0)))
        return cls(b_factor=b_factor, c=c, sigma=sigma)

    def __post_init__(self):
        if self.sigma <= 0 or self.c < 0:
            raise ValueError("require c >= 0 and sigma > 0")
        if abs(self.c ** 2 + 2.0 * self.sigma ** 2 - 1.0) > 1e-12:
            raise ValueError("RicianParams violate c^2 + 2 sigma^2 = 1")


def rician_pdf(v, rp: RicianParams):
    """Density of the fading magnitude |h| at v >= 0.

    (v / sigma^2) exp(-(v^2 + c^2) / (2 sigma^2)) I0(v c / sigma^2),
    evaluated through the scaled Bessel form so large Rician factors cannot
    overflow.
    """
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("rician_pdf requires v >= 0")
    s2 = rp.sigma ** 2
    z = v_arr * rp.c / s2
    # exp(-(v^2+c^2)/(2 s2)) I0(z) = exp(-(v-c)^2/(2 s2)) * e^{-z} I0(z)
    out = (v_arr / s2) * np.exp(-((v_arr - rp.c) ** 2) / (2.0 * s2)) \
        * np.asarray(bessel_i0e(z))
    return out if isinstance(v, np.ndarray) else float(out)


def rician_ccdf(v, rp: RicianParams):
    """P(|h| > v) = Q1(c / sigma, v / sigma)."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("rician_ccdf requires v >= 0")
    out = marcum_q1(rp.c / rp.sigma, v_arr / rp.sigma)
    return out if isinstance(v, np.ndarray) else float(out)


def poisson_inverse_moment(x: float) -> float:
    """E[1/K; K >= 1] for K ~ Poisson(x): e^{-x} sum_{m>=1} x^m / (m * m!)."""
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
    # very large x: sum Poisson masses outward from the mode to avoid overflow
    mode = int(x)
    log_pmode = mode * math.log(x) - x - math.lgamma(mode + 1)
    acc = 0.0
    p = math.exp(log_pmode)
    m = mode
    while m >= 1:  # downward
        acc += p / m
        p *= m / x
        m -= 1
        if p < 1e-20 * acc * max(m, 1):
            break
    p = math.exp(log_pmode)
    m = mode
    while True:  # upward
        m += 1
        p *= x / m
        acc += p / m
        if p / m < 1e-20 * acc:
            break
    return acc
