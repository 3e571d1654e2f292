"""Empirical MSE estimation over sampled network realizations.

The per-realization MSE is the conditional expectation over symbols and
noise, so Monte Carlo variance comes only from the layout, the device count,
and the fading draws.  Iteration i always uses the random stream derived
from (seed, i); runs are therefore bit-identical regardless of worker count.

Realizations are processed in chunks (model.sample_ppp_chunks): each one is
still drawn from its own stream, in the same order, but the transform, the
inner-disc policy, the transmit powers and the amplitudes run once per
chunk of about model.CHUNK_DEVICES devices, so their per-call cost is not
paid per realization.  Each realization's sum stays a reduction over its own
slice, so every output equals the per-realization computation bit for bit,
wherever the chunks end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .analytical import rician_mean
from .model import MODES, NetworkParams, Realization, effective_devices, \
    sample_ppp_chunks, transmit_power
from .numerics import power_integral

__all__ = [
    "EmptyRealizationError",
    "MseEstimate",
    "CampbellReport",
    "realization_mse",
    "frozen_power_objective",
    "estimate_mse",
    "campbell_check",
]


class EmptyRealizationError(ValueError):
    """Raised when a realization has no devices after mode filtering."""


@dataclass(frozen=True)
class MseEstimate:
    mean: float
    std_error: float
    n_total: int
    n_used: int
    mode: str

    def __post_init__(self):
        if self.n_used > self.n_total:
            raise ValueError("n_used cannot exceed n_total")


def _mse(d: np.ndarray, h: np.ndarray, powers: np.ndarray, eta: float,
         params: NetworkParams, bounds: list[int]) -> list[float]:
    """(sum_k (a_k - 1)^2 + w^2 / eta) / K of each non-empty realization, in
    order; realization j owns the K = bounds[j + 1] - bounds[j] devices that
    start at bounds[j].

    The amplitudes are computed once for all realizations, but each sum is
    taken over the realization's own slice, so it rounds exactly as the sum
    over that realization alone would.  A segmented reduction such as
    np.add.reduceat groups the additions differently and can move the last
    bit.  np.add.reduce is np.sum without its dispatch wrapper.
    """
    sq = (d ** (-0.5 * params.alpha) * np.sqrt(powers) * h / math.sqrt(eta) - 1.0) ** 2
    noise = params.noise_power / eta
    return [(float(np.add.reduce(sq[a:b])) + noise) / (b - a)
            for a, b in zip(bounds, bounds[1:]) if b > a]


def _single_mse(d: np.ndarray, h: np.ndarray, powers: np.ndarray, eta: float,
                params: NetworkParams) -> float:
    """The MSE of one realization; raises EmptyRealizationError if it has no
    devices."""
    if d.size == 0:
        raise EmptyRealizationError("realization has no devices")
    return _mse(d, h, powers, eta, params, [0, d.size])[0]


def frozen_power_objective(re: Realization, powers: np.ndarray, eta: float,
                           params: NetworkParams) -> float:
    """Per-realization objective in eta with the transmit powers held fixed.

    Devices within 1 m are clamped to 1 m.
    """
    if not eta > 0:
        raise ValueError("eta must be > 0")
    d, h = effective_devices(re, "clamp")
    return _single_mse(d, h, powers, eta, params)


def realization_mse(re: Realization, eta: float, params: NetworkParams,
                    mode: str = "clamp") -> float:
    """Conditional MSE of one realization at denoising factor eta."""
    d, h = effective_devices(re, mode)
    return _single_mse(d, h, transmit_power(d, h, eta, params), eta, params)


def _mc_range(args) -> np.ndarray:
    """MSEs of the non-empty realizations among indices start .. stop - 1."""
    params, eta, seed, start, stop, mode = args
    values = []
    for d, h, bounds in sample_ppp_chunks(params, seed, start, stop, mode):
        values += _mse(d, h, transmit_power(d, h, eta, params), eta, params, bounds)
    return np.array(values)


def estimate_mse(params: NetworkParams, eta: float, n_iter: int, seed: int,
                 mode: str = "clamp", n_jobs: int = 1) -> MseEstimate:
    """Sample mean and standard error of the MSE over n_iter realizations.

    Iteration i samples the disc from the (seed, i) stream.  Realizations
    left with no devices by the inner-disc policy are skipped (the
    device-count expectation conditions on K >= 1) and counted out of
    n_used.  With n_jobs > 1 each worker takes one contiguous range of
    iterations; the ranges are joined in iteration order, so the result does
    not depend on n_jobs.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    bounds = [n_iter * j // n_jobs for j in range(n_jobs + 1)]
    ranges = [(params, eta, seed, lo, hi, mode) for lo, hi in zip(bounds, bounds[1:])]
    if n_jobs == 1:
        samples = _mc_range(ranges[0])
    else:
        with Pool(processes=n_jobs) as pool:
            samples = np.concatenate(pool.map(_mc_range, ranges))
    n_used = samples.size
    if n_used == 0:
        raise EmptyRealizationError("no non-empty realizations")
    mean = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(n_used)) if n_used > 1 else 0.0
    return MseEstimate(mean=mean, std_error=std_error,
                       n_total=n_iter, n_used=n_used, mode=mode)


@dataclass(frozen=True)
class CampbellReport:
    """Empirical vs quadrature means of additive functionals over the annulus."""

    names: tuple[str, ...]
    empirical: tuple[float, ...]
    target: tuple[float, ...]
    z_scores: tuple[float, ...]
    n_iter: int

    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)


def campbell_check(params: NetworkParams, n_iter: int, seed: int) -> CampbellReport:
    """Check E[sum_k g(d_k, h_k)] against 2 pi lambda int_1^R E_v[g] r dr.

    Test functionals over devices with d in [1, R]: the count, the received
    power sum d^-a h^2, and the received amplitude sum d^-a/2 h.
    """
    if n_iter < 1000:
        raise ValueError("campbell_check needs n_iter >= 1000")
    alpha = params.alpha
    rows = []
    for d, h, bounds in sample_ppp_chunks(params, seed, 0, n_iter, "annulus"):
        power = d ** -alpha * h ** 2
        amplitude = d ** (-0.5 * alpha) * h
        rows += [(b - a, float(np.add.reduce(power[a:b])),
                  float(np.add.reduce(amplitude[a:b])))
                 for a, b in zip(bounds, bounds[1:])]
    sums = np.array(rows, dtype=float)

    mean_h = rician_mean(params)
    two_pi_lam = 2.0 * math.pi * params.density
    r_max = params.radius
    targets = (
        params.density * math.pi * (r_max ** 2 - 1.0),
        two_pi_lam * float(power_integral(1.0, r_max, 1.0 - alpha)),  # E[h^2] = 1
        two_pi_lam * float(power_integral(1.0, r_max, 1.0 - 0.5 * alpha)) * mean_h,
    )
    emp = sums.mean(axis=0)
    se = sums.std(axis=0, ddof=1) / math.sqrt(n_iter)
    z = tuple(float((e - t) / s) for e, t, s in zip(emp, targets, se))
    return CampbellReport(
        names=("count", "received_power", "received_amplitude"),
        empirical=tuple(float(v) for v in emp),
        target=targets, z_scores=z, n_iter=n_iter)
