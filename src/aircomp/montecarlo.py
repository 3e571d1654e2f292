"""Empirical MSE estimation over sampled network realizations.

The per-realization MSE is the conditional expectation over symbols and
noise, so Monte Carlo variance comes only from the layout, the device count,
and the fading draws.  Iteration i always uses the random stream derived
from (seed, i); runs are therefore bit-identical regardless of worker count.

Every consumer reads realizations from model.sample_ppp_chunks: each one is
drawn from its own stream, but the transform, the inner-disc policy, the
transmit powers and the amplitudes run once per chunk of about
model.CHUNK_DEVICES devices, so their per-call cost is not paid per
realization.  Each realization's sum stays a reduction over its own slice,
so every output equals realization_mse on that slice bit for bit, wherever
the chunks end.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .model import MODES, NetworkParams, sample_ppp_chunks, transmit_power

__all__ = [
    "EmptyRealizationError",
    "MseEstimate",
    "realization_mse",
    "eta_star_realization",
    "estimate_mse",
]


class EmptyRealizationError(ValueError):
    """Raised when a realization has no devices after mode filtering."""


@dataclass(frozen=True)
class MseEstimate:
    mean: float
    std_error: float
    n_total: int
    n_used: int

    def __post_init__(self):
        if self.n_used > self.n_total:
            raise ValueError("n_used cannot exceed n_total")


def _amplitudes(d: np.ndarray, h: np.ndarray, powers: np.ndarray,
                params: NetworkParams) -> np.ndarray:
    """Received amplitude d^(-a/2) sqrt(P_k) h of each device."""
    return d ** (-0.5 * params.alpha) * np.sqrt(powers) * h


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
    sq = (_amplitudes(d, h, powers, params) / math.sqrt(eta) - 1.0) ** 2
    noise = params.noise_power / eta
    return [(float(np.add.reduce(sq[a:b])) + noise) / (b - a)
            for a, b in zip(bounds, bounds[1:]) if b > a]


def realization_mse(d: np.ndarray, h: np.ndarray, powers: np.ndarray,
                    eta: float, params: NetworkParams) -> float:
    """Conditional MSE of one realization at denoising factor eta, with the
    devices' transmit powers given (transmit_power at eta, or frozen at
    another eta).  d and h are the devices left by the inner-disc policy;
    raises EmptyRealizationError if there are none."""
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if d.size == 0:
        raise EmptyRealizationError("realization has no devices")
    return _mse(d, h, powers, eta, params, [0, d.size])[0]


def eta_star_realization(d: np.ndarray, h: np.ndarray, eta_ref: float,
                         params: NetworkParams) -> float:
    """Stationary point of the per-realization objective in eta.

    ((sum d^-a P_k h^2 + w^2) / (sum d^-a/2 sqrt(P_k) h))^2, with the
    transmit powers frozen at eta_ref (the power-control branch of each
    device depends on eta; the bound derivation treats powers as given).
    d and h are the devices left by the inner-disc policy; raises
    EmptyRealizationError if there are none.
    """
    if d.size == 0:
        raise EmptyRealizationError("realization has no devices")
    amp = _amplitudes(d, h, transmit_power(d, h, eta_ref, params), params)
    num = float(np.sum(amp ** 2)) + params.noise_power
    den = float(np.sum(amp))
    return (num / den) ** 2


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
    n_used.  n_jobs caps the worker processes: the iterations are split into
    one contiguous range for each of min(n_jobs, n_iter, cpu count) workers,
    and a single range runs in this process.  The ranges are joined in
    iteration order, so the result does not depend on n_jobs.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    workers = min(n_jobs, n_iter, os.cpu_count() or 1)
    bounds = [n_iter * j // workers for j in range(workers + 1)]
    ranges = [(params, eta, seed, lo, hi, mode) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        samples = _mc_range(ranges[0])
    else:
        with Pool(processes=workers) as pool:
            samples = np.concatenate(pool.map(_mc_range, ranges))
    n_used = samples.size
    if n_used == 0:
        raise EmptyRealizationError("no non-empty realizations")
    mean = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(n_used)) if n_used > 1 else 0.0
    return MseEstimate(mean=mean, std_error=std_error,
                       n_total=n_iter, n_used=n_used)

