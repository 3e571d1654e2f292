"""Physical-layer scenario model.

Network parameterization, log-distance path loss with a 1 m no-loss inner
region, capped fractional channel-inversion power control, and Poisson point
process layouts with Rician fading inside the access disc.

`sample_ppp_chunks` is the one layout sampler.  Realization i is drawn from
its own stream, a pure function of (seed, i), so parallel and serial runs
agree bit for bit.  A realization is a pair of aligned device arrays
(distances, fadings), its slice of a chunk, with the inner-disc policy
already applied.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .specfun import RicianParams

__all__ = [
    "MODES",
    "CHUNK_DEVICES",
    "NetworkParams",
    "transmit_power",
    "sample_ppp_chunks",
    "realization_rng",
]

# Inner-disc policies for devices within 1 m of the access point.
MODES = ("clamp", "annulus")

# Devices per chunk of sample_ppp_chunks.  Sized by device count, not by
# realization count, so that a chunk's arrays stay a few tens of kB at any
# mean device count.
CHUNK_DEVICES = 4096


@dataclass(frozen=True)
class NetworkParams:
    """Full scenario parameterization.  The defaults are the paper's reference
    cell, the one its Fig. 2 evaluates: SNR p_max / noise_power of 30 dB."""

    density: float = 0.05   # device density lambda (devices / m^2)
    radius: float = 10.0    # AP access radius R (m)
    alpha: float = 2.1      # path-loss exponent
    epsilon: float = 1.0    # power-control factor in [0, 1]
    rician_b: float = 15.0  # Rician factor B
    p_max: float = 1000.0   # maximum transmit power (W)
    noise_power: float = 1.0  # omega^2 (W)

    def __post_init__(self):
        if not 0 < self.density < math.inf:
            raise ValueError(f"density must lie in (0, inf), got {self.density}")
        if not 1.0 < self.radius < math.inf:
            raise ValueError("radius must be finite and exceed the 1 m "
                             f"no-path-loss region, got {self.radius}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must lie in (0, inf), got {self.alpha}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0 <= self.rician_b < math.inf:
            raise ValueError(f"rician_b must lie in [0, inf), got {self.rician_b}")
        if not 0 < self.p_max < math.inf:
            raise ValueError(f"p_max must lie in (0, inf), got {self.p_max}")
        if not 0 < self.noise_power < math.inf:
            raise ValueError(f"noise_power must lie in (0, inf), got {self.noise_power}")

    @property
    def mean_count(self) -> float:
        """Expected device count lambda * pi * R^2 in the access disc."""
        return self.density * math.pi * self.radius ** 2

    def rician(self) -> RicianParams:
        return RicianParams.from_b_factor(self.rician_b)


def _inner_disc_policy(d, h, bounds: list[int], mode: str):
    """The inner-disc policy on consecutive realizations, realization j
    owning devices bounds[j] .. bounds[j + 1] - 1: clamp distances to 1 m or
    ("annulus") drop the devices; sample_ppp_chunks has checked mode.
    Returns the distances, fadings and bounds left."""
    if mode == "clamp":
        return np.maximum(d, 1.0), h, bounds
    keep = d >= 1.0
    kept = np.concatenate(([0], np.cumsum(keep)))
    return d[keep], h[keep], kept[bounds].tolist()


def transmit_power(d, h_mag, eta: float, params: NetworkParams):
    """Capped channel-inversion transmit power of a device.

    Below the fading threshold T(d) = sqrt(eta / p_max) d^{alpha eps / 2} the
    device transmits at p_max; above it, at (eta / h^2) d^{alpha eps}.  The
    two branches agree at the threshold.  h_mag = 0 falls in the capped branch.
    Returns an array of the broadcast shape of d and h_mag.
    """
    if not eta > 0:
        raise ValueError("eta must be > 0")
    d_arr = np.asarray(d, dtype=float)
    h_arr = np.asarray(h_mag, dtype=float)
    if np.any(d_arr < 1.0):
        raise ValueError("transmit_power requires d >= 1 (clamp distances first)")
    if np.any(h_arr < 0):
        raise ValueError("transmit_power requires h_mag >= 0")
    d_pow = d_arr ** (params.alpha * params.epsilon)
    threshold = np.sqrt(eta / params.p_max * d_pow)
    capped = h_arr <= threshold
    with np.errstate(divide="ignore"):
        inverted = eta * d_pow / np.where(capped, 1.0, h_arr) ** 2
    return np.where(capped, params.p_max, inverted)


def _disc_devices(params: NetworkParams, rp: RicianParams, u, g):
    """Distances and fading magnitudes of raw disc draws: radii by CDF
    inversion r = R sqrt(u), uniform angles (never materialized; only
    distances matter), and |c + sigma (g[0] + j g[1])| for the fading.  The
    LoS phase is fixed to zero, because every downstream quantity reads |h|
    only."""
    return (params.radius * np.sqrt(u),
            np.hypot(rp.c + rp.sigma * g[0], rp.sigma * g[1]))


def sample_ppp_chunks(params: NetworkParams, seed: int, start: int, stop: int,
                      mode: str) -> Iterator[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Realizations start .. stop - 1 of the (seed, i) streams, in chunks.

    Realization i draws, from realization_rng(seed, i) and in this order,
    its device count K ~ Poisson(lambda pi R^2), K uniforms for the radii
    and K + K standard normals for the fading; then the inner-disc policy
    `mode` is applied.  The raw draws of consecutive realizations are
    collected until a chunk holds CHUNK_DEVICES devices; the transform and
    the policy then run once on the whole chunk.  Yields (distances,
    fadings, bounds): realization j of the chunk owns the devices
    bounds[j] .. bounds[j + 1] - 1, and an empty one owns none.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _chunks(params, seed, start, stop, mode)


def _chunks(params: NetworkParams, seed: int, start: int, stop: int, mode: str):
    """The generator behind sample_ppp_chunks, which checks mode first."""
    mean_count, rp = params.mean_count, params.rician()
    i = start
    while i < stop:
        u, g, bounds = _draw_chunk(seed, i, stop, mean_count)
        i += len(bounds) - 1
        yield _inner_disc_policy(*_disc_devices(params, rp, u, g), bounds, mode)


def _draw_chunk(seed: int, start: int, stop: int, mean_count: float):
    """Raw draws of realizations start, start + 1, ... until they hold
    CHUNK_DEVICES devices or reach stop, joined: (u, g, bounds).  The
    per-realization arrays are freed on return, before the chunk is used.

    rng.random(k) is rng.uniform(size=k) bit for bit without uniform's
    argument handling, and a (2, k) draw is two draws of k in stream order.
    """
    us, gs, bounds = [], [], [0]
    for i in range(start, stop):
        rng = realization_rng(seed, i)
        k = rng.poisson(mean_count)
        us.append(rng.random(k))
        gs.append(rng.standard_normal((2, k)))
        bounds.append(bounds[-1] + k)
        if bounds[-1] >= CHUNK_DEVICES:
            break
    return np.concatenate(us), np.concatenate(gs, axis=1), bounds


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Per-iteration random stream, a pure function of (seed, index): the
    stream numpy's default_rng(SeedSequence(seed, spawn_key=(index,))) gives."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))
