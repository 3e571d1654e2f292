"""Physical-layer scenario model.

Network parameterization, log-distance path loss with a 1 m no-loss inner
region, capped fractional channel-inversion power control, Rician fading
sampling, and Poisson point process layout sampling inside the access disc.

All sampling takes an explicit numpy Generator; per-iteration generators are
pure functions of (seed, index) so parallel and serial runs agree bit for bit.
A disc realization is a raw draw from its stream followed by an elementwise
transform; `sample_ppp_chunks` applies the transform to many realizations'
draws at once, which gives the same devices as `sample_ppp_disc` one by one.
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
    "Realization",
    "effective_devices",
    "transmit_power",
    "sample_fading",
    "sample_ppp_disc",
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
    """Full scenario parameterization."""

    density: float          # device density lambda (devices / m^2)
    radius: float           # AP access radius R (m)
    alpha: float            # path-loss exponent
    epsilon: float = 1.0    # power-control factor in [0, 1]
    rician_b: float = 15.0  # Rician factor B
    p_max: float = 1000.0   # maximum transmit power (W)
    noise_power: float = 1.0  # omega^2 (W)

    def __post_init__(self):
        if not self.density > 0:
            raise ValueError(f"density must be > 0, got {self.density}")
        if not self.radius > 1.0:
            raise ValueError(
                f"radius must exceed the 1 m no-path-loss region, got {self.radius}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not self.rician_b >= 0:
            raise ValueError(f"rician_b must be >= 0, got {self.rician_b}")
        if not self.p_max > 0:
            raise ValueError(f"p_max must be > 0, got {self.p_max}")
        if not self.noise_power > 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")

    @property
    def mean_count(self) -> float:
        """Expected device count lambda * pi * R^2 in the access disc."""
        return self.density * math.pi * self.radius ** 2

    def rician(self) -> RicianParams:
        return RicianParams.from_b_factor(self.rician_b)


@dataclass(frozen=True)
class Realization:
    """One sampled layout: device distances and fading magnitudes (aligned)."""

    distances: np.ndarray
    fadings: np.ndarray

    def __post_init__(self):
        if self.distances.shape != self.fadings.shape:
            raise ValueError("distances and fadings must be aligned")

    @property
    def count(self) -> int:
        return int(self.distances.size)


def _inner_disc_policy(re: Realization, bounds: list[int], mode: str):
    """The inner-disc policy on consecutive realizations, realization j
    owning devices bounds[j] .. bounds[j + 1] - 1: clamp distances to 1 m or
    drop the devices.  Returns the distances, fadings and bounds left."""
    if mode == "clamp":
        return np.maximum(re.distances, 1.0), re.fadings, bounds
    if mode == "annulus":
        keep = re.distances >= 1.0
        kept = np.concatenate(([0], np.cumsum(keep)))
        return re.distances[keep], re.fadings[keep], kept[bounds].tolist()
    raise ValueError(f"unknown mode {mode!r}")


def effective_devices(re: Realization, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Apply the inner-disc policy: clamp distances to 1 m or drop the devices."""
    d, h, _ = _inner_disc_policy(re, [0, re.count], mode)
    return d, h


def transmit_power(d, h_mag, eta: float, params: NetworkParams):
    """Capped channel-inversion transmit power of a device.

    Below the fading threshold T(d) = sqrt(eta / p_max) d^{alpha eps / 2} the
    device transmits at p_max; above it, at (eta / h^2) d^{alpha eps}.  The
    two branches agree at the threshold.  h_mag = 0 falls in the capped branch.
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
    out = np.where(capped, params.p_max, inverted)
    scalar = np.isscalar(d) and np.isscalar(h_mag)
    return float(out) if scalar else out


def _fading(rp: RicianParams, g1, g2):
    """|c + sigma (g1 + j g2)|: the LoS phase is fixed to zero, because every
    downstream quantity reads |h| only."""
    return np.hypot(rp.c + rp.sigma * g1, rp.sigma * g2)


def sample_fading(rng: np.random.Generator, rp: RicianParams, size=None):
    """Rician fading magnitudes |c + sigma (g1 + j g2)| with g1, g2 ~ N(0, 1)."""
    g1 = rng.standard_normal(size)
    return _fading(rp, g1, rng.standard_normal(size))


def _draw_disc(rng: np.random.Generator, mean_count: float):
    """Raw draws of one disc realization, in stream order: K ~ Poisson, then
    K uniforms for the radii, then K + K standard normals for the fading.

    rng.random(k) is rng.uniform(size=k) bit for bit without uniform's
    argument handling, and a (2, k) draw is two draws of k in stream order.
    """
    k = rng.poisson(mean_count)
    u = rng.random(k)
    return u, rng.standard_normal((2, k))


def _disc_devices(params: NetworkParams, rp: RicianParams, u, g) -> Realization:
    """Devices of raw disc draws: radii by CDF inversion r = R sqrt(u), uniform
    angles (never materialized; only distances matter), Rician fading from
    the normal pairs (g[0], g[1])."""
    return Realization(distances=params.radius * np.sqrt(u),
                       fadings=_fading(rp, g[0], g[1]))


def sample_ppp_disc(rng: np.random.Generator, params: NetworkParams) -> Realization:
    """Draw one PPP realization of devices inside the access disc,
    K ~ Poisson(lambda pi R^2)."""
    return _disc_devices(params, params.rician(),
                         *_draw_disc(rng, params.mean_count))


def sample_ppp_chunks(params: NetworkParams, seed: int, start: int, stop: int,
                      mode: str) -> Iterator[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Realizations start .. stop - 1 of the (seed, i) streams, in chunks.

    Realization i is `sample_ppp_disc(realization_rng(seed, i), params)`
    with the inner-disc policy `mode` applied.  The raw draws of consecutive
    realizations are collected until a chunk holds CHUNK_DEVICES devices;
    the transform and the policy then run once on the whole chunk.  Yields
    (distances, fadings, bounds): realization j of the chunk owns the
    devices bounds[j] .. bounds[j + 1] - 1, and an empty one owns none.
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
        yield _inner_disc_policy(_disc_devices(params, rp, u, g), bounds, mode)


def _draw_chunk(seed: int, start: int, stop: int, mean_count: float):
    """Raw draws of realizations start, start + 1, ... until they hold
    CHUNK_DEVICES devices or reach stop, joined: (u, g, bounds).  The
    per-realization arrays are freed on return, before the chunk is used."""
    us, gs, bounds = [], [], [0]
    for i in range(start, stop):
        u, g = _draw_disc(realization_rng(seed, i), mean_count)
        us.append(u)
        gs.append(g)
        bounds.append(bounds[-1] + u.size)
        if bounds[-1] >= CHUNK_DEVICES:
            break
    return np.concatenate(us), np.concatenate(gs, axis=1), bounds


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Per-iteration random stream, a pure function of (seed, index): the
    stream numpy's default_rng(SeedSequence(seed, spawn_key=(index,))) gives."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))
