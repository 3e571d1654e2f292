"""Physical-layer scenario model.

Network parameterization, log-distance path loss with a 1 m no-loss inner
region, capped fractional channel-inversion power control, Rician fading
sampling, and Poisson point process layout sampling inside the access disc.

All sampling takes an explicit numpy Generator; per-iteration generators are
pure functions of (seed, index) so parallel and serial runs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import RicianParams

__all__ = [
    "NetworkParams",
    "Realization",
    "effective_devices",
    "transmit_power",
    "sample_fading",
    "sample_ppp_disc",
    "realization_rng",
]

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


def effective_devices(re: Realization, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Apply the inner-disc policy: clamp distances to 1 m or drop the devices."""
    if mode == "clamp":
        return np.maximum(re.distances, 1.0), re.fadings
    if mode == "annulus":
        keep = re.distances >= 1.0
        return re.distances[keep], re.fadings[keep]
    raise ValueError(f"unknown mode {mode!r}")


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


def sample_fading(rng: np.random.Generator, rp: RicianParams, size=None):
    """Rician fading magnitudes |c + sigma (g1 + j g2)| with g1, g2 ~ N(0, 1).

    The LoS phase is fixed to zero: every downstream quantity reads |h| only.
    """
    g1 = rng.standard_normal(size)
    g2 = rng.standard_normal(size)
    return np.hypot(rp.c + rp.sigma * g1, rp.sigma * g2)


def sample_ppp_disc(rng: np.random.Generator, params: NetworkParams) -> Realization:
    """Draw one PPP realization of devices inside the access disc.

    K ~ Poisson(lambda pi R^2), radii by CDF inversion r = R sqrt(u), uniform
    angles (angles never materialized; only distances matter).
    """
    k = rng.poisson(params.mean_count)
    distances = params.radius * np.sqrt(rng.uniform(size=k))
    fadings = sample_fading(rng, params.rician(), size=distances.size)
    return Realization(distances=distances, fadings=fadings)


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Per-iteration random stream, a pure function of (seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
