"""Physical-layer scenario model.

Network parameterization, log-distance path loss with a 1 m no-loss inner
region, capped fractional channel-inversion power control, and Poisson point
process layouts with Rician fading inside the access disc.

`sample_ppp_chunks` is the one layout sampler.  Realization i is drawn from
its own stream, a pure function of (seed, i), so parallel and serial runs
agree bit for bit.  The stream is numpy's
Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))).  The seed's pool is
numpy's own, SeedSequence(seed).pool; only the mixing of i into it,
generate_state and PCG64's seeding are restated here, for a block of indices
at once, and each state is set on one reused PCG64, because building a
generator per realization costs more than a small realization's draws.  A
realization is a pair of aligned device arrays (distances, fadings), its
slice of a chunk, with the inner-disc policy already applied.
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

    Realization i draws, from the stream of SeedSequence(seed,
    spawn_key=(i,)) and in this order, its device count K ~ Poisson(lambda
    pi R^2), K uniforms for the radii and K + K standard normals for the
    fading; then the inner-disc policy `mode` is applied.  The raw draws of
    consecutive realizations are collected until a chunk holds
    CHUNK_DEVICES devices; the transform and the policy then run once on the
    whole chunk.  Yields (distances, fadings, bounds): realization j of the
    chunk owns the devices bounds[j] .. bounds[j + 1] - 1, and an empty one
    owns none.  A bad mode, start or seed raises before any draw:
    ValueError for a negative start or seed (SeedSequence's own), TypeError
    for a seed that is not an int, such as None (OS entropy to SeedSequence).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int, got {seed!r}")
    states = _stream_states(np.random.SeedSequence(seed), start, stop)
    return _chunks(params, states, start, stop, mode)


def _chunks(params: NetworkParams, states, start: int, stop: int, mode: str):
    """The generator behind sample_ppp_chunks, which checks its input first."""
    mean_count, rp = params.mean_count, params.rician()
    rng = np.random.Generator(np.random.PCG64(0))
    i = start
    while i < stop:
        u, g, bounds = _draw_chunk(rng, states, mean_count)
        i += len(bounds) - 1
        yield _inner_disc_policy(*_disc_devices(params, rp, u, g), bounds, mode)


def _draw_chunk(rng: np.random.Generator, states, mean_count: float):
    """Raw draws of the next realizations of states, each set on rng's
    PCG64 in turn, until they hold CHUNK_DEVICES devices or states runs
    out, joined: (u, g, bounds).  The per-realization arrays are freed on
    return, before the chunk is used.

    rng.random(k) is rng.uniform(size=k) bit for bit without uniform's
    argument handling, and a (2, k) draw is two draws of k in stream order.
    """
    bit_generator = rng.bit_generator
    us, gs, bounds = [], [], [0]
    for state in states:
        bit_generator.state = state
        k = rng.poisson(mean_count)
        us.append(rng.random(k))
        gs.append(rng.standard_normal((2, k)))
        bounds.append(bounds[-1] + k)
        if bounds[-1] >= CHUNK_DEVICES:
            break
    return np.concatenate(us), np.concatenate(gs, axis=1), bounds


# numpy's SeedSequence (hashmix and mix constants) and PCG64 seeding
# (pcg64_set_seed: the 128-bit LCG multiplier).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# Indices whose states are hashed at once.  A power of two that divides
# 2^32, so that the indices of a block share every 32-bit word but the
# lowest.
_HASH_BLOCK = 1024


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, least
    significant first, and [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: int,
             mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint32 arrays (which wrap as uint32_t
    does): the hashed value and the next hash constant."""
    next_const = const * mult & _MASK32
    value = (value ^ const) * next_const
    return value ^ value >> 16, next_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _stream_states(seq: np.random.SeedSequence, start: int, stop: int):
    """PCG64(SeedSequence(seed, spawn_key=(i,))).state for i = start .. stop
    - 1, lazily, where seq is SeedSequence(seed).  numpy has mixed the seed
    into seq.pool, its own pool, with 4 max(4, n) hashmix calls for n seed
    words (4 pool hashes and 12 all-pairs mixes, then 4 per further word).
    Only the mixing of i's words into it, for a block of indices as uint32
    array code, and generate_state(4, uint64) are restated; PCG64 then seeds
    its 128-bit LCG with s, the first two 64-bit words, and t, the last two."""
    n_words = len(_words(int(seq.entropy)))
    seed_const = _INIT_A * pow(_MULT_A, 4 * max(4, n_words), 1 << 32) & _MASK32
    a = start
    while a < stop:
        b = min(stop, (a // _HASH_BLOCK + 1) * _HASH_BLOCK)
        low = np.arange(b - a, dtype=np.uint32) + (a & _MASK32)
        high = [np.array([w], np.uint32) for w in _words(a)[1:]]
        pool, const = list(seq.pool[:, None]), seed_const
        for word in [low] + high:
            for dst in range(len(pool)):
                hashed, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], hashed)
        # generate_state: eight 32-bit words, read as four little-endian
        # 64-bit words
        out, const = [], _INIT_B
        for j in range(8):
            hashed, const = _hashmix(pool[j % len(pool)], const, _MULT_B)
            out.append(hashed)
        words = np.stack(out, axis=1).astype("<u4").view("<u8")
        for s_hi, s_lo, t_hi, t_lo in words.tolist():
            inc = (t_hi << 65 | t_lo << 1 | 1) & _MASK128
            state = (inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc & _MASK128
            yield {"bit_generator": "PCG64",
                   "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}
        a = b
