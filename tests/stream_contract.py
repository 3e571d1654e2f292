"""The Monte Carlo's (seed, i) stream contract, written with numpy's public
API only: the per-realization reference the tests compare the library's
chunked sampler with.

Realization i of seed s draws, from default_rng(SeedSequence(s,
spawn_key=(i,))) and in this order, its device count K ~ Poisson(lambda pi
R^2), K uniforms for the radii r = R sqrt(u), and two sets of K standard
normals g1, g2 for the Rician fading |c + sigma (g1 + j g2)|.
"""

import numpy as np


def inner_disc_policy(d, h, mode):
    """Devices within 1 m clamped to 1 m ("clamp") or dropped ("annulus")."""
    if mode == "clamp":
        return np.maximum(d, 1.0), h
    if mode == "annulus":
        keep = d >= 1.0
        return d[keep], h[keep]
    raise ValueError(f"unknown mode {mode!r}")


def contract_devices(params, seed, index, mode):
    """Distances and fading magnitudes of realization index of seed, with
    the inner-disc policy mode applied."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    k = rng.poisson(params.mean_count)
    d = params.radius * np.sqrt(rng.uniform(size=k))
    rp = params.rician()
    g1 = rng.standard_normal(k)
    g2 = rng.standard_normal(k)
    return inner_disc_policy(d, np.hypot(rp.c + rp.sigma * g1, rp.sigma * g2), mode)
