import math

import numpy as np
import pytest

from aircomp.model import (NetworkParams, realization_rng, sample_fading,
                           sample_ppp_disc, transmit_power)
from aircomp.numerics import integrate
from aircomp.specfun import RicianParams, rician_ccdf


def make_params(**kw):
    base = dict(density=0.05, radius=15.0, alpha=2.1, epsilon=1.0,
                rician_b=15.0, p_max=1000.0, noise_power=1.0)
    base.update(kw)
    return NetworkParams(**base)


class TestNetworkParams:
    @pytest.mark.parametrize("field,value", [
        ("density", 0.0), ("radius", 1.0), ("alpha", -1.0),
        ("epsilon", 1.5), ("rician_b", -0.1), ("p_max", 0.0),
        ("noise_power", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_mean_count(self):
        p = make_params(density=0.05, radius=15.0)
        assert p.mean_count == pytest.approx(0.05 * math.pi * 225.0)


class TestTransmitPower:
    def test_inversion_branch(self):
        p = make_params(alpha=2.0, epsilon=1.0)
        # threshold sqrt(4/1000)*2 = 0.1265 < 1, so the inversion branch
        assert transmit_power(2.0, 1.0, 4.0, p) == pytest.approx(16.0)

    def test_continuity_at_threshold(self):
        p = make_params(alpha=2.0, epsilon=1.0)
        eta = 4.0
        d = 2.0
        t = math.sqrt(eta / p.p_max) * d ** (p.alpha * p.epsilon / 2.0)
        assert transmit_power(d, t, eta, p) == pytest.approx(p.p_max)
        just_above = transmit_power(d, t * (1 + 1e-12), eta, p)
        assert just_above == pytest.approx(p.p_max, rel=1e-9)

    def test_deep_fade_capped(self):
        p = make_params()
        assert transmit_power(2.0, 0.0, 4.0, p) == p.p_max

    def test_vanishes_for_strong_fading(self):
        p = make_params()
        assert transmit_power(2.0, 1e8, 4.0, p) < 1e-12

    def test_never_exceeds_p_max(self):
        p = make_params()
        rng = np.random.default_rng(3)
        d = rng.uniform(1.0, p.radius, 1000)
        h = sample_fading(rng, p.rician(), 1000)
        assert np.all(transmit_power(d, h, 7.0, p) <= p.p_max)

    def test_perfect_inversion_when_uncapped(self):
        p = make_params()
        eta = 7.0
        rng = np.random.default_rng(4)
        d = rng.uniform(1.0, p.radius, 500)
        h = sample_fading(rng, p.rician(), 500)
        power = transmit_power(d, h, eta, p)
        uncapped = power < p.p_max
        received = d ** -p.alpha * power * h ** 2
        assert np.allclose(received[uncapped], eta, rtol=1e-12)

    def test_rejects_inner_distances(self):
        p = make_params()
        with pytest.raises(ValueError):
            transmit_power(0.5, 1.0, 4.0, p)


class TestSampleFading:
    def test_pure_los_limit(self):
        rp = RicianParams.from_b_factor(1e12)
        h = sample_fading(np.random.default_rng(0), rp, 100)
        assert np.allclose(h, 1.0, atol=1e-4)

    def test_unit_second_moment(self):
        rp = RicianParams.from_b_factor(15.0)
        h = sample_fading(np.random.default_rng(1), rp, 10 ** 6)
        m2 = np.mean(h ** 2)
        se = np.std(h ** 2) / math.sqrt(h.size)
        assert abs(m2 - 1.0) <= 3.0 * se

    def test_ccdf_matches_marcum(self):
        rp = RicianParams.from_b_factor(15.0)
        h = sample_fading(np.random.default_rng(2), rp, 10 ** 6)
        frac = np.mean(h > 1.0)
        se = math.sqrt(frac * (1 - frac) / h.size)
        assert abs(frac - rician_ccdf(1.0, rp)) <= 3.0 * se


class TestSamplePpp:
    def test_poisson_mean(self):
        p = make_params()
        counts = [sample_ppp_disc(realization_rng(11, i), p).count
                  for i in range(10_000)]
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - p.mean_count) <= 3.0 * se

    def test_within_radius(self):
        p = make_params()
        for i in range(50):
            re = sample_ppp_disc(realization_rng(12, i), p)
            if re.count:
                assert re.distances.max() <= p.radius

    def test_campbell_path_loss_sum(self):
        p = make_params()
        sums = []
        for i in range(10_000):
            re = sample_ppp_disc(realization_rng(13, i), p)
            d = re.distances[re.distances >= 1.0]
            sums.append(float(np.sum(d ** -p.alpha)))
        sums = np.array(sums)
        target = 2 * math.pi * p.density * integrate(
            lambda r: np.asarray(r) ** (1.0 - p.alpha), 1.0, p.radius)
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - target) <= 3.0 * se

    def test_distance_density(self):
        # r^2 / R^2 should be Uniform(0, 1); Kolmogorov-Smirnov at the 1% level
        p = make_params()
        pooled = []
        for i in range(2000):
            re = sample_ppp_disc(realization_rng(14, i), p)
            pooled.append(re.distances)
        u = np.sort(np.concatenate(pooled) ** 2 / p.radius ** 2)
        n = u.size
        ks = np.max(np.abs(u - (np.arange(1, n + 1) - 0.5) / n)) + 0.5 / n
        assert ks <= 1.63 / math.sqrt(n)

    def test_deterministic_given_seed_index(self):
        p = make_params()
        a = sample_ppp_disc(realization_rng(99, 5), p)
        b = sample_ppp_disc(realization_rng(99, 5), p)
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.fadings, b.fadings)

    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2 ** 40, 2 ** 33)])
    def test_stream_contract(self, seed, index):
        # realization i is these draws, in this order, from the stream numpy
        # derives from SeedSequence(seed, spawn_key=(i,))
        p = make_params()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        k = rng.poisson(p.mean_count)
        distances = p.radius * np.sqrt(rng.uniform(size=k))
        rp = p.rician()
        g1 = rng.standard_normal(k)
        g2 = rng.standard_normal(k)
        re = sample_ppp_disc(realization_rng(seed, index), p)
        assert np.array_equal(re.distances, distances)
        assert np.array_equal(re.fadings, np.hypot(rp.c + rp.sigma * g1, rp.sigma * g2))
