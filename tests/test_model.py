import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import model
from aircomp.model import MODES, NetworkParams, sample_ppp_chunks, transmit_power
from aircomp.numerics import integrate
from aircomp.specfun import marcum_q1
from stream_contract import contract_devices


def make_params(**kw):
    """The reference cell at R = 15 m unless kw says otherwise."""
    return NetworkParams(**{"radius": 15.0, **kw})


def realizations(p, seed, n_iter, mode="clamp"):
    """(distances, fadings) of realizations 0 .. n_iter - 1, one by one, as
    slices of the sampler's chunks."""
    return [(d[a:b], h[a:b])
            for d, h, bounds in sample_ppp_chunks(p, seed, 0, n_iter, mode)
            for a, b in zip(bounds, bounds[1:])]


def pooled(p, seed, n_iter, mode="clamp"):
    """Distances and fadings of realizations 0 .. n_iter - 1, pooled."""
    chunks = list(sample_ppp_chunks(p, seed, 0, n_iter, mode))
    return (np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]))


def fadings(rician_b, n, seed):
    """The fading magnitudes of one realization with mean device count n."""
    p = make_params(density=n / (math.pi * 15.0 ** 2), rician_b=rician_b)
    return pooled(p, seed, 1)[1]


class TestNetworkParams:
    @pytest.mark.parametrize("field,value", [
        ("density", 0.0), ("radius", 1.0), ("alpha", -1.0),
        ("epsilon", 1.5), ("rician_b", -0.1), ("p_max", 0.0),
        ("noise_power", 0.0), ("density", math.inf), ("radius", math.inf),
        ("alpha", math.inf), ("epsilon", math.inf), ("rician_b", math.inf),
        ("p_max", math.inf), ("noise_power", math.inf),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_defaults_are_the_reference_cell(self):
        assert NetworkParams() == NetworkParams(
            density=0.05, radius=10.0, alpha=2.1, epsilon=1.0, rician_b=15.0,
            p_max=1000.0, noise_power=1.0)

    def test_mean_count(self):
        p = make_params(density=0.05, radius=15.0)
        assert p.mean_count == pytest.approx(0.05 * math.pi * 225.0)


class TestTransmitPower:
    def test_inversion_branch(self):
        p = make_params(alpha=2.0, epsilon=1.0)
        # threshold sqrt(4/1000)*2 = 0.1265 < 1, so the inversion branch
        power = transmit_power(2.0, 1.0, 4.0, p)
        assert isinstance(power, np.ndarray) and power.shape == ()
        assert power == pytest.approx(16.0)

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
        d, h = pooled(p, 3, 30)
        assert d.size > 500
        assert np.all(transmit_power(d, h, 7.0, p) <= p.p_max)

    def test_perfect_inversion_when_uncapped(self):
        p = make_params()
        eta = 7.0
        d, h = pooled(p, 4, 15)
        power = transmit_power(d, h, eta, p)
        uncapped = power < p.p_max
        received = d ** -p.alpha * power * h ** 2
        assert np.allclose(received[uncapped], eta, rtol=1e-12)

    def test_rejects_inner_distances(self):
        p = make_params()
        with pytest.raises(ValueError):
            transmit_power(0.5, 1.0, 4.0, p)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be > 0"):
            transmit_power(2.0, 1.0, eta, make_params())

    def test_rejects_negative_fading(self):
        with pytest.raises(ValueError, match="h_mag >= 0"):
            transmit_power(2.0, np.array([1.0, -0.1]), 4.0, make_params())


class TestSampleFading:
    def test_pure_los_limit(self):
        h = fadings(1e12, 100, 0)
        assert h.size > 50
        assert np.allclose(h, 1.0, atol=1e-4)

    def test_unit_second_moment(self):
        h = fadings(15.0, 10 ** 6, 1)
        m2 = np.mean(h ** 2)
        se = np.std(h ** 2) / math.sqrt(h.size)
        assert abs(m2 - 1.0) <= 3.0 * se

    def test_ccdf_matches_marcum(self):
        h = fadings(15.0, 10 ** 6, 2)
        frac = np.mean(h > 1.0)
        se = math.sqrt(frac * (1 - frac) / h.size)
        rp = make_params(rician_b=15.0).rician()
        assert abs(frac - marcum_q1(rp.c / rp.sigma, 1.0 / rp.sigma)) <= 3.0 * se


class TestSamplePpp:
    def test_poisson_mean(self):
        p = make_params()
        counts = np.array([d.size for d, _ in realizations(p, 11, 10_000)],
                          dtype=float)
        assert counts.size == 10_000
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - p.mean_count) <= 3.0 * se

    def test_within_radius(self):
        p = make_params()
        d, _ = pooled(p, 12, 50)
        assert d.size and 1.0 <= d.min() and d.max() <= p.radius

    def test_campbell_path_loss_sum(self):
        p = make_params()
        sums = np.array([float(np.sum(d ** -p.alpha))
                         for d, _ in realizations(p, 13, 10_000, "annulus")])
        target = 2 * math.pi * p.density * integrate(
            lambda r, _: np.asarray(r) ** (1.0 - p.alpha), 1.0, p.radius, 1e-8, 1e-12)
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - target) <= 3.0 * se

    def test_distance_density(self):
        # the annulus keeps the devices at d >= 1, whose (d^2 - 1) / (R^2 - 1)
        # should be Uniform(0, 1); Kolmogorov-Smirnov at the 1% level
        p = make_params()
        d, _ = pooled(p, 14, 2000, "annulus")
        u = np.sort((d ** 2 - 1.0) / (p.radius ** 2 - 1.0))
        n = u.size
        ks = np.max(np.abs(u - (np.arange(1, n + 1) - 0.5) / n)) + 0.5 / n
        assert ks <= 1.63 / math.sqrt(n)

    def test_deterministic_given_seed_index(self):
        p = make_params()
        a = list(sample_ppp_chunks(p, 99, 5, 6, "clamp"))
        b = list(sample_ppp_chunks(p, 99, 5, 6, "clamp"))
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0][0], b[0][0])
        assert np.array_equal(a[0][1], b[0][1])
        assert a[0][2] == b[0][2]

    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2 ** 40, 2 ** 33)])
    def test_stream_contract(self, seed, index):
        # realization i is the draws stream_contract writes out with numpy's
        # public API, from the stream of SeedSequence(seed, spawn_key=(i,))
        p = make_params()
        for mode in MODES:
            [(d, h, bounds)] = sample_ppp_chunks(p, seed, index, index + 1, mode)
            want_d, want_h = contract_devices(p, seed, index, mode)
            assert bounds == [0, want_d.size]
            assert np.array_equal(d, want_d)
            assert np.array_equal(h, want_h)


def numpy_state(seed, index):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))).state


def states(seed, start, stop):
    return list(model._stream_states(np.random.SeedSequence(seed), start, stop))


# Seeds and indices of one to five 32-bit words (2^128 - 1 and 2^128 are the
# seeds either side of a four-word pool), and blocks that straddle a change
# of SeedSequence's word count (2^32) or a hash-block edge (1024)
SEEDS = [0, 1, 7, 1234, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3,
         2 ** 128 - 1, 2 ** 128, 2 ** 130 + 9]
INDICES = [10 ** 6, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 7, 2 ** 63 + 1]
STRADDLING = [(2 ** 32 - 3, 2 ** 32 + 3), (1000, 1100)]


class TestStreamStates:
    """The hashed (seed, i) states are the ones numpy's SeedSequence and
    PCG64 set."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_numpy(self, seed):
        assert states(seed, 0, 300) == [numpy_state(seed, i) for i in range(300)]
        for i in INDICES:
            assert states(seed, i, i + 1) == [numpy_state(seed, i)]

    @pytest.mark.parametrize("start, stop", STRADDLING)
    @pytest.mark.parametrize("seed", [3, 2 ** 40 + 3])
    def test_straddling_block(self, seed, start, stop):
        assert states(seed, start, stop) == [numpy_state(seed, i)
                                             for i in range(start, stop)]

    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 160), index=st.integers(0, 2 ** 64 - 1))
    def test_equal_numpy_property(self, seed, index):
        assert states(seed, index, index + 1) == [numpy_state(seed, index)]

    @pytest.mark.parametrize("start, stop", STRADDLING)
    def test_chunks_follow_stream_contract(self, start, stop):
        p = make_params()
        for mode in MODES:
            got = [(d[a:b], h[a:b])
                   for d, h, bounds in sample_ppp_chunks(p, 5, start, stop, mode)
                   for a, b in zip(bounds, bounds[1:])]
            assert len(got) == stop - start
            for i, (d, h) in enumerate(got, start=start):
                want_d, want_h = contract_devices(p, 5, i, mode)
                assert np.array_equal(d, want_d) and np.array_equal(h, want_h)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-2 ** 40, ValueError),
                                             (1.5, TypeError), ("1", TypeError),
                                             (None, TypeError), ([1, 2], TypeError)])
    def test_bad_seed_raises_before_any_draw(self, seed, error):
        with pytest.raises(error):
            sample_ppp_chunks(make_params(), seed, 0, 10, "clamp")

    def test_negative_start_raises(self):
        with pytest.raises(ValueError, match="start"):
            sample_ppp_chunks(make_params(), 0, -1, 10, "clamp")
