import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import model
from aircomp.model import (NetworkParams, Realization, effective_devices,
                           realization_rng, sample_ppp_chunks, sample_ppp_disc,
                           transmit_power)
from aircomp.montecarlo import (EmptyRealizationError, campbell_check,
                                estimate_mse, frozen_power_objective,
                                realization_mse)


def make_params(**kw):
    base = dict(density=0.05, radius=10.0, alpha=2.1, epsilon=1.0,
                rician_b=15.0, p_max=1000.0, noise_power=1.0)
    base.update(kw)
    return NetworkParams(**base)


def single_device(d, h):
    return Realization(distances=np.array([float(d)]),
                       fadings=np.array([float(h)]))


class TestRealizationMse:
    def test_capped_single_device(self):
        # d = 2, alpha = 2, h = 1, eta = P_max: threshold is 2 > 1, so the
        # device transmits at P_max and the misalignment is (1/2 - 1)^2
        params = make_params(alpha=2.0)
        eta = params.p_max
        got = realization_mse(single_device(2.0, 1.0), eta, params)
        assert got == pytest.approx(0.25 + params.noise_power / eta, rel=1e-12)

    def test_uncapped_single_device(self):
        # inverted power aligns perfectly; only the noise term remains
        params = make_params()
        got = realization_mse(single_device(2.0, 1.0), 4.0, params)
        assert got == pytest.approx(params.noise_power / 4.0, rel=1e-12)

    def test_clamp_vs_annulus_inner_device(self):
        params = make_params()
        re = Realization(distances=np.array([0.5, 2.0]),
                         fadings=np.array([1.0, 1.0]))
        clamp = realization_mse(re, 4.0, params, mode="clamp")
        annulus = realization_mse(re, 4.0, params, mode="annulus")
        # clamp treats the inner device as if at 1 m; annulus drops it
        assert clamp == pytest.approx(params.noise_power / 4.0 / 2.0, rel=1e-12)
        assert annulus == pytest.approx(params.noise_power / 4.0, rel=1e-12)

    def test_empty_raises(self):
        params = make_params()
        re = Realization(distances=np.array([0.5]), fadings=np.array([1.0]))
        with pytest.raises(EmptyRealizationError):
            realization_mse(re, 4.0, params, mode="annulus")

    def test_matches_frozen_objective(self):
        params = make_params()
        rng = np.random.default_rng(0)
        re = Realization(distances=rng.uniform(1.0, 10.0, 8),
                         fadings=rng.rayleigh(0.7, 8))
        eta = 6.0
        powers = transmit_power(re.distances, re.fadings, eta, params)
        assert realization_mse(re, eta, params) == pytest.approx(
            frozen_power_objective(re, powers, eta, params), rel=1e-14)


    def test_long_realization_is_the_plain_formula(self):
        # with 1000 devices the sum must round as np.sum does; a sequential
        # or segmented reduction (np.add.reduceat) rounds differently
        params = make_params()
        rng = np.random.default_rng(3)
        d, h = rng.uniform(1.0, 10.0, 1000), rng.rayleigh(0.7, 1000)
        eta = 6.0
        powers = transmit_power(d, h, eta, params)
        amp = d ** (-0.5 * params.alpha) * np.sqrt(powers) * h / math.sqrt(eta)
        want = (float(np.sum((amp - 1.0) ** 2)) + params.noise_power / eta) / d.size
        got = realization_mse(Realization(distances=d, fadings=h), eta, params)
        assert got == want


def nonempty_realization_mses(params, eta, n_iter, seed, mode):
    """realization_mse of each non-empty (seed, i) realization, one by one."""
    values = []
    for i in range(n_iter):
        re = sample_ppp_disc(realization_rng(seed, i), params)
        if effective_devices(re, mode)[0].size:
            values.append(realization_mse(re, eta, params, mode))
    return values


class TestEstimateMse:
    def test_deterministic(self):
        params = make_params()
        a = estimate_mse(params, 10.0, 200, seed=3)
        b = estimate_mse(params, 10.0, 200, seed=3)
        assert a == b

    def test_seed_changes_result(self):
        params = make_params()
        a = estimate_mse(params, 10.0, 200, seed=3)
        b = estimate_mse(params, 10.0, 200, seed=4)
        assert a.mean != b.mean

    @pytest.mark.parametrize("cell, n_iter, n_jobs", [
        ({}, 400, 4),
        ({}, 401, 3),
        ({"density": 0.001, "radius": 5.0}, 2000, 4),  # mostly empty draws
    ], ids=["even", "uneven", "near-empty"])
    def test_parallel_bit_identical(self, cell, n_iter, n_jobs):
        params = make_params(**cell)
        serial = estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=1)
        parallel = estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=n_jobs)
        assert serial == parallel

    @pytest.mark.parametrize("mode", ["clamp", "annulus"])
    def test_mean_over_nonempty_realizations(self, mode):
        params = make_params(density=0.02, radius=5.0)  # mean count ~1.6
        values = nonempty_realization_mses(params, 10.0, 500, 8, mode)
        est = estimate_mse(params, 10.0, 500, seed=8, mode=mode)
        assert est.n_used == len(values) < 500
        assert est.mean == np.mean(values)

    def test_standard_error_scaling(self):
        params = make_params()
        small = estimate_mse(params, 10.0, 500, seed=6)
        large = estimate_mse(params, 10.0, 8000, seed=6)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(math.sqrt(8000 / 500), rel=0.35)

    def test_empty_realizations_skipped(self):
        # near-empty cell: lambda pi (R^2) ~ 0.2, most draws have no devices
        params = make_params(density=0.001, radius=5.0)
        est = estimate_mse(params, 10.0, 2000, seed=7)
        assert est.n_used < est.n_total
        assert est.n_used > 0

    def test_invalid_args(self):
        params = make_params()
        with pytest.raises(ValueError):
            estimate_mse(params, 10.0, 0, seed=0)
        with pytest.raises(ValueError):
            estimate_mse(params, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_mse(params, 10.0, 10, seed=0, n_jobs=0)
        with pytest.raises(ValueError, match="unknown mode"):
            estimate_mse(params, 10.0, 10, seed=0, mode="square")
        with pytest.raises(ValueError, match="unknown mode"):
            sample_ppp_chunks(params, 0, 0, 10, "square")  # before any draw


@settings(max_examples=40, deadline=None, database=None)
@given(density=st.floats(1e-3, 0.1), radius=st.floats(1.05, 40.0),
       alpha=st.floats(1.5, 5.0), epsilon=st.floats(0.0, 1.0),
       rician_b=st.floats(0.0, 30.0), log_eta=st.floats(-3.0, 5.0),
       seed=st.integers(0, 2 ** 63), n_iter=st.integers(1, 300),
       mode=st.sampled_from(model.MODES))
def test_estimate_is_mean_of_realization_mses(density, radius, alpha, epsilon,
                                              rician_b, log_eta, seed, n_iter,
                                              mode):
    params = make_params(density=density, radius=radius, alpha=alpha,
                         epsilon=epsilon, rician_b=rician_b)
    eta = 10.0 ** log_eta
    values = nonempty_realization_mses(params, eta, n_iter, seed, mode)
    if not values:
        with pytest.raises(EmptyRealizationError):
            estimate_mse(params, eta, n_iter, seed, mode=mode)
        return
    est = estimate_mse(params, eta, n_iter, seed, mode=mode)
    assert est.n_used == len(values)
    assert est.mean == np.mean(values)


class TestChunkBoundaries:
    """Where a chunk ends must not change any Monte Carlo output."""

    CELLS = [({}, 600), ({"density": 0.001, "radius": 5.0}, 2000)]

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("mode", model.MODES)
    @pytest.mark.parametrize("cell, n_iter", CELLS, ids=["readme", "near-empty"])
    def test_estimate_mse(self, monkeypatch, chunk, mode, cell, n_iter):
        params = make_params(**cell)
        default = estimate_mse(params, 10.0, n_iter, seed=9, mode=mode)
        monkeypatch.setattr(model, "CHUNK_DEVICES", chunk)
        assert estimate_mse(params, 10.0, n_iter, seed=9, mode=mode) == default

    @pytest.mark.parametrize("mode", model.MODES)
    def test_chunks_are_the_per_realization_devices(self, monkeypatch, mode):
        params = make_params(density=0.02, radius=5.0)
        monkeypatch.setattr(model, "CHUNK_DEVICES", 7)
        got = [(d[a:b], h[a:b])
               for d, h, bounds in sample_ppp_chunks(params, 4, 10, 200, mode)
               for a, b in zip(bounds, bounds[1:])]
        assert len(got) == 190
        for i, (d, h) in enumerate(got, start=10):
            want_d, want_h = effective_devices(
                sample_ppp_disc(realization_rng(4, i), params), mode)
            assert np.array_equal(d, want_d) and np.array_equal(h, want_h)

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_campbell_check(self, monkeypatch, chunk):
        params, n_iter, seed = make_params(), 1000, 11
        if chunk is not None:
            monkeypatch.setattr(model, "CHUNK_DEVICES", chunk)
        report = campbell_check(params, n_iter, seed)
        # the per-realization loop campbell_check replaced
        sums = np.zeros((n_iter, 3))
        for i in range(n_iter):
            d, h = effective_devices(
                sample_ppp_disc(realization_rng(seed, i), params), "annulus")
            sums[i] = (d.size,
                       float(np.sum(d ** -params.alpha * h ** 2)),
                       float(np.sum(d ** (-0.5 * params.alpha) * h)))
        emp = sums.mean(axis=0)
        se = sums.std(axis=0, ddof=1) / math.sqrt(n_iter)
        assert report.empirical == tuple(float(v) for v in emp)
        assert report.z_scores == tuple(
            float((e - t) / s) for e, t, s in zip(emp, report.target, se))


class TestCampbellCheck:
    def test_disc_window_within_tolerance(self):
        report = campbell_check(make_params(), n_iter=4000, seed=11)
        assert report.names == ("count", "received_power", "received_amplitude")
        assert report.max_abs_z() < 4.0

    def test_requires_enough_iterations(self):
        with pytest.raises(ValueError):
            campbell_check(make_params(), n_iter=10, seed=0)
