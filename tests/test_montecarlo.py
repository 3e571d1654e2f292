import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import model, montecarlo
from aircomp.acceptance import campbell_check
from aircomp.model import NetworkParams, sample_ppp_chunks, transmit_power
from aircomp.montecarlo import (EmptyRealizationError, MseEstimate,
                                estimate_mse, eta_star_realization,
                                realization_mse)
from stream_contract import contract_devices, inner_disc_policy


def single_device(d, h):
    return np.array([float(d)]), np.array([float(h)])


def mse(d, h, eta, params):
    """realization_mse with the transmit powers at eta."""
    return realization_mse(d, h, transmit_power(d, h, eta, params), eta, params)


class TestRealizationMse:
    def test_capped_single_device(self):
        # d = 2, alpha = 2, h = 1, eta = P_max: threshold is 2 > 1, so the
        # device transmits at P_max and the misalignment is (1/2 - 1)^2
        params = NetworkParams(alpha=2.0)
        eta = params.p_max
        got = mse(*single_device(2.0, 1.0), eta, params)
        assert got == pytest.approx(0.25 + params.noise_power / eta, rel=1e-12)

    def test_uncapped_single_device(self):
        # inverted power aligns perfectly; only the noise term remains
        params = NetworkParams()
        got = mse(*single_device(2.0, 1.0), 4.0, params)
        assert got == pytest.approx(params.noise_power / 4.0, rel=1e-12)

    def test_clamp_vs_annulus_inner_device(self):
        params = NetworkParams()
        d, h = np.array([0.5, 2.0]), np.array([1.0, 1.0])
        clamp = mse(*inner_disc_policy(d, h, "clamp"), 4.0, params)
        annulus = mse(*inner_disc_policy(d, h, "annulus"), 4.0, params)
        # clamp treats the inner device as if at 1 m; annulus drops it
        assert clamp == pytest.approx(params.noise_power / 4.0 / 2.0, rel=1e-12)
        assert annulus == pytest.approx(params.noise_power / 4.0, rel=1e-12)

    def test_empty_raises(self):
        params = NetworkParams()
        d, h = inner_disc_policy(np.array([0.5]), np.array([1.0]), "annulus")
        with pytest.raises(EmptyRealizationError):
            realization_mse(d, h, np.array([]), 4.0, params)

    def test_matches_frozen_objective(self):
        # powers frozen at eta_ref, objective evaluated at another eta
        params = NetworkParams()
        rng = np.random.default_rng(0)
        d, h = rng.uniform(1.0, 10.0, 8), rng.rayleigh(0.7, 8)
        eta_ref, eta = 6.0, 9.0
        powers = transmit_power(d, h, eta_ref, params)
        amp = d ** (-0.5 * params.alpha) * np.sqrt(powers) * h / math.sqrt(eta)
        want = (np.sum((amp - 1.0) ** 2) + params.noise_power / eta) / d.size
        assert realization_mse(d, h, powers, eta, params) == pytest.approx(
            want, rel=1e-14)
        assert realization_mse(d, h, powers, eta, params) != mse(d, h, eta, params)
        with pytest.raises(ValueError):
            realization_mse(d, h, powers, 0.0, params)

    def test_long_realization_is_the_plain_formula(self):
        # with 1000 devices the sum must round as np.sum does; a sequential
        # or segmented reduction (np.add.reduceat) rounds differently
        params = NetworkParams()
        rng = np.random.default_rng(3)
        d, h = rng.uniform(1.0, 10.0, 1000), rng.rayleigh(0.7, 1000)
        eta = 6.0
        powers = transmit_power(d, h, eta, params)
        amp = d ** (-0.5 * params.alpha) * np.sqrt(powers) * h / math.sqrt(eta)
        want = (float(np.sum((amp - 1.0) ** 2)) + params.noise_power / eta) / d.size
        got = mse(d, h, eta, params)
        assert got == want


class TestEtaStarRealization:
    def test_single_device_closed_form(self):
        # one device at d = 1, h = 1: eta_ref = P_max keeps it on the cap,
        # so eta* = ((P_max + w^2) / sqrt(P_max))^2
        params = NetworkParams()
        got = eta_star_realization(np.array([1.0]), np.array([1.0]),
                                   params.p_max, params)
        want = ((params.p_max + params.noise_power) ** 2) / params.p_max
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        params = NetworkParams()
        with pytest.raises(ValueError):
            eta_star_realization(np.array([]), np.array([]), 1.0, params)


def nonempty_realization_mses(params, eta, n_iter, seed, mode):
    """realization_mse of each non-empty (seed, i) realization, one by one,
    each drawn from the stream contract."""
    values = []
    for i in range(n_iter):
        d, h = contract_devices(params, seed, i, mode)
        if d.size:
            values.append(mse(d, h, eta, params))
    return values


class TestEstimateMse:
    def test_deterministic(self):
        params = NetworkParams()
        a = estimate_mse(params, 10.0, 200, seed=3)
        b = estimate_mse(params, 10.0, 200, seed=3)
        assert a == b

    def test_estimate_rejects_more_used_than_total(self):
        with pytest.raises(ValueError, match="n_used cannot exceed n_total"):
            MseEstimate(mean=1.0, std_error=0.1, n_total=10, n_used=11)

    def test_seed_changes_result(self):
        params = NetworkParams()
        a = estimate_mse(params, 10.0, 200, seed=3)
        b = estimate_mse(params, 10.0, 200, seed=4)
        assert a.mean != b.mean

    @pytest.mark.parametrize("cell, n_iter, n_jobs", [
        ({}, 400, 4),
        ({}, 401, 3),
        ({"density": 0.001, "radius": 5.0}, 2000, 4),  # mostly empty draws
    ], ids=["even", "uneven", "near-empty"])
    def test_parallel_bit_identical(self, cell, n_iter, n_jobs):
        params = NetworkParams(**cell)
        serial = estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=1)
        parallel = estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=n_jobs)
        assert serial == parallel

    @pytest.mark.parametrize("n_iter, n_jobs, cpus, workers", [
        (10, 500, 4, 4), (3, 8, 16, 3), (400, 4, 2, 2), (400, 4, None, 1),
        (2000, 4, 4, 4),
    ], ids=["cpus", "iters", "jobs-over-cpus", "no-cpu-count", "four-ranges"])
    def test_worker_count_capped(self, monkeypatch, n_iter, n_jobs, cpus, workers):
        # min(n_jobs, n_iter, cpu count) processes, one range each; the
        # stand-in Pool records its size and range count and starts nothing.
        # Four ranges of 2000 realizations put [1000, 1500) across the
        # 1024-index hash block, whatever the host's CPU count
        started, mapped = [], []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                mapped.append(len(items))
                return [func(item) for item in items]

        monkeypatch.setattr(montecarlo, "Pool", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        params = NetworkParams()
        got = estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=n_jobs)
        assert montecarlo.worker_count(n_jobs, n_iter) == workers
        assert started == ([workers] if workers > 1 else [])
        assert mapped == ([workers] if workers > 1 else [])
        assert got == estimate_mse(params, 10.0, n_iter, seed=5, n_jobs=1)

    @pytest.mark.parametrize("mode", ["clamp", "annulus"])
    def test_mean_over_nonempty_realizations(self, mode):
        params = NetworkParams(density=0.02, radius=5.0)  # mean count ~1.6
        values = nonempty_realization_mses(params, 10.0, 500, 8, mode)
        est = estimate_mse(params, 10.0, 500, seed=8, mode=mode)
        assert est.n_used == len(values) < 500
        assert est.mean == np.mean(values)

    def test_standard_error_scaling(self):
        params = NetworkParams()
        small = estimate_mse(params, 10.0, 500, seed=6)
        large = estimate_mse(params, 10.0, 8000, seed=6)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(math.sqrt(8000 / 500), rel=0.35)

    def test_empty_realizations_skipped(self):
        # near-empty cell: lambda pi (R^2) ~ 0.2, most draws have no devices
        params = NetworkParams(density=0.001, radius=5.0)
        est = estimate_mse(params, 10.0, 2000, seed=7)
        assert est.n_used < est.n_total
        assert est.n_used > 0

    def test_invalid_args(self):
        params = NetworkParams()
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

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_bad_seed(self, n_jobs):
        # SeedSequence's errors, raised at once: a negative seed's word split
        # must not loop for ever
        params = NetworkParams()
        with pytest.raises(ValueError):
            estimate_mse(params, 10.0, 10, seed=-1, n_jobs=n_jobs)
        with pytest.raises(TypeError):
            estimate_mse(params, 10.0, 10, seed=1.0, n_jobs=n_jobs)


@settings(max_examples=40, deadline=None, database=None)
@given(density=st.floats(1e-3, 0.1), radius=st.floats(1.05, 40.0),
       alpha=st.floats(1.5, 5.0), epsilon=st.floats(0.0, 1.0),
       rician_b=st.floats(0.0, 30.0), log_eta=st.floats(-3.0, 5.0),
       seed=st.integers(0, 2 ** 63), n_iter=st.integers(1, 300),
       mode=st.sampled_from(model.MODES))
def test_estimate_is_mean_of_realization_mses(density, radius, alpha, epsilon,
                                              rician_b, log_eta, seed, n_iter,
                                              mode):
    params = NetworkParams(density=density, radius=radius, alpha=alpha,
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
        params = NetworkParams(**cell)
        default = estimate_mse(params, 10.0, n_iter, seed=9, mode=mode)
        monkeypatch.setattr(model, "CHUNK_DEVICES", chunk)
        assert estimate_mse(params, 10.0, n_iter, seed=9, mode=mode) == default

    @pytest.mark.parametrize("mode", model.MODES)
    def test_chunks_are_the_per_realization_devices(self, monkeypatch, mode):
        params = NetworkParams(density=0.02, radius=5.0)
        monkeypatch.setattr(model, "CHUNK_DEVICES", 7)
        got = [(d[a:b], h[a:b])
               for d, h, bounds in sample_ppp_chunks(params, 4, 10, 200, mode)
               for a, b in zip(bounds, bounds[1:])]
        assert len(got) == 190
        for i, (d, h) in enumerate(got, start=10):
            want_d, want_h = contract_devices(params, 4, i, mode)
            assert np.array_equal(d, want_d) and np.array_equal(h, want_h)
        # the policy acts here: some of these devices lie within 1 m
        assert any(np.any(contract_devices(params, 4, i, "clamp")[0] == 1.0)
                   for i in range(10, 200))

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_campbell_check(self, monkeypatch, chunk):
        params, n_iter, seed = NetworkParams(), 1000, 11
        if chunk is not None:
            monkeypatch.setattr(model, "CHUNK_DEVICES", chunk)
        report = campbell_check(params, n_iter, seed)
        # the per-realization loop campbell_check replaced
        sums = np.zeros((n_iter, 3))
        for i in range(n_iter):
            d, h = contract_devices(params, seed, i, "annulus")
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
        report = campbell_check(NetworkParams(), n_iter=4000, seed=11)
        assert report.names == ("count", "received_power", "received_amplitude")
        assert report.max_abs_z() < 4.0

    def test_requires_enough_iterations(self):
        with pytest.raises(ValueError):
            campbell_check(NetworkParams(), n_iter=10, seed=0)
