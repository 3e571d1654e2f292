import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from aircomp.analytical import (VARIANTS, eta_upper_bound, log_eta_grid,
                                mse_analytic, optimize_eta, rician_mean)
from aircomp.model import NetworkParams, transmit_power
from aircomp.montecarlo import realization_mse
from aircomp.numerics import integrate
from aircomp.specfun import marcum_q1, poisson_inverse_moment, rician_pdf


@functools.cache
def brute_force_totals(params, eta):
    """Nested scipy quadrature of the defining double integrals: every
    variant's total from one capped-branch integral, which takes nearly all
    the time, and one Marcum-weighted radial integral per constant."""
    rp = params.rician()
    s = params.alpha * params.epsilon
    ratio = math.sqrt(params.p_max / eta)
    v_cap = rp.c + 25.0 * rp.sigma

    def capped_inner(r):
        d = r ** (0.5 * s) / ratio
        hi = min(d, v_cap)
        if hi <= 0:
            return 0.0
        val, _ = sp_integrate.quad(
            lambda v: rician_pdf(v, rp)
            * (ratio ** 2 * v * v * r ** (1.0 - params.alpha)
               - 2.0 * ratio * v * r ** (1.0 - 0.5 * params.alpha)),
            0.0, hi, limit=200)
        return val

    capped, _ = sp_integrate.quad(capped_inner, 1.0, params.radius, limit=200)
    a = rp.c / rp.sigma

    def marcum(kappa):
        def integrand(r):
            d = r ** (0.5 * s) / ratio
            poly = r ** (s - params.alpha) - 2.0 * r ** (0.5 * (s - params.alpha)) + kappa
            return poly * r * float(marcum_q1(a, d / rp.sigma))

        return sp_integrate.quad(integrand, 1.0, params.radius, limit=200)[0]

    geom = 0.5 * (params.radius ** 2 - 1.0)
    mu = params.mean_count
    k_factor = poisson_inverse_moment(mu)
    noise = params.noise_power / eta
    marc = {kappa: marcum(kappa) for kappa in (0.0, 2.0)}
    totals = {}
    for variant in VARIANTS:
        kappa = 2.0 if variant == "printed" else 0.0
        misalignment = 2.0 * math.pi * params.density * (capped + geom + marc[kappa])
        if variant == "conditional":
            totals[variant] = misalignment / mu + k_factor * noise / (1.0 - math.exp(-mu))
        else:
            totals[variant] = k_factor * (misalignment + noise)
    return totals


class TestMseAnalytic:
    @pytest.mark.parametrize("variant", VARIANTS)
    # alpha = 2 and 4 put power_integral's logarithmic branch (p = -1) under
    # the capped term's r^(1 - alpha) and r^(1 - alpha / 2) respectively
    @pytest.mark.parametrize("alpha, eta", [
        (2.1, 1.0), (2.1, 25.0), (2.1, 400.0), (2.0, 25.0), (4.0, 25.0),
    ], ids=["1.0", "25.0", "400.0", "alpha2-25.0", "alpha4-25.0"])
    def test_against_nested_quadrature(self, variant, alpha, eta):
        params = NetworkParams(alpha=alpha)
        got = mse_analytic(params, eta, variant).total
        want = brute_force_totals(params, eta)[variant]
        assert got == pytest.approx(want, rel=1e-6)

    def test_variant_gap_identity(self):
        # printed - rederived = K * 2 pi lambda * int 2 r Q1(c/s, D(r)/s) dr
        params = NetworkParams()
        eta = 25.0
        rp = params.rician()
        ratio = math.sqrt(params.p_max / eta)
        s = params.alpha * params.epsilon
        gap_integral, _ = sp_integrate.quad(
            lambda r: 2.0 * r * float(marcum_q1(
                rp.c / rp.sigma, r ** (0.5 * s) / ratio / rp.sigma)),
            1.0, params.radius, limit=200)
        k = poisson_inverse_moment(params.mean_count)
        want_gap = k * 2.0 * math.pi * params.density * gap_integral
        got_gap = (mse_analytic(params, eta, "printed").total
                   - mse_analytic(params, eta, "rederived").total)
        assert got_gap == pytest.approx(want_gap, rel=1e-7)
        assert got_gap > 0

    def test_epsilon_zero_branch(self):
        params = NetworkParams(epsilon=0.0)
        got = mse_analytic(params, 25.0, "rederived").total
        want = brute_force_totals(params, 25.0)["rederived"]
        assert got == pytest.approx(want, rel=1e-6)

    def test_epsilon_zero_is_continuous_limit(self):
        # the capped integrand's s = 0 case (r_lo = 1) is the s -> 0 limit
        for rician_b in (0.0, 15.0):
            zero = NetworkParams(epsilon=0.0, rician_b=rician_b)
            near = NetworkParams(epsilon=1e-12, rician_b=rician_b)
            for variant in VARIANTS:
                for eta in (1e-3, 25.0, 1e4):
                    assert mse_analytic(near, eta, variant).total == pytest.approx(
                        mse_analytic(zero, eta, variant).total, rel=1e-10), \
                        (variant, rician_b, eta)

    def test_breakdown_reassembles(self):
        params = NetworkParams()
        b = mse_analytic(params, 25.0, "rederived")
        total = b.k_factor * (2.0 * math.pi * params.density * b.bracket
                              + b.noise_term)
        assert b.total == pytest.approx(total, rel=1e-14)
        assert b.noise_term == pytest.approx(params.noise_power / 25.0)

    def test_noise_dominates_small_eta(self):
        params = NetworkParams()
        tiny = mse_analytic(params, 1e-9, "rederived")
        assert tiny.noise_term / tiny.total * tiny.k_factor > 0.999

    def test_invalid_inputs(self):
        params = NetworkParams()
        with pytest.raises(ValueError):
            mse_analytic(params, 25.0, "exact")
        with pytest.raises(ValueError):
            mse_analytic(params, 0.0)

    def test_conditional_matches_fixed_count_simulation(self):
        # Given K = k the devices are iid uniform in the disc, so the mean
        # per-realization MSE is 2 I / R^2 + w^2 / (eta k), with I the
        # rederived bracket integral; the conditional variant rests on this.
        params = NetworkParams()
        eta = 10.0
        b = mse_analytic(params, eta, "rederived")
        misalignment = 2.0 * b.bracket / params.radius ** 2
        rp = params.rician()
        rng = np.random.default_rng(1234)
        for k in (1, 2, 5, 20):
            values = []
            for _ in range(4000):
                d = np.maximum(params.radius * np.sqrt(rng.uniform(size=k)), 1.0)
                g1, g2 = rng.standard_normal(k), rng.standard_normal(k)
                h = np.hypot(rp.c + rp.sigma * g1, rp.sigma * g2)
                powers = transmit_power(d, h, eta, params)
                values.append(realization_mse(d, h, powers, eta, params))
            values = np.array(values)
            std_error = values.std(ddof=1) / math.sqrt(values.size)
            want = misalignment + params.noise_power / (eta * k)
            assert abs(values.mean() - want) <= 3.0 * std_error, k

    def test_rician_mean_reference(self):
        # B = 0 Rayleigh: E[h] = sqrt(pi)/2
        assert rician_mean(NetworkParams(rician_b=0.0)) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-8)


# random networks for the eta-array properties: alpha = 2 puts
# power_integral's logarithmic branch under the capped term, epsilon = 0 the
# radius-independent cap, B = 0 Rayleigh fading
NETWORKS = st.builds(
    NetworkParams,
    density=st.floats(0.005, 0.2),
    radius=st.floats(1.5, 40.0),
    alpha=st.just(2.0) | st.floats(2.0, 4.5),
    epsilon=st.sampled_from([0.0, 0.5, 1.0]),
    rician_b=st.just(0.0) | st.floats(0.0, 20.0),
    p_max=st.floats(10.0, 1e4),
)
ETAS = st.lists(st.floats(-6.0, 5.0).map(lambda e: 10.0 ** e), min_size=1, max_size=5)


class TestMseAnalyticEtaArray:
    """An eta array evaluates every eta in one lockstep pass."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(params=NETWORKS, etas=ETAS)
    def test_matches_scalar_calls(self, params, etas):
        for variant in VARIANTS:
            batched = mse_analytic(params, np.array(etas), variant)
            assert isinstance(batched.total, np.ndarray)
            assert batched.total.shape == (len(etas),)
            assert np.all(batched.total > 0)
            for i, eta in enumerate(etas):
                one = mse_analytic(params, eta, variant)
                assert isinstance(one.total, float)
                for field in ("bracket", "noise_term", "total"):
                    assert getattr(batched, field)[i] == pytest.approx(
                        getattr(one, field), rel=1e-13, abs=0), (variant, eta, field)
                assert batched.k_factor == one.k_factor

    @settings(max_examples=15, deadline=None, database=None)
    @given(params=NETWORKS, etas=ETAS)
    def test_bracket_and_noise_term_free_of_density(self, params, etas):
        etas = np.array(etas)
        denser = replace(params, density=3.7 * params.density)
        rederived = mse_analytic(params, etas, "rederived")
        for variant in VARIANTS:
            b = mse_analytic(params, etas, variant)
            other = mse_analytic(denser, etas, variant)
            assert np.array_equal(b.bracket, other.bracket), variant
            assert np.array_equal(b.noise_term, other.noise_term), variant
            misalignment = 2.0 * math.pi * params.density * b.bracket
            if variant == "conditional":
                assert np.array_equal(b.bracket, rederived.bracket)
                mu = params.mean_count
                total = misalignment / mu - b.k_factor * b.noise_term / math.expm1(-mu)
            else:
                total = b.k_factor * (misalignment + b.noise_term)
            assert np.array_equal(b.total, total), variant

    @settings(max_examples=15, deadline=None, database=None)
    @given(params=NETWORKS, etas=ETAS)
    def test_variant_gap_identity_per_eta(self, params, etas):
        # printed - rederived = K * 2 pi lambda * int_1^R 2 r Q1(c/s, D(r)/s) dr
        # at every eta, the gap integrals taken in one lockstep integrate
        etas = np.array(etas)
        rp = params.rician()
        ratio = np.sqrt(params.p_max / etas)
        s = params.alpha * params.epsilon
        gap_integral = integrate(
            lambda r, k: 2.0 * r * marcum_q1(
                rp.c / rp.sigma, r ** (0.5 * s) / ratio[k] / rp.sigma),
            1.0, np.full(etas.size, params.radius), 1e-10, 1e-14)
        want = poisson_inverse_moment(params.mean_count) \
            * 2.0 * math.pi * params.density * gap_integral
        rederived = mse_analytic(params, etas, "rederived").total
        got = mse_analytic(params, etas, "printed").total - rederived
        # a gap below the totals' rounding (a deep Marcum tail) cancels
        assert np.all(got >= 0)
        assert np.all(np.abs(got - want) <= 1e-7 * want + 1e-13 * rederived)

    def test_float_eta_gives_floats(self):
        b = mse_analytic(NetworkParams(), 25.0, "rederived")
        assert all(type(getattr(b, field)) is float for field in (
            "k_factor", "bracket", "noise_term", "total"))

    def test_invalid_eta_arrays(self):
        params = NetworkParams()
        with pytest.raises(ValueError, match="eta must be > 0"):
            mse_analytic(params, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="eta must be > 0"):
            mse_analytic(params, np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="1-D"):
            mse_analytic(params, np.ones((2, 2)))


class TestEtaUpperBound:
    def test_components_positive_and_max(self):
        b = eta_upper_bound(NetworkParams())
        assert b.value == max(b.capped_moment_printed,
                              b.capped_moment_appendix, b.ratio_moment)
        assert min(b.capped_moment_printed, b.capped_moment_appendix,
                   b.ratio_moment) > 0

    def test_capped_readings_reciprocal(self):
        params = NetworkParams()
        b = eta_upper_bound(params)
        prod = b.capped_moment_printed * b.capped_moment_appendix
        assert prod == pytest.approx(params.p_max ** 2, rel=1e-12)

    def test_bound_below_p_max_scale(self):
        # with the bracket < 1 the larger capped reading exceeds P_max
        b = eta_upper_bound(NetworkParams())
        assert max(b.capped_moment_printed, b.capped_moment_appendix) >= \
            NetworkParams().p_max


class TestOptimizeEta:
    def test_interior_optimum_figure_setup(self):
        params = NetworkParams(density=0.05, radius=10.0)
        opt = optimize_eta(params)
        assert not opt.boundary
        assert not opt.extended
        assert 0 < opt.eta < opt.search_hi
        # first-order check: the optimum beats nearby points
        for factor in (0.97, 1.03):
            assert opt.mse <= mse_analytic(params, opt.eta * factor,
                                           "rederived").total + 1e-15

    def test_search_extends_past_the_bound(self):
        # at epsilon = 0 the printed optimum lies above eta_upper_bound, so
        # the search interval is inflated once, tenfold
        params = NetworkParams(epsilon=0.0)
        bound = eta_upper_bound(params).value
        opt = optimize_eta(params, "printed")
        assert opt.extended and not opt.boundary
        assert opt.search_hi == 10.0 * bound
        assert bound < opt.eta < opt.search_hi

    def test_respects_variant(self):
        params = NetworkParams()
        a = optimize_eta(params, variant="printed")
        b = optimize_eta(params, variant="rederived")
        assert a.mse > b.mse  # printed carries the extra positive term

    def test_matches_dense_grid_on_mse_objective(self):
        # independent oracle: a 1000-point log grid over a bracket that can
        # resolve the 1% tolerance
        params = NetworkParams(density=0.05, radius=15.0, alpha=2.1)
        opt = optimize_eta(params, "rederived")
        grid = np.exp(np.linspace(math.log(0.1), math.log(1000.0), 1000))
        j = int(np.argmin(mse_analytic(params, grid, "rederived").total))
        assert opt.eta == pytest.approx(grid[j], rel=0.01)


class TestLogEtaGrid:
    def test_spans_floor_to_eta_hi_evenly_in_log(self):
        params = NetworkParams(noise_power=2.0)
        etas = log_eta_grid(params, 500.0, 64)
        assert etas.shape == (64,)
        assert etas[0] == pytest.approx(2e-6, rel=1e-14)
        assert etas[-1] == pytest.approx(500.0, rel=1e-14)
        np.testing.assert_allclose(np.diff(np.log(etas)),
                                   math.log(500.0 / 2e-6) / 63, rtol=1e-9)

    def test_eta_hi_must_exceed_the_floor(self):
        params = NetworkParams(noise_power=2.0)
        for eta_hi in (2e-6, 1e-6, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta_hi"):
                log_eta_grid(params, eta_hi, 64)

