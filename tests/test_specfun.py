import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from aircomp.numerics import integrate
from aircomp.specfun import (RicianParams, bessel_i0e, marcum_q1,
                             poisson_inverse_moment, rician_pdf)

TIGHT = (1e-11, 1e-15)  # (rel_tol, abs_tol)


def i0_series_oracle(x: float, terms: int = 50) -> float:
    """Independent 50-term power series with compensated summation."""
    vals = []
    term = 1.0
    for m in range(terms):
        vals.append(term)
        term *= (x / 2.0) ** 2 / ((m + 1) ** 2)
    return math.fsum(vals)


def marcum_q1_series_oracle(a: float, b: np.ndarray) -> np.ndarray:
    """The same Poisson-mixture series term by term, one upward recurrence
    per n over all of b (the form marcum_q1 had before its table form)."""
    y = 0.5 * b * b
    x = 0.5 * a * a
    w = math.exp(-x)
    cum_w = w
    p = np.exp(-y)
    gup = np.exp(-y)
    acc = w * gup
    n = 0
    n_max = int(x + 12.0 * math.sqrt(x) + 60.0)
    while n < n_max and 1.0 - cum_w > 1e-17:
        n += 1
        w *= x / n
        cum_w += w
        p = p * y / n
        gup = gup + p
        acc = acc + w * gup
    return np.where(y == 0.0, 1.0, np.clip(acc, 0.0, 1.0))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelContract:
    KERNELS = {"bessel_i0e": bessel_i0e,
               "marcum_q1": lambda x: marcum_q1(math.sqrt(10.0), x)}

    @pytest.mark.parametrize("name", KERNELS)
    def test_scalar_in_float_out(self, name):
        assert type(self.KERNELS[name](3.0)) is float

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    def test_array_keeps_shape(self, name, shape):
        x = np.linspace(0.0, 12.0, math.prod(shape)).reshape(shape)
        out = self.KERNELS[name](x)
        assert isinstance(out, np.ndarray) and out.shape == shape
        np.testing.assert_allclose(
            out.ravel(), [self.KERNELS[name](float(v)) for v in x.ravel()],
            rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", KERNELS)
    def test_memory_bounded_at_1e5_points(self, name):
        # marcum_q1 at a^2/2 = 5 runs its series to n_max = 91, so an
        # unblocked (terms x points) table would need 74 MB
        x = np.random.default_rng(0).uniform(0.0, 40.0, 100_000)
        kernel = self.KERNELS[name]
        assert _peak_bytes(lambda: kernel(x)) <= 8e6


class TestBesselI0:
    def test_zero(self):
        assert bessel_i0e(0.0) == 1.0

    @pytest.mark.parametrize("x,expected", [(1.0, 1.266066), (10.0, 2815.7166)])
    def test_reference_values(self, x, expected):
        # expected is I0(x); bessel_i0e is e^{-x} I0(x)
        scaled = math.exp(-x)
        assert bessel_i0e(x) == pytest.approx(scaled * i0_series_oracle(x), rel=1e-12)
        assert bessel_i0e(x) == pytest.approx(scaled * expected, rel=1e-6)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 29.9, 30.1, 80.0, 500.0])
    def test_scaled_consistency(self, x):
        assert bessel_i0e(x) == pytest.approx(special.i0e(x), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0e(-1.0)

    def test_overflow_directs_to_scaled(self):
        # I0(800) overflows a double; its scaled form stays accurate
        assert bessel_i0e(800.0) == pytest.approx(special.i0e(800.0), rel=1e-12)

    def test_matches_scipy_on_whole_range(self):
        split = [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]
        x = np.concatenate([np.linspace(0.0, 2000.0, 200_001),
                            8.0 + np.linspace(-1e-6, 1e-6, 101), split])
        np.testing.assert_allclose(bessel_i0e(x), special.i0e(x), rtol=1e-14, atol=0)


class TestMarcumQ1:
    def test_b_zero_is_one(self):
        for a in (0.0, 0.5, 2.5, 6.0):
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_gaussian_tail(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-14)

    def test_a_zero_is_exp_exactly(self):
        # at a = 0 the series has the one Poisson weight 1 and the row e^{-y}
        b = np.concatenate([[0.0, 1e-300, 40.0], np.linspace(0.0, 40.0, 401),
                            np.logspace(-10, 3, 131)])
        assert np.array_equal(marcum_q1(0.0, b), np.exp(-0.5 * b * b))
        got = marcum_q1(0.0, 2.0)
        assert type(got) is float and got == float(np.exp(-2.0))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    def test_diagonal_identity(self, a):
        ident = 0.5 * (1.0 + float(bessel_i0e(a * a)))
        assert marcum_q1(a, a) == pytest.approx(ident, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(0.3, 1.2), (1.0, 1.0), (2.0, 4.0),
                                     (6.4, 5.0), (6.4, 8.0), (0.1, 0.1)])
    def test_against_noncentral_chi2(self, a, b):
        # Q1(a, b) is the survival of a 2-dof noncentral chi-square at b^2
        assert marcum_q1(a, b) == pytest.approx(
            stats.ncx2.sf(b * b, 2, a * a), abs=1e-11)

    def test_monotone_in_arguments(self):
        bs = np.linspace(0.0, 6.0, 25)
        for a in (0.0, 0.5, 1.5, 3.0, 6.4):
            vals = np.asarray(marcum_q1(a, bs))
            assert np.all(np.diff(vals) <= 1e-14)
        a_grid = np.linspace(0.0, 6.0, 25)
        for b in (0.5, 1.5, 3.0):
            vals = [marcum_q1(float(a), b) for a in a_grid]
            assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, math.sqrt(2.0), math.sqrt(10.0),
                                   math.sqrt(20.0), math.sqrt(40.0), 8.0, 12.0, 20.0])
    def test_matches_series_oracle(self, a):
        b = np.linspace(0.0, 60.0, 6001)
        ref = marcum_q1_series_oracle(a, b)
        # Where e^{-b^2/2} is subnormal the two forms start from a value with
        # few significant bits and round it differently; neither is accurate
        # there, where the truncated series falls short of the true Q1.
        keep = (ref >= 1e-200) & (np.exp(-0.5 * b * b) >= np.finfo(float).tiny)
        np.testing.assert_allclose(marcum_q1(a, b)[keep], ref[keep],
                                   rtol=1e-13, atol=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -1.0)


class TestRician:
    def test_params_invariant(self):
        for b in (0.0, 1.0, 10.0, 15.0, 20.0):
            rp = RicianParams.from_b_factor(b)
            assert rp.c ** 2 + 2 * rp.sigma ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            RicianParams.from_b_factor(-1.0)

    @pytest.mark.parametrize("c, sigma", [(-0.1, 0.7), (0.5, 0.0), (0.5, -0.5)])
    def test_rejects_negative_constants(self, c, sigma):
        with pytest.raises(ValueError, match="c >= 0 and sigma > 0"):
            RicianParams(c=c, sigma=sigma)

    def test_rejects_non_unit_second_moment(self):
        with pytest.raises(ValueError, match=r"c\^2 \+ 2 sigma\^2 = 1"):
            RicianParams(c=0.5, sigma=0.5)

    def test_pdf_zero_at_origin(self):
        assert rician_pdf(0.0, RicianParams.from_b_factor(15.0)) == 0.0

    def test_rayleigh_degenerate(self):
        rp = RicianParams.from_b_factor(0.0)
        for v in (0.1, 0.5, 1.0, 2.0):
            assert rician_pdf(v, rp) == pytest.approx(
                2.0 * v * math.exp(-v * v), rel=1e-12)

    @pytest.mark.parametrize("b", [0.0, 1.0, 10.0, 15.0, 20.0])
    def test_unit_mass_and_second_moment(self, b):
        rp = RicianParams.from_b_factor(b)
        hi = rp.c + 25.0 * rp.sigma
        mass = integrate(lambda v, _: np.asarray(rician_pdf(v, rp)), 0.0, hi, *TIGHT)
        mom2 = integrate(lambda v, _: np.asarray(v) ** 2 * np.asarray(rician_pdf(v, rp)),
                         0.0, hi, *TIGHT)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mom2 == pytest.approx(1.0, abs=1e-8)

    def test_ccdf_matches_pdf_quadrature(self):
        # P(|h| > v) = Q1(c / sigma, v / sigma) = 1 - int_0^v f
        rp = RicianParams.from_b_factor(15.0)
        cdf = integrate(lambda v, _: np.asarray(rician_pdf(v, rp)), 0.0, 1.0, *TIGHT)
        assert marcum_q1(rp.c / rp.sigma, 1.0 / rp.sigma) == pytest.approx(
            1.0 - cdf, abs=1e-9)

    def test_negative_rejected(self):
        rp = RicianParams.from_b_factor(1.0)
        with pytest.raises(ValueError):
            rician_pdf(-0.1, rp)


class TestPoissonInverseMoment:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_against_truncated_pmf(self, x):
        m = np.arange(1, int(x + 40 * math.sqrt(x) + 60))
        oracle = float(np.sum(stats.poisson.pmf(m, x) / m))
        assert poisson_inverse_moment(x) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("x", [0.5, 5.0, 50.0])
    def test_against_exponential_integral_identity(self, x):
        # independent route: e^{-x} (Ei(x) - gamma - ln x)
        ident = math.exp(-x) * (special.expi(x) - np.euler_gamma - math.log(x))
        assert poisson_inverse_moment(x) == pytest.approx(ident, rel=1e-10)

    # e^{-x} (Ei(x) - gamma - ln x) to 50 digits, computed once with mpmath
    # (mp.dps = 60: exp(-x) * (ei(x) - euler - log(x))).  scipy is no oracle
    # here: its PMF sum is off by 9e-14 to 5.5e-10, and exp(-x) * expi(x)
    # overflows to nan from x = 1e3.
    @pytest.mark.parametrize("x, want", [
        (600.5, "0.0016680613707521222928437027527398331069902209994598"),
        (1e3, "0.0010010020060241207250806865492021171280505718200456"),
        (1e4, "0.00010001000200060024012007205044035632432796476251752"),
        (1e5, "0.00001000010000200006000240012000720050404032362916292"),
        (1e6, "0.0000010000010000020000060000240001200007200050400403204"),
    ], ids=["600.5", "1e3", "1e4", "1e5", "1e6"])
    def test_asymptotic_branch_against_50_digit_values(self, x, want):
        assert poisson_inverse_moment(x) == pytest.approx(float(want), rel=1e-14, abs=0)

    def test_bounds(self):
        for x in (0.01, 0.1, 1.0, 10.0, 100.0, 700.0):
            val = poisson_inverse_moment(x)
            assert 0.0 < val < 1.0 - math.exp(-x)

    def test_small_x_limit(self):
        x = 1e-8
        assert poisson_inverse_moment(x) == pytest.approx(x * math.exp(-x), rel=1e-6)

    def test_large_x_behavior(self):
        assert poisson_inverse_moment(100.0) == pytest.approx(0.01, rel=0.05)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            poisson_inverse_moment(0.0)
        with pytest.raises(ValueError):
            poisson_inverse_moment(-1.0)
