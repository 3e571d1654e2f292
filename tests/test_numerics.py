import heapq
import math

import numpy as np
import pytest

from aircomp import numerics
from aircomp.numerics import QuadratureError, integrate, refine_bracket

TOL = (1e-8, 1e-12)  # (rel_tol, abs_tol)
TIGHT = (1e-10, 1e-14)


def two_call_integrate_oracle(f, a, b, rel_tol, abs_tol):
    """The same adaptive G7-K15 scheme with one integrand call per panel,
    two per bisection.  Returns (integral, number of bisections)."""
    def panel(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        y = np.asarray(f(mid + half * numerics._XK), dtype=float)
        ik = half * float(numerics._WK @ y)
        ig = half * float(numerics._WG @ y[1::2])
        resasc = half * float(numerics._WK @ np.abs(y - ik / (hi - lo)))
        diff = abs(ik - ig)
        if resasc > 0 and diff > 0:
            return ik, resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
        return ik, diff

    val, err = panel(a, b)
    heap = [(-err, a, b, val, err)]
    total, total_err, bisections = val, err, 0
    while total_err > max(abs_tol, rel_tol * abs(total)):
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        (lv, le), (rv, re_) = panel(pa, pm), panel(pm, pb)
        total += lv + rv - pval
        total_err += le + re_ - perr
        heapq.heappush(heap, (-le, pa, pm, lv, le))
        heapq.heappush(heap, (-re_, pm, pb, rv, re_))
        bisections += 1
    return total, bisections


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x, _: x ** 2, 0.0, 1.0, *TOL) == pytest.approx(1 / 3, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(lambda x, _: 1.0 + 0 * x, 2.0, 2.0, *TOL) == 0.0

    def test_exponential_closed_form(self):
        # oracle: the antiderivative -e^{-x}
        expected = 1.0 - math.exp(-50.0)
        got = integrate(lambda x, _: np.exp(-x), 0.0, 50.0, *TOL)
        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("degree", [0, 3, 7, 10])
    def test_single_panel_polynomial_exactness(self, degree):
        coeffs = np.arange(1.0, degree + 2.0)
        exact = sum(c / (k + 1) * (2.0 ** (k + 1) - 1.0)
                    for k, c in enumerate(coeffs))
        got = integrate(lambda x, _: np.polyval(coeffs[::-1], x), 1.0, 2.0, *TOL)
        assert got == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("split", [0.3, 1.0, 2.71828])
    def test_split_additivity(self, split):
        rel_tol, abs_tol = TIGHT

        def f(x, _):
            return np.exp(-x) * np.sin(3.0 * x) + x ** 2

        whole = integrate(f, 0.0, 3.0, *TIGHT)
        parts = integrate(f, 0.0, split, *TIGHT) + integrate(f, split, 3.0, *TIGHT)
        assert abs(whole - parts) <= 2.0 * max(abs_tol, rel_tol * abs(whole))

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x, _: x, 1.0, 0.0, *TOL)

    def test_nan_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x, _: np.full_like(np.asarray(x, float), np.nan),
                      0.0, 1.0, *TOL)

    def test_nonconvergence_raises_at_the_cap(self):
        # about 1.6e7 periods: 2000 bisections cannot resolve them, and every
        # panel stays splittable, so the subdivision cap is what stops it
        calls = []
        with pytest.raises(QuadratureError, match="did not converge after 2000"):
            integrate(lambda x, _: calls.append(x.size) or np.cos(1e5 * x),
                      0.0, 1e3, *TOL)
        assert len(calls) == 1 + numerics._MAX_SUBDIVISIONS == 2001

    def test_scalar_only_integrand_raises(self):
        # f is called on the node array and must return one value per node
        with pytest.raises(TypeError):
            integrate(lambda x, _: float(x) ** 3, 0.0, 2.0, *TOL)
        with pytest.raises(ValueError):
            integrate(lambda x, _: 1.0, 0.0, 2.0, *TOL)

    def test_one_integrand_call_per_bisection(self):
        def f(x):
            return np.sqrt(x) + 1.0 / (1e-3 + (x - 0.3) ** 2)

        sizes = []
        got = integrate(lambda x, _: sizes.append(x.size) or f(x), 0.0, 1.0, *TIGHT)
        expected, bisections = two_call_integrate_oracle(f, 0.0, 1.0, *TIGHT)
        assert bisections >= 10
        assert len(sizes) == 1 + bisections
        assert sizes[0] == 15 and set(sizes[1:]) == {30}
        assert got == pytest.approx(expected, rel=1e-15, abs=0)

    def test_array_limits_run_in_lockstep(self):
        # three integrals, the middle one empty (a == b): each result is its
        # own scalar integral, and each round is one integrand call on the
        # nodes of the integrals still short of their tolerance
        a = np.array([0.0, 0.5, 2.0])
        b = np.array([1.0, 0.5, 3.0])
        peaks = np.array([0.3, 0.5, 2.9])

        def f(x, k):
            return np.sqrt(x) + 1.0 / (1e-3 + (x - peaks[k]) ** 2)

        sizes = []
        got = integrate(lambda x, k: sizes.append(x.size) or f(x, k), a, b, *TIGHT)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        bisections = []
        for i in range(3):
            alone = []
            want = integrate(lambda x, _: alone.append(x.size) or f(x, i),
                             float(a[i]), float(b[i]), *TIGHT)
            assert isinstance(want, float)
            assert got[i] == pytest.approx(want, rel=1e-15, abs=0)
            bisections.append(len(alone) - 1)
        assert got[1] == 0.0 and bisections[1] == 0
        assert min(bisections[0], bisections[2]) > 0
        running = [sum(n >= r for n in bisections) for r in range(1, max(bisections) + 1)]
        assert sizes == [15 * 3] + [30 * n for n in running]

    def test_array_limits_checked(self):
        with pytest.raises(ValueError, match="a <= b"):
            integrate(lambda x, _: x, np.array([0.0, 2.0]), 1.0, *TOL)
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda x, _: x, 0.0, np.array([1.0, np.inf]), *TOL)


class TestMinimizeUnimodal:
    """Minimization over a bracket as optimize_eta runs it: g on 64 points
    evenly spaced in ln x, then refine_bracket around the scan's argmin."""

    @staticmethod
    def minimize(g, lo, hi, tol=1e-6):
        xs = np.exp(np.linspace(math.log(lo), math.log(hi), 64))
        return refine_bracket(g, xs, np.array([g(x) for x in xs]), tol), xs

    def test_quadratic_bowl(self):
        res, _ = self.minimize(lambda x: (x - 3.0) ** 2, 1.0, 10.0, tol=1e-8)
        assert res.x_min == pytest.approx(3.0, rel=1e-6)
        assert res.edge is None

    def test_am_gm(self):
        res, _ = self.minimize(lambda x: 1.0 / x + x, 0.1, 100.0, tol=1e-8)
        assert res.x_min == pytest.approx(1.0, rel=1e-6)
        assert res.edge is None

    def test_boundary_flagged(self):
        res, xs = self.minimize(lambda x: x, 1.0, 10.0)
        assert res.edge == "low" and res.x_min == xs[0]
        res, xs = self.minimize(lambda x: -x, 1.0, 10.0)
        assert res.edge == "high" and res.x_min == xs[-1]

    def test_never_worse_than_grid(self):
        # wiggly objective: the result must not exceed the best scan point
        def g(x):
            return math.sin(7.0 * math.log(x)) + 0.1 * (math.log(x) - 1.0) ** 2

        res, xs = self.minimize(g, 0.01, 100.0, tol=1e-6)
        assert res.g_min <= min(g(x) for x in xs)
        assert res.g_min == g(res.x_min)


class TestRefineBracket:
    """The refinement on a caller's grid, here linear rather than log-spaced."""

    XS = np.arange(2.0, 12.0)  # 2, 3, ..., 11

    def refine(self, g, xs=XS, tol=1e-8):
        return refine_bracket(g, xs, np.array([g(x) for x in xs]), tol)

    def test_interior_minimum(self):
        res = self.refine(lambda x: (x - 6.3) ** 2)
        assert res.x_min == pytest.approx(6.3, rel=1e-6)
        assert res.edge is None

    def test_boundary_flagged_at_either_end(self):
        res = self.refine(lambda x: x)
        assert res.edge == "low" and res.x_min == 2.0
        res = self.refine(lambda x: -x)
        assert res.edge == "high" and res.x_min == 11.0

    def test_never_worse_than_grid(self):
        # the wiggles put several local minima inside the argmin's bracket
        def g(x):
            return math.sin(9.0 * x) + 0.01 * (x - 7.0) ** 2

        res = self.refine(g, tol=1e-6)
        assert res.g_min <= min(g(x) for x in self.XS)
        assert res.g_min == g(res.x_min)

    def test_two_point_grid(self):
        res = self.refine(lambda x: (x - 2.4) ** 2, xs=np.array([2.0, 3.0]))
        assert res.edge == "low"
        assert res.x_min == pytest.approx(2.4, rel=1e-6)
        res = self.refine(lambda x: (x - 2.8) ** 2, xs=np.array([2.0, 3.0]))
        assert res.edge == "high"
        assert res.x_min == pytest.approx(2.8, rel=1e-6)

    def test_stops_at_tolerance_in_log_x(self):
        # the 10 grid points, then Brent in the bracket [5, 7] until its best
        # point is within tol of both ends in ln x: no more evaluations than
        # the golden section, narrowing by the golden ratio per evaluation,
        # makes to get the bracket below tol
        calls = []

        def g(x):
            calls.append(x)
            return (x - 6.3) ** 2

        tol = 1e-4
        res = self.refine(g, tol=tol)
        assert abs(math.log(res.x_min / 6.3)) <= tol
        golden_steps = math.ceil(math.log(math.log(7.0 / 5.0) / tol)
                                 / math.log((1.0 + math.sqrt(5.0)) / 2.0))
        assert len(calls) <= self.XS.size + 2 + golden_steps

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            refine_bracket(lambda x: x, self.XS, np.full(self.XS.size, np.nan), 1e-6)
