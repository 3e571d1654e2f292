import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import numerics
from aircomp.numerics import QuadratureError, integrate, refine_bracket

TOL = (1e-8, 1e-12)  # (rel_tol, abs_tol)
TIGHT = (1e-10, 1e-14)


def sequential_integrate(f, a, b, rel_tol, abs_tol, cap=None):
    """integrate's adaptive G7-K15 rule made one bisection per step, with
    the halves of each step from one numerics._gk15 call.  Stops at its
    tolerance or after cap bisections.  Returns (integral, error estimate,
    bisections)."""
    def gk15(*ends):
        return numerics._gk15(lambda x, _: f(x), np.array(ends),
                              np.zeros(numerics._XK.size * len(ends), dtype=int))

    (val,), (err,) = gk15((a, b))
    heap = [(-err, a, b, val, err)]
    total, total_err, bisections = val, err, 0
    while total_err > max(abs_tol, rel_tol * abs(total)) and bisections != cap:
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        (lv, rv), (le, re_) = gk15((pa, pm), (pm, pb))
        total += lv + rv - pval
        total_err += le + re_ - perr
        heapq.heappush(heap, (-le, pa, pm, lv, le))
        heapq.heappush(heap, (-re_, pm, pb, rv, re_))
        bisections += 1
    return total, total_err, bisections


def assert_bisections(monkeypatch, integral, n):
    """integral() converges within n bisections, and not within n - 1."""
    monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", n)
    integral()
    if n > 0:
        monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", n - 1)
        with pytest.raises(QuadratureError, match=f"did not converge after {n - 1} "):
            integral()
    monkeypatch.undo()


def peaked(peak, width=1e-3):
    return lambda x: np.sqrt(x) + 1.0 / (width + (x - peak) ** 2)


def assert_lockstep(monkeypatch, a, b, peaks):
    """integrate over the arrays a and b, the second interval empty, gives
    each integral the sequential rule's result on its own interval, bit for
    bit, and converges within the most bisections any of them makes.
    Returns the integrand calls and panels of the array call."""
    a, b, peaks = np.array(a), np.array(b), np.array(peaks)

    def f(x, k):
        return np.sqrt(x) + 1.0 / (1e-3 + (x - peaks[k]) ** 2)

    calls = []
    got = integrate(lambda x, k: calls.append(x.size) or f(x, k), a, b, *TIGHT)
    assert isinstance(got, np.ndarray) and got.shape == a.shape
    bisections = []
    for i in range(a.size):
        want, _, n = sequential_integrate(peaked(peaks[i]), float(a[i]), float(b[i]), *TIGHT)
        alone = integrate(lambda x, _: f(x, i), float(a[i]), float(b[i]), *TIGHT)
        assert isinstance(alone, float)
        assert got[i] == alone == want
        bisections.append(n)
    assert got[1] == 0.0 and bisections[1] == 0
    assert min(bisections[0], bisections[2]) > 0
    assert_bisections(monkeypatch, lambda: integrate(f, a, b, *TIGHT), max(bisections))
    return len(calls), sum(calls) // numerics._XK.size


def panel_nodes(*panels):
    """The 15 nodes of each (a, b), as integrate places them."""
    ends = np.array(panels)
    return (0.5 * (ends[:, :1] + ends[:, 1:])
            + 0.5 * (ends[:, 1:] - ends[:, :1]) * numerics._XK).ravel()


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
        # panel stays splittable, so the subdivision cap is what stops it;
        # the estimate it reports is the sequential rule's after exactly
        # 2000 bisections
        def f(x):
            return np.cos(1e5 * x)

        total, err, n = sequential_integrate(f, 0.0, 1e3, *TOL, cap=2000)
        assert n == numerics._MAX_SUBDIVISIONS == 2000
        with pytest.raises(QuadratureError, match=re.escape(
                f"did not converge after 2000 subdivisions (estimate {total!r}, "
                f"error bound {err!r})")):
            integrate(lambda x, _: f(x), 0.0, 1e3, *TOL)

    def test_unused_lookahead_panel_cannot_raise(self):
        # |x - 1/2| converges after one bisection of [0, 1]; the quarter
        # [0, 1/4] lies in a lookahead but no bisection uses it, so its nan
        # must not raise
        bad = panel_nodes((0.0, 0.25))

        def f(x, _):
            return np.where(np.isin(x, bad), np.nan, np.abs(x - 0.5))

        assert integrate(f, 0.0, 1.0, *TOL) == pytest.approx(0.25, rel=1e-15)

    # the halves of [0, 1] are checked left before right
    @pytest.mark.parametrize("bad, named", [
        ([(0.0, 0.5)], r"\[0\.0, 0\.5\]"),
        ([(0.5, 1.0)], r"\[0\.5, 1\.0\]"),
        ([(0.0, 0.5), (0.5, 1.0)], r"\[0\.0, 0\.5\]"),
    ], ids=["left", "right", "both"])
    def test_non_finite_half_raises_when_used(self, bad, named):
        nodes = panel_nodes(*bad)
        with pytest.raises(QuadratureError,
                           match=f"non-finite value on {named} of integral 0$"):
            integrate(lambda x, _: np.where(np.isin(x, nodes), np.nan, np.abs(x - 0.5)),
                      0.0, 1.0, *TOL)

    def test_lockstep_failures_raise_in_round_order(self):
        # in their first round integral 0 meets a nan in a half and integral 1
        # a panel one ulp wide, whose nodes below 1 make a step; a round
        # checks every split before it evaluates, so integral 1's is the
        # error, as the sequential rule run in lockstep would raise it
        a = np.array([0.0, 1.0])
        b = np.array([1.0, math.nextafter(1.0, 2.0)])
        bad = panel_nodes((0.0, 0.5))

        def f(x, k):
            return np.where(k == 0, np.where(np.isin(x, bad), np.nan, np.abs(x - 0.5)),
                            np.where(x < 1.0, 1e20, 0.0))

        with pytest.raises(QuadratureError, match=r"integral 1 did not converge: panel "
                           r"\[1\.0, 1\.0000000000000002\] cannot be split"):
            integrate(f, a, b, *TOL)
        with pytest.raises(QuadratureError, match=r"\[0\.0, 0\.5\] of integral 0$"):
            integrate(f, a[:1], b[:1], *TOL)

    def test_scalar_only_integrand_raises(self):
        # f is called on the node array and must return one value per node
        with pytest.raises(TypeError):
            integrate(lambda x, _: float(x) ** 3, 0.0, 2.0, *TOL)
        with pytest.raises(ValueError):
            integrate(lambda x, _: 1.0, 0.0, 2.0, *TOL)

    def test_same_bisections_as_sequential_rule(self, monkeypatch):
        # each round looks ahead, so a sharp peak takes fewer integrand calls
        # than bisections, but the same bisections give the same bits; the
        # calls and panels are those of _lookahead's rule with 6 panels a
        # round, and move only when that rule does
        f = peaked(0.3)
        calls = []
        got = integrate(lambda x, _: calls.append(x.size) or f(x), 0.0, 1.0, *TIGHT)
        expected, _, bisections = sequential_integrate(f, 0.0, 1.0, *TIGHT)
        assert got == expected
        assert bisections >= 10
        assert len(calls) < bisections
        assert (len(calls), sum(calls) // numerics._XK.size) == (11, 67)
        assert_bisections(monkeypatch, lambda: integrate(lambda x, _: f(x), 0.0, 1.0, *TIGHT),
                          bisections)

    @settings(max_examples=40, deadline=None, database=None)
    @given(peak=st.floats(0.0, 1.0), width=st.floats(1e-6, 1e-1),
           tol=st.sampled_from([TOL, TIGHT]))
    def test_same_bisections_for_peaked_family(self, peak, width, tol):
        f = peaked(peak, width)
        calls = []
        got = integrate(lambda x, _: calls.append(x.size) or f(x), 0.0, 1.0, *tol)
        expected, _, bisections = sequential_integrate(f, 0.0, 1.0, *tol)
        assert got == expected
        assert len(calls) <= 1 + bisections
        with pytest.MonkeyPatch.context() as mp:
            assert_bisections(mp, lambda: integrate(lambda x, _: f(x), 0.0, 1.0, *tol),
                              bisections)

    def test_array_limits_run_in_lockstep(self, monkeypatch):
        # three integrals, the middle one empty (a == b), and a first call
        # that looks ahead
        assert_lockstep(monkeypatch, [0.0, 0.5, 2.0], [1.0, 0.5, 3.0], [0.3, 0.5, 2.9])

    def test_many_integrals_run_in_lockstep(self, monkeypatch):
        # five integrals: the first call evaluates only their intervals; the
        # calls and panels move only when _lookahead's rule does
        calls, panels = assert_lockstep(
            monkeypatch, [0.0, 0.5, 2.0, 0.0, 1.0], [1.0, 0.5, 3.0, 1.0, 1.5],
            [0.3, 0.5, 2.9, 0.7, 1.1])
        assert (calls, panels) == (24, 133)

    @settings(max_examples=40, deadline=None, database=None)
    @given(intervals=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                  st.floats(0.0, 1.0), st.floats(1e-6, 1e-1)),
        min_size=2, max_size=6), tol=st.sampled_from([TOL, TIGHT]))
    def test_lockstep_family(self, intervals, tol):
        # (start, length, peak as a fraction of the length, width) of each
        # interval, some of them empty; as integrals converge the others
        # look further ahead, down to a lone one looking two levels ahead
        start, length, frac, widths = np.array(intervals).T
        a, b, peaks = start, start + length, start + frac * length
        calls = []

        def f(x, k):
            calls.append(x.size)
            return np.sqrt(x) + 1.0 / (widths[k] + (x - peaks[k]) ** 2)

        got = integrate(f, a, b, *tol)
        bisections = []
        for i in range(a.size):
            want, _, n = sequential_integrate(peaked(peaks[i], widths[i]),
                                              float(a[i]), float(b[i]), *tol)
            assert got[i] == want
            bisections.append(n)
        assert len(calls) <= 1 + max(bisections)

    def test_no_integrals(self):
        got = integrate(lambda x, k: x + k, np.zeros(0), np.zeros(0), *TOL)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

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
