"""Generic numerical kernels: adaptive 1-D quadrature, the closed-form power
integral, and the refinement of a minimum bracketed by a scan.

The quadrature, `integrate(f, a, b, rel_tol, abs_tol)`, is a globally
adaptive Gauss-Kronrod (G7, K15) scheme with the embedded 7-point Gauss rule
providing the per-panel error estimate.  Array limits run many integrals in
lockstep, and an integral gives up after 2000 bisections.  One loop makes
the rounds: a round is one call of the integrand on the subtrees below the
panels the integrals wait on, and each of them then runs the
one-bisection-per-step rule on its table of evaluated panels until it needs
one that is not there.  So only the number of calls differs from one
bisection per call, not a bit of the result.  The minimizer is
`refine_bracket`: Brent's method in ln x, started at the argmin of the
caller's grid scan and kept between its two neighbours.  The scans are the
caller's: `analytical.log_eta_grid` for eta, `analytical.radius_grid` for
the access radius.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "MinimizeResult",
    "integrate",
    "power_integral",
    "refine_bracket",
]

# Bisections integrate makes before it gives up on its tolerance.
_MAX_SUBDIVISIONS = 2000

# Panels one round of integrate evaluates ahead when few integrals wait on
# it: the lookahead goes as deep as every waiting integral's subtree fits in
# them, so a lone integral looks two levels ahead and two or more look one
# (the first call, none from four integrals on).  On the benchmark's
# analytic-point pool 6 took less time than 16 (three levels for one
# integral) and than 2 (halves only): every node costs integrand time, and
# the rule leaves more of a deeper subtree unused.
_ROUND_PANELS = 6


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot reach the requested tolerance."""


# 15-point Kronrod nodes on [-1, 1]; odd-indexed entries are the embedded
# 7-point Gauss nodes (standard QUADPACK constants).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk15(f, ends: np.ndarray, k: np.ndarray):
    """Gauss-Kronrod panels from one call of f on all their nodes.

    ends holds the (a, b) of each panel and k the integral index of each
    node.  Returns the K15 estimate and the error estimate of each panel.  A
    nan or an infinity of f makes the panel's K15 estimate non-finite (its
    weights are all positive), and the caller checks that when it uses the
    panel.
    """
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    y = np.asarray(f(x, k), dtype=float)
    if y.shape != x.shape:
        raise ValueError(
            f"integrand must return one value per node: got shape {y.shape} "
            f"for nodes of shape {x.shape}")
    # Row sums rather than matrix products: BLAS may round a row differently
    # with the number of rows, and a panel must not depend on its batch.
    y = y.reshape(len(ends), _XK.size)
    sk = (y * _WK).sum(axis=1)
    vals = (half * sk).tolist()
    ig = half * (y[:, 1::2] * _WG).sum(axis=1)
    # QUADPACK-style sharpened error estimate; the panel mean is sk / 2
    resasc = half * (np.abs(y - (0.5 * sk)[:, None]) * _WK).sum(axis=1)
    errs = []
    for ik_p, ig_p, resasc_p in zip(vals, ig.tolist(), resasc.tolist()):
        diff = abs(ik_p - ig_p)
        if resasc_p > 0 and diff > 0:
            errs.append(resasc_p * min(1.0, (200.0 * diff / resasc_p) ** 1.5))
        else:
            errs.append(diff)
    return vals, errs


def _non_finite(i: int, pa: float, pb: float) -> str:
    return f"integrand returned a non-finite value on [{pa!r}, {pb!r}] of integral {i}"


def _state(total: float, err: float) -> str:
    return f"(estimate {total!r}, error bound {err!r})"


def _lookahead(roots, depth: int):
    """The panels of the subtrees below each (i, a, b) of roots, level by
    level: the roots themselves if depth is 0, their halves, their halves'
    halves and so on, down to at least level depth and as deep as every
    subtree's halves fit in _ROUND_PANELS panels.  A panel too narrow to
    split in double precision is not bisected."""
    bottom = depth
    while len(roots) * (2 ** (bottom + 2) - 2) <= _ROUND_PANELS:
        bottom += 1
    panels = [] if depth else list(roots)
    level = roots
    for _ in range(bottom):
        below = []
        for i, pa, pb in level:
            pm = 0.5 * (pa + pb)
            if pa < pm < pb:
                below += ((i, pa, pm), (i, pm, pb))
        panels += below
        level = below
    return panels


def integrate(f, a, b, rel_tol: float, abs_tol: float):
    """Adaptive integrals of f over [a, b], each to max(abs_tol, rel_tol*|I|).

    a and b are floats, which give a float, or 1-D arrays (one may be a
    float), which give the array of the m integrals over [a_i, b_i].  The
    integrals run in lockstep: each keeps its own panels, totals and stopping
    rule, so it makes exactly the bisections it would make alone.  f(x, k)
    is called on an array of nodes x, k being the integral index of each
    node, and must return an array of the same shape, once per round.  A
    round evaluates the subtree below the panel each waiting integral waits
    on (see _lookahead): [a_i, b_i] and below in the first round, the halves
    of its worst panel and below after that.  Each waiting integral then
    runs the sequential rule on its table of evaluated panels: bisect the
    panel with the largest error estimate, read its halves, update the
    totals, push the halves, until it converges or a half is not in the
    table.  So it makes the same bisections, in the same order and with the
    same float updates, as one bisection per call would.  Each integral
    gives up after 2000 bisections.  A non-finite value, the cap and a panel
    too narrow to split raise only when the rule reaches them, in the order
    in which one bisection per round would have met them.
    """
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    scalar = lo.ndim == hi.ndim == 0
    m = max(lo.size, hi.size)
    ends = np.empty((m, 2))
    ends[:, 0] = lo  # a limit of more than one dimension does not broadcast
    ends[:, 1] = hi
    if not np.isfinite(ends).all():
        raise ValueError("integration limits must be finite")
    if not (ends[:, 0] <= ends[:, 1]).all():
        i = int(np.flatnonzero(ends[:, 0] > ends[:, 1])[0])
        raise ValueError(
            f"require a <= b, got a={ends[i, 0]!r}, b={ends[i, 1]!r}")

    # the evaluated panels, (i, a, b) -> (value, error estimate), and per
    # integral, from its first round on, its rule's total, error bound,
    # bisections and max-heap of panels keyed by error (heapq is a min-heap;
    # negate; no two panels tie, so a pop does not depend on the push order)
    table = {}
    rules = [None] * m
    # ((bisections, kind, i), message); kind 0, 1, 2 orders the cap, an
    # unsplittable panel and a non-finite half as one round meets them
    failures = []
    # the (i, pa, pb) of each waiting integral's panel, in order of i
    waiting = [(i, pa, pb) for i, (pa, pb) in enumerate(ends.tolist())]
    depth = 0
    while waiting:
        panels = _lookahead(waiting, depth)
        cells = np.array(panels)
        vals, errs = _gk15(f, cells[:, 1:], cells[:, 0].astype(int).repeat(_XK.size))
        table.update(zip(panels, zip(vals, errs)))
        round_, waiting, depth = waiting, [], 1
        for i, pa, pb in round_:
            if rules[i] is None:  # its first round: [pa, pb] is [a_i, b_i]
                total, err = table.pop((i, pa, pb))
                if not math.isfinite(total):
                    raise QuadratureError(_non_finite(i, pa, pb))
                done, heap = 0, [(-err, pa, pb, total, err)]
            else:
                total, err, done, heap = rules[i]
            while err > max(abs_tol, rel_tol * abs(total)):
                if done == _MAX_SUBDIVISIONS:
                    failures.append(((done, 0, i), (
                        f"quadrature of integral {i} did not converge after "
                        f"{_MAX_SUBDIVISIONS} subdivisions {_state(total, err)}")))
                    break
                _, pa, pb, pval, perr = heap[0]
                pm = 0.5 * (pa + pb)
                if not pa < pm < pb:
                    failures.append(((done, 1, i), (
                        f"quadrature of integral {i} did not converge: panel "
                        f"[{pa!r}, {pb!r}] cannot be split in double precision "
                        f"{_state(total, err)}")))
                    break
                left = table.pop((i, pa, pm), None)
                if left is None:
                    waiting.append((i, pa, pb))
                    break
                lval, lerr = left
                rval, rerr = table.pop((i, pm, pb))
                if not (math.isfinite(lval) and math.isfinite(rval)):
                    qa, qb = (pa, pm) if not math.isfinite(lval) else (pm, pb)
                    failures.append(((done, 2, i), _non_finite(i, qa, qb)))
                    break
                total += lval + rval - pval
                err += lerr + rerr - perr
                heapq.heapreplace(heap, (-lerr, pa, pm, lval, lerr))
                heapq.heappush(heap, (-rerr, pm, pb, rval, rerr))
                done += 1
            rules[i] = total, err, done, heap
        # raise the first failure once no waiting integral can fail before it
        if failures and all(min(failures)[0] < (rules[i][2], 2, i) for i, _, _ in waiting):
            raise QuadratureError(min(failures)[1])
    return rules[0][0] if scalar else np.array([rule[0] for rule in rules])


def power_integral(lo, hi, p: float):
    """Integral of r^p dr from lo to hi, with the p = -1 logarithmic limit."""
    if abs(p + 1.0) < 1e-9:
        return np.log(hi / lo)
    return (np.power(hi, p + 1.0) - np.power(lo, p + 1.0)) / (p + 1.0)


# Brent's golden-section step, (3 - sqrt(5)) / 2
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class MinimizeResult:
    x_min: float
    g_min: float
    edge: str | None  # "low" or "high" when the grid argmin sat at that end


def refine_bracket(g, xs, gs, tol: float) -> MinimizeResult:
    """Brent's minimization in ln x around the argmin of a scan gs = g(xs).

    xs is increasing and positive, in any spacing, with at least two points.
    The argmin (first on ties) and its two neighbours form the bracket.
    Brent's localmin (Brent 1973, ch. 5: parabolic steps, golden-section
    steps where a parabola fails) starts at the argmin and narrows the
    bracket around its best point until that point lies within tol of both
    ends in ln x.  It only ever moves to a point no worse, so the result is
    never worse than the best grid point; edge says whether that point is
    an end of the grid.  g is called on one float at a time.

    Every value of gs must be finite; beyond that, the result depends on the
    scan only through its argmin, whether that argmin is an end of the grid,
    and its value.  A caller may pass any value for a point it knows not to
    be the argmin (analytical.optimize_eta passes coarse ones).
    """
    if not np.all(np.isfinite(gs)):
        raise ValueError("objective returned a non-finite value on the grid")
    best = int(np.argmin(gs))  # argmin takes the first (lowest-argument) tie
    last = len(gs) - 1
    edge = "low" if best == 0 else "high" if best == last else None
    a = math.log(xs[max(best - 1, 0)])
    b = math.log(xs[min(best + 1, last)])
    x_min, g_min = float(xs[best]), float(gs[best])

    # x, w, v: the best, second-best and previous w points in t = ln x
    x = w = v = math.log(x_min)
    fx = fw = fv = g_min
    d = e = 0.0  # the last step and the one before it
    step_tol = 0.5 * tol  # shortest step (Brent's tol1; his 2 tol1 is tol)
    while True:
        m = 0.5 * (a + b)
        if max(x - a, b - x) <= tol:
            break
        p = q = r = 0.0
        if abs(e) > step_tol:  # parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            u = x + d
            if u - a < tol or b - u < tol:  # not too near an end
                d = step_tol if x < m else -step_tol
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step_tol else math.copysign(step_tol, d))
        x_u = math.exp(u)
        fu = float(g(x_u))
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, x_min, g_min = u, fu, x_u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return MinimizeResult(x_min=x_min, g_min=g_min, edge=edge)
