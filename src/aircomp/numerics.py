"""Generic numerical kernels: adaptive 1-D quadrature, the closed-form power
integral, and bounded scalar minimization.

The quadrature, `integrate(f, a, b, rel_tol, abs_tol)`, is a globally
adaptive Gauss-Kronrod (G7, K15) scheme with the embedded 7-point Gauss rule
providing the per-panel error estimate; each bisection evaluates both halves
in one call of the integrand, and it gives up after 2000 bisections.  The
minimizer is one scan-then-refine search, `refine_bracket`: golden section
in ln x between the neighbours of a grid scan's argmin.  `minimize_unimodal`
scans 64 log-spaced points for it; the access-radius search scans a 1 m grid.
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
    "minimize_unimodal",
    "power_integral",
    "refine_bracket",
]

# Bisections integrate makes before it gives up on its tolerance.
_MAX_SUBDIVISIONS = 2000


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


def _gk15(f, panels: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Gauss-Kronrod panels from one call of f on all their nodes.

    panels are adjacent (a, b) intervals; returns (K15 estimate, error
    estimate) for each.
    """
    ends = np.array(panels, dtype=float)
    width = ends[:, 1] - ends[:, 0]
    half = 0.5 * width
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(
            f"integrand must return one value per node: got shape {y.shape} "
            f"for nodes of shape {x.shape}")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(
            f"integrand returned a non-finite value on "
            f"[{panels[0][0]!r}, {panels[-1][1]!r}]")
    y = y.reshape(len(panels), _XK.size)
    ik = half * (y @ _WK)
    ig = half * (y[:, 1::2] @ _WG)
    # QUADPACK-style sharpened error estimate
    resasc = half * (np.abs(y - (ik / width)[:, None]) @ _WK)
    out = []
    for ik_p, ig_p, resasc_p in zip(ik.tolist(), ig.tolist(), resasc.tolist()):
        diff = abs(ik_p - ig_p)
        if resasc_p > 0 and diff > 0:
            err = resasc_p * min(1.0, (200.0 * diff / resasc_p) ** 1.5)
        else:
            err = diff
        out.append((ik_p, err))
    return out


def integrate(f, a: float, b: float, rel_tol: float, abs_tol: float) -> float:
    """Adaptive integral of f over [a, b] to within max(abs_tol, rel_tol*|I|).

    f is called on an array of nodes and must return an array of the same
    shape: once on the 15 nodes of [a, b], then once per bisection on the
    30 nodes of both halves of the panel with the largest error estimate.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError(f"require a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0

    ((val, err),) = _gk15(f, [(a, b)])
    # max-heap of panels keyed by error (heapq is a min-heap; negate)
    panels = [(-err, a, b, val, err)]
    total = val
    total_err = err
    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total
        _, pa, pb, pval, perr = heapq.heappop(panels)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # interval no longer splittable in double precision
            heapq.heappush(panels, (-perr, pa, pb, pval, perr))
            break
        (lv, le), (rv, re_) = _gk15(f, [(pa, pm), (pm, pb)])
        total += lv + rv - pval
        total_err += le + re_ - perr
        heapq.heappush(panels, (-le, pa, pm, lv, le))
        heapq.heappush(panels, (-re_, pm, pb, rv, re_))
    if total_err <= max(abs_tol, rel_tol * abs(total)):
        return total
    raise QuadratureError(
        f"quadrature did not converge after {_MAX_SUBDIVISIONS} "
        f"subdivisions (estimate {total!r}, error bound {total_err!r})")


def power_integral(lo, hi, p: float):
    """Integral of r^p dr from lo to hi, with the p = -1 logarithmic limit."""
    if abs(p + 1.0) < 1e-9:
        return np.log(hi / lo)
    return (np.power(hi, p + 1.0) - np.power(lo, p + 1.0)) / (p + 1.0)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 64  # log-spaced scan points of minimize_unimodal


@dataclass(frozen=True)
class MinimizeResult:
    x_min: float
    g_min: float
    boundary: bool  # True when the grid argmin sat at an end of the grid
    edge: str | None = None  # "low" or "high" when boundary is True


def minimize_unimodal(g, lo: float, hi: float, tol: float = 1e-6) -> MinimizeResult:
    """Minimize g over [lo, hi]: a 64-point log-spaced scan, then refine_bracket."""
    if not (0 < lo < hi):
        raise ValueError(f"require 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), _GRID_POINTS))
    return refine_bracket(g, xs, np.array([float(g(x)) for x in xs]), tol)


def refine_bracket(g, xs, gs, tol: float) -> MinimizeResult:
    """Golden section in ln x around the argmin of a scan gs = g(xs).

    xs is increasing and positive, in any spacing, with at least two points.
    The argmin (first on ties) and its two neighbours form the bracket, which
    is narrowed below tol in ln x.  The result is never worse than the best
    grid point; boundary/edge say whether that point is an end of the grid.
    """
    if not np.all(np.isfinite(gs)):
        raise ValueError("objective returned a non-finite value on the grid")
    best = int(np.argmin(gs))  # argmin takes the first (lowest-argument) tie
    last = len(gs) - 1
    edge = "low" if best == 0 else "high" if best == last else None
    la = math.log(xs[max(best - 1, 0)])
    lb = math.log(xs[min(best + 1, last)])

    # golden-section on t = log(x)
    h = lb - la
    c = la + (1.0 - _INV_PHI) * h
    d = la + _INV_PHI * h
    gc = float(g(math.exp(c)))
    gd = float(g(math.exp(d)))
    while h > tol:
        if gc < gd:
            lb, d, gd = d, c, gc
            h = lb - la
            c = la + (1.0 - _INV_PHI) * h
            gc = float(g(math.exp(c)))
        else:
            la, c, gc = c, d, gd
            h = lb - la
            d = la + _INV_PHI * h
            gd = float(g(math.exp(d)))

    if gc < gd:
        x_min, g_min = math.exp(c), gc
    else:
        x_min, g_min = math.exp(d), gd
    # never return a point worse than the best grid point
    if gs[best] < g_min:
        x_min, g_min = float(xs[best]), float(gs[best])
    return MinimizeResult(x_min=x_min, g_min=g_min, boundary=edge is not None, edge=edge)
