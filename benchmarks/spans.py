"""Outside-in span recorder for the aircomp layers.

The recorder wraps each traced function in every ``aircomp`` module that
holds a reference to it, which is where the calling module looks it up, and
restores the originals afterwards.  Spans (name, parent span, unit index,
start, end) live in flat arrays in memory and are written out once, at the
end of the run.  A span's self time is its duration minus the durations of
its child spans; the per-layer table is derived from those and from counts
taken at the same boundaries.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, home module, attribute).  Order fixes the name ids.
TRACED = (
    ("specfun.bessel_i0e", "aircomp.specfun", "bessel_i0e"),
    ("specfun.marcum_q1", "aircomp.specfun", "marcum_q1"),
    ("specfun.rician_pdf", "aircomp.specfun", "rician_pdf"),
    ("numerics.integrate", "aircomp.numerics", "integrate"),
    ("numerics.minimize_unimodal", "aircomp.numerics", "minimize_unimodal"),
    ("analytical.mse_analytic", "aircomp.analytical", "mse_analytic"),
    ("analytical.optimize_eta", "aircomp.analytical", "optimize_eta"),
    ("model.realization_rng", "aircomp.model", "realization_rng"),
    ("model.sample_ppp_disc", "aircomp.model", "sample_ppp_disc"),
    ("model.transmit_power", "aircomp.model", "transmit_power"),
    ("montecarlo.realization_mse", "aircomp.montecarlo", "realization_mse"),
    ("montecarlo.estimate_mse", "aircomp.montecarlo", "estimate_mse"),
)
UNIT = "unit"
# The integrand callable handed to integrate: its own arithmetic is the
# calling layer's work, not quadrature bookkeeping.
INTEGRAND = "analytical.integrand"
SPAN_NAMES = (UNIT, INTEGRAND) + tuple(t[0] for t in TRACED)

# Per-layer metrics, in the order of BENCHMARK.json.  Counts and self
# times are per unit; "frac" metrics are ratios over the run.
PER_LAYER = (
    ("specfun.bessel_i0e.calls", "count/unit", "lower"),
    ("specfun.bessel_i0e.points", "count/unit", "lower"),
    ("specfun.bessel_i0e.self_s", "s/unit", "lower"),
    ("specfun.marcum_q1.calls", "count/unit", "lower"),
    ("specfun.marcum_q1.points", "count/unit", "lower"),
    ("specfun.marcum_q1.self_s", "s/unit", "lower"),
    ("specfun.rician_pdf.calls", "count/unit", "lower"),
    ("specfun.rician_pdf.self_s", "s/unit", "lower"),
    ("numerics.integrate.calls", "count/unit", "lower"),
    ("numerics.integrate.panels", "count/unit", "lower"),
    ("numerics.integrate.self_s", "s/unit", "lower"),
    ("analytical.integrand.self_s", "s/unit", "lower"),
    ("analytical.mse_analytic.calls", "count/unit", "lower"),
    ("analytical.mse_analytic.self_s", "s/unit", "lower"),
    ("numerics.minimize_unimodal.calls", "count/unit", "lower"),
    ("numerics.minimize_unimodal.evals", "count/unit", "lower"),
    ("numerics.minimize_unimodal.self_s", "s/unit", "lower"),
    ("analytical.optimize_eta.calls", "count/unit", "lower"),
    ("analytical.optimize_eta.self_s", "s/unit", "lower"),
    ("analytical.optimize_eta.extended", "frac", "lower"),
    ("model.realization_rng.calls", "count/unit", "lower"),
    ("model.realization_rng.self_s", "s/unit", "lower"),
    ("model.sample_ppp_disc.calls", "count/unit", "lower"),
    ("model.sample_ppp_disc.devices", "count/unit", "higher"),
    ("model.sample_ppp_disc.self_s", "s/unit", "lower"),
    ("model.transmit_power.calls", "count/unit", "lower"),
    ("model.transmit_power.self_s", "s/unit", "lower"),
    ("montecarlo.realization_mse.calls", "count/unit", "lower"),
    ("montecarlo.realization_mse.self_s", "s/unit", "lower"),
    ("montecarlo.estimate_mse.calls", "count/unit", "lower"),
    ("montecarlo.estimate_mse.self_s", "s/unit", "lower"),
    ("montecarlo.estimate_mse.used_ratio", "frac", "higher"),
    ("trace_overhead_frac", "frac", "lower"),
)


class SpanRecorder:
    """Spans of one process, appended in start order; ids are indices."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.unit_index = -1
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, span_name: str, fn, on_call=None, wrap_first=None):
        """Return fn recorded as a span; on_call(args, result) adds counts;
        wrap_first(f) replaces the first positional argument."""
        nid = SPAN_NAMES.index(span_name)
        name_append, parent_append = self.name.append, self.parent.append
        unit_append, start_append = self.unit.append, self.start.append
        end_append, end, stack = self.end.append, self.end, self.stack

        def traced(*args, **kwargs):
            sid = len(end)
            name_append(nid)
            parent_append(stack[-1])
            unit_append(self.unit_index)
            end_append(0.0)
            stack.append(sid)
            if wrap_first is not None:
                args = (wrap_first(args[0]),) + args[1:]
            start_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def run_unit(self, index: int, unit):
        """Run one unit under a root span."""
        self.unit_index = index
        return self.wrap(UNIT, unit)()

    def self_times(self) -> np.ndarray:
        dur = _np(self.end, np.float64) - _np(self.start, np.float64)
        parent = _np(self.parent, np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        return dur - covered

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(SPAN_NAMES),
                 name=_np(self.name, np.int32), parent=_np(self.parent, np.int64),
                 unit=_np(self.unit, np.int32), start=_np(self.start, np.float64),
                 end=_np(self.end, np.float64))

    def layer_table(self, n_units: int) -> dict[str, float]:
        """Per-layer metrics per unit (all but trace_overhead_frac)."""
        name = _np(self.name, np.int32)
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self.self_times(), minlength=k)
        per_unit = {}
        for i, span in enumerate(SPAN_NAMES):
            per_unit[f"{span}.calls"] = calls[i] / n_units
            per_unit[f"{span}.self_s"] = self_s[i] / n_units
        for key, value in self.counts.items():
            per_unit[key] = value / n_units

        def ratio(num: str, den: str) -> float:
            d = self.counts.get(den, 0.0)
            return self.counts.get(num, 0.0) / d if d else 0.0

        per_unit["analytical.optimize_eta.extended"] = ratio(
            "analytical.optimize_eta.extended",
            "analytical.optimize_eta.finished")
        per_unit["montecarlo.estimate_mse.used_ratio"] = ratio(
            "montecarlo.estimate_mse.n_used", "montecarlo.estimate_mse.n_total")
        return {m: float(per_unit.get(m, 0.0))
                for m, _, _ in PER_LAYER if m != "trace_overhead_frac"}


def _np(arr: array, dtype) -> np.ndarray:
    """A numpy copy, so that the array holds no buffer export afterwards."""
    return np.frombuffer(arr, dtype=dtype).copy() if len(arr) else \
        np.zeros(0, dtype=dtype)


def _counters(rec: SpanRecorder) -> dict:
    """Counts taken at each boundary: span name -> (on_call, wrap_first)."""

    def integrand(f):
        return rec.wrap(INTEGRAND, f, on_call=lambda a, r: rec.add(
            "numerics.integrate.panels", 1))

    def objective(g):
        def counted(x):
            rec.add("numerics.minimize_unimodal.evals", 1)
            return g(x)
        return counted

    def optimum(args, result):
        rec.add("analytical.optimize_eta.finished", 1)
        rec.add("analytical.optimize_eta.extended", float(result.extended))

    def estimate(args, result):
        rec.add("montecarlo.estimate_mse.n_used", result.n_used)
        rec.add("montecarlo.estimate_mse.n_total", result.n_total)

    return {
        "specfun.bessel_i0e": (lambda a, r: rec.add(
            "specfun.bessel_i0e.points", np.size(a[0])), None),
        "specfun.marcum_q1": (lambda a, r: rec.add(
            "specfun.marcum_q1.points", np.size(a[1])), None),
        "numerics.integrate": (None, integrand),
        "numerics.minimize_unimodal": (None, objective),
        "analytical.optimize_eta": (optimum, None),
        "model.sample_ppp_disc": (lambda a, r: rec.add(
            "model.sample_ppp_disc.devices", r.count), None),
        "montecarlo.estimate_mse": (estimate, None),
    }


@contextmanager
def installed(rec: SpanRecorder):
    """Wrap every traced function in each aircomp module that holds it, and
    put the originals back on exit."""
    counters = _counters(rec)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "aircomp" or n.startswith("aircomp."))]
    saved = []
    try:
        for span_name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            on_call, wrap_first = counters.get(span_name, (None, None))
            traced = rec.wrap(span_name, original, on_call, wrap_first)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, traced)
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
