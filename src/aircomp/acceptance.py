"""Acceptance suite: one check per criterion, printed as pass/fail lines.

The suite is what `aircomp validate` runs.  Criterion 3 adjudicates the
analytical-formula variants against the Monte Carlo estimator over the
device-density grid, which is `aircomp sweep`'s own `run_sweep` on the Fig-2
configuration; criterion 4 reads the same grid.  Criterion 5 is
`aircomp optimal-radius`'s own search, `cli.optimal_radius`, on "rederived".
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytical import (VARIANTS, eta_upper_bound, log_eta_grid,
                         mse_analytic, optimize_eta, rician_mean)
from .cli import main, optimal_radius, resolve_config, run_sweep
from .model import NetworkParams, sample_ppp_chunks, transmit_power
from .montecarlo import eta_star_realization, realization_mse
from .numerics import integrate, power_integral
from .specfun import (RicianParams, bessel_i0e, marcum_q1,
                      poisson_inverse_moment, rician_pdf)

SEED = 0
SECOND_SEED = 1
N_ITER = 10_000  # Monte Carlo realizations of criteria 2-4

FIG2_SWEEP = {"parameter": "lambda", "from": 0.01, "to": 0.1, "steps": 10}
FIG2_RADII = (10.0, 40.0)
FIG3_RADIUS = 15.0


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


# --- criterion 1: special functions -----------------------------------------

def _poisson_inverse_oracle(x: float) -> float:
    """Direct truncated-PMF summation of E[1/K; K >= 1]."""
    m_hi = int(x + 40.0 * math.sqrt(x) + 60.0)
    total = 0.0
    for m in range(1, m_hi + 1):
        total += math.exp(m * math.log(x) - x - math.lgamma(m + 1)) / m
    return total


def criterion_1() -> CriterionResult:
    errs = []
    for a in (0.0, 0.5, 1.0, 2.0, 3.0):
        if marcum_q1(a, 0.0) != 1.0:
            errs.append(f"Q1({a}, 0) != 1")
    for b in (0.1, 0.5, 1.0, 2.0, 5.0):
        if abs(marcum_q1(0.0, b) - math.exp(-b * b / 2.0)) > 1e-12:
            errs.append(f"Q1(0, {b}) off")
    for a in (0.5, 1.0, 2.0, 3.0):
        ident = 0.5 * (1.0 + float(bessel_i0e(a * a)))
        if abs(marcum_q1(a, a) - ident) > 1e-10:
            errs.append(f"Q1({a}, {a}) identity off by "
                        f"{abs(marcum_q1(a, a) - ident):.2e}")
    tol = (1e-11, 1e-15)  # (rel_tol, abs_tol)
    for b_factor in (0.0, 1.0, 10.0, 15.0, 20.0):
        rp = RicianParams.from_b_factor(b_factor)
        hi = rp.c + 25.0 * rp.sigma
        mass = integrate(lambda v, _: rician_pdf(v, rp), 0.0, hi, *tol)
        mom2 = integrate(lambda v, _: v ** 2 * rician_pdf(v, rp), 0.0, hi, *tol)
        if abs(mass - 1.0) > 1e-8:
            errs.append(f"pdf mass at B={b_factor} off by {abs(mass - 1):.2e}")
        if abs(mom2 - 1.0) > 1e-8:
            errs.append(f"second moment at B={b_factor} off by {abs(mom2 - 1):.2e}")
    for x in (0.1, 1.0, 10.0, 100.0):
        diff = abs(poisson_inverse_moment(x) - _poisson_inverse_oracle(x))
        if diff > 1e-10:
            errs.append(f"poisson_inverse_moment({x}) off by {diff:.2e}")
    return CriterionResult(1, "special-function suite", not errs,
                           "; ".join(errs) or "all identities within tolerance")


# --- criterion 2: Campbell oracle --------------------------------------------

@dataclass(frozen=True)
class CampbellReport:
    """Empirical vs quadrature means of additive functionals over the annulus."""

    names: tuple[str, ...]
    empirical: tuple[float, ...]
    target: tuple[float, ...]
    z_scores: tuple[float, ...]

    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)


def campbell_check(params: NetworkParams, n_iter: int, seed: int) -> CampbellReport:
    """Check E[sum_k g(d_k, h_k)] against 2 pi lambda int_1^R E_v[g] r dr.

    Test functionals over devices with d in [1, R]: the count, the received
    power sum d^-a h^2, and the received amplitude sum d^-a/2 h.
    """
    if n_iter < 1000:
        raise ValueError("campbell_check needs n_iter >= 1000")
    alpha = params.alpha
    rows = []
    for d, h, bounds in sample_ppp_chunks(params, seed, 0, n_iter, "annulus"):
        power = d ** -alpha * h ** 2
        amplitude = d ** (-0.5 * alpha) * h
        rows += [(b - a, float(np.add.reduce(power[a:b])),
                  float(np.add.reduce(amplitude[a:b])))
                 for a, b in zip(bounds, bounds[1:])]
    sums = np.array(rows, dtype=float)

    mean_h = rician_mean(params)
    two_pi_lam = 2.0 * math.pi * params.density
    r_max = params.radius
    targets = (
        params.density * math.pi * (r_max ** 2 - 1.0),
        two_pi_lam * float(power_integral(1.0, r_max, 1.0 - alpha)),  # E[h^2] = 1
        two_pi_lam * float(power_integral(1.0, r_max, 1.0 - 0.5 * alpha)) * mean_h,
    )
    emp = sums.mean(axis=0)
    se = sums.std(axis=0, ddof=1) / math.sqrt(n_iter)
    z = tuple(float((e - t) / s) for e, t, s in zip(emp, targets, se))
    return CampbellReport(
        names=("count", "received_power", "received_amplitude"),
        empirical=tuple(float(v) for v in emp),
        target=targets, z_scores=z)


def criterion_2() -> CriterionResult:
    params = NetworkParams(radius=15.0)
    report = campbell_check(params, N_ITER, SEED)
    detail = ", ".join(f"z[{n}]={z:+.2f}" for n, z in
                       zip(report.names, report.z_scores))
    if report.max_abs_z() <= 3.0:
        return CriterionResult(2, "Campbell oracle", True, detail)
    # flaky-test policy: one rerun with a fixed second seed; both must fail
    retry = campbell_check(params, N_ITER, SECOND_SEED)
    detail += " | retry " + ", ".join(f"z[{n}]={z:+.2f}" for n, z in
                                      zip(retry.names, retry.z_scores))
    return CriterionResult(2, "Campbell oracle", retry.max_abs_z() <= 3.0, detail)


# --- criteria 3-4: Fig-2 grid -------------------------------------------------

def compute_fig2_grid() -> list[dict]:
    """The sweep's rows (eta optimized on rederived) per radius, tagged with it."""
    configs = {radius: resolve_config({"network": {"radius": radius}, "sweep": FIG2_SWEEP,
                                       "mc": {"iters": N_ITER, "seed": SEED}}, {})
               for radius in FIG2_RADII}
    return [{"radius": r, **row} for r, cfg in configs.items() for row in run_sweep(cfg)]


def criterion_3(grid: list[dict]) -> CriterionResult:
    matches = []
    lines = []
    for pt in grid:
        z = {v: (pt[f"mse_analytic_{v}"] - pt["mse_mc_mean"]) / pt["mse_mc_stderr"]
             for v in VARIANTS}
        matching = [v for v in VARIANTS if abs(z[v]) <= 3.0]
        matches.append(matching)
        z_text = " ".join(f"z_{v}={z[v]:+.2f}" for v in VARIANTS)
        lines.append(f"R={pt['radius']:.0f} lam={pt['param_value']:.2f} "
                     f"{z_text} match={matching or ['none']}")
    all_matched = all(m for m in matches)
    counts = {v: sum(v in m for m in matches) for v in VARIANTS}
    named = max(counts, key=counts.get)
    consistent = counts[named] >= 0.9 * len(grid)
    passed = all_matched and consistent
    detail = (f"matching variant: {named} ({counts[named]}/{len(grid)} points); "
              + "; ".join(lines))
    return CriterionResult(3, "Theorem adjudication on the density grid",
                           passed, detail)


def _isotonic_decreasing(y: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit by pool-adjacent-violators."""
    blocks = []
    for v in -y:
        blocks.append([v, 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    fit = []
    for v, w in blocks:
        fit.extend([v] * int(w))
    return -np.array(fit)


def criterion_4(grid: list[dict]) -> CriterionResult:
    msgs = []
    passed = True
    for radius in FIG2_RADII:
        pts = [p for p in grid if p["radius"] == radius]
        means = np.array([p["mse_mc_mean"] for p in pts])
        errs = np.array([p["mse_mc_stderr"] for p in pts])
        strict = bool(np.all(np.diff(means) < 0))
        fit = _isotonic_decreasing(means)
        dev = float(np.max(np.abs(fit - means) / errs))
        ok = strict or dev < 1.0
        passed = passed and ok
        msgs.append(f"R={radius:.0f}: strictly decreasing={strict}, "
                    f"max isotonic deviation={dev:.2f} stderr")
    return CriterionResult(4, "MSE decreasing in device density", passed,
                           "; ".join(msgs))


# --- criterion 5: radius sweep ------------------------------------------------

def criterion_5() -> CriterionResult:
    msgs = []
    passed = True
    for b_factor in (10.0, 15.0, 20.0):
        res = optimal_radius(NetworkParams(rician_b=b_factor), 5.0, 40.0, 5.0, "rederived")
        r_opt, reduction, interior = res["r_opt"], res["reduction"], not res["boundary_flag"]
        msgs.append(f"B={b_factor:.0f}: R_opt={r_opt:.1f} m, "
                    f"reduction vs 5 m = {100 * reduction:.1f}%, "
                    f"interior={interior}")
        passed = passed and interior
        if b_factor == 15.0:
            in_band = 10.0 <= r_opt <= 20.0 and 0.05 <= reduction <= 0.20
            passed = passed and in_band
            if not in_band:
                bound = eta_upper_bound(NetworkParams(radius=r_opt, rician_b=b_factor))
                msgs.append(
                    "DISCREPANCY: outside the published band; formula-variant "
                    f"gap and bound readings: capped printed "
                    f"{bound.capped_moment_printed:.4g} vs appendix "
                    f"{bound.capped_moment_appendix:.4g}")
    return CriterionResult(5, "optimal access radius", passed, "; ".join(msgs))


# --- criterion 6: eta optimization vs dense grid -------------------------------

def _log_parabola_vertex(x: np.ndarray, y: np.ndarray, j: int) -> float:
    """Minimizer of the parabola in ln x through grid points j-1, j, j+1.

    x must be evenly spaced in ln x.  At a grid end the raw grid point is
    returned.
    """
    if not 0 < j < x.size - 1:
        return float(x[j])
    y_lo, y_mid, y_hi = y[j - 1], y[j], y[j + 1]
    step = math.log(x[j + 1] / x[j])
    offset = 0.5 * step * (y_lo - y_hi) / (y_lo - 2.0 * y_mid + y_hi)
    return float(x[j] * math.exp(offset))


def criterion_6() -> CriterionResult:
    """Optimizer vs a 1000-point log grid over the whole search interval.

    The grid spacing (about 2.6 % at the acceptance configuration) is coarser
    than the 1 % eta tolerance, so the oracle eta is the vertex of the
    parabola in ln eta through the grid argmin and its two neighbours, taken
    from the same 1000 evaluations.
    """
    params = NetworkParams(radius=FIG3_RADIUS)
    opt = optimize_eta(params, "rederived")
    hi = opt.search_hi  # includes any documented safety inflation
    etas = log_eta_grid(params, hi, 1000)
    mses = mse_analytic(params, etas, "rederived").total
    j = int(np.argmin(mses))
    eta_oracle = _log_parabola_vertex(etas, mses, j)
    eta_rel = abs(opt.eta - eta_oracle) / eta_oracle
    mse_rel = abs(opt.mse - mses[j]) / mses[j]
    contained = etas[j] <= hi
    passed = eta_rel <= 0.01 and mse_rel <= 0.001 and contained
    detail = (f"eta_opt={opt.eta:.6g} vs grid vertex {eta_oracle:.6g} "
              f"(rel {100 * eta_rel:.2f}%; grid argmin {etas[j]:.6g}), "
              f"mse rel {100 * mse_rel:.4f}%, "
              f"bound {hi:.6g} contains grid argmin: {contained}")
    return CriterionResult(6, "eta optimizer vs dense grid", passed, detail)


# --- criterion 7: per-realization stationary point -----------------------------

def criterion_7() -> CriterionResult:
    params = NetworkParams(radius=5.0)  # mean count ~3.9, small realizations
    eta_ref = 5.0
    found = 0
    failures = []
    realizations = (
        (d[a:b], h[a:b])
        for d, h, bounds in sample_ppp_chunks(params, SEED, 0, 10_000, "clamp")
        for a, b in zip(bounds, bounds[1:]))
    for index, (d, h) in enumerate(realizations):
        if not 1 <= d.size <= 10:
            continue
        found += 1
        eta_star = eta_star_realization(d, h, eta_ref, params)
        powers = transmit_power(d, h, eta_ref, params)
        g_star, g_up, g_dn = (realization_mse(d, h, powers, eta, params)
                              for eta in (eta_star, eta_star * 1.1, eta_star / 1.1))
        if not (g_star <= g_up and g_star <= g_dn):
            failures.append(f"index {index}: G({eta_star:.4g}) above a "
                            "perturbed point")
        if found == 20:
            break
    passed = found == 20 and not failures
    detail = (f"{found} realizations checked" +
              ("" if not failures else "; " + "; ".join(failures)))
    return CriterionResult(7, "per-realization eta stationarity", passed, detail)


# --- criterion 8: determinism ---------------------------------------------------

def criterion_8() -> CriterionResult:
    config = {
        "network": {"snr_db": 30.0},  # the reference cell, NetworkParams()
        "sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05, "steps": 2},
        "eta_policy": {"fixed": 10.0},
        "mc": {"iters": 300, "seed": 7},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        outputs, workers = [], []
        for run, jobs in (("a", 1), ("b", 1), ("c", 4)):
            cfg = dict(config, output_dir=str(Path(tmp) / run))
            cfg_path.write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["sweep", "--config", str(cfg_path), "--jobs", str(jobs)])
            if code != 0:
                return CriterionResult(8, "determinism", False,
                                       f"sweep exited with code {code}")
            outputs.append((Path(tmp) / run / "results.csv").read_bytes())
            record = json.loads((Path(tmp) / run / "run.json").read_text())
            workers.append(record["mc_workers"])
    same_run = outputs[0] == outputs[1]
    same_jobs = outputs[0] == outputs[2]
    return CriterionResult(
        8, "determinism", same_run and same_jobs,
        f"repeat run identical: {same_run}; jobs 1 vs 4 identical: {same_jobs} "
        f"({workers[0]} vs {workers[2]} workers)")


# --- runner ---------------------------------------------------------------------

def run_acceptance(numbers: list[int] | None = None) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else set(range(1, 9))
    results: list[CriterionResult] = []
    # built by the first of criteria 3 and 4 to run, whose time then holds it
    fig2_grid = functools.cache(compute_fig2_grid)
    runners = {
        1: criterion_1,
        2: criterion_2,
        3: lambda: criterion_3(fig2_grid()),
        4: lambda: criterion_4(fig2_grid()),
        5: criterion_5,
        6: criterion_6,
        7: criterion_7,
        8: criterion_8,
    }
    for number in sorted(wanted):
        t0 = time.time()
        result = runners[number]()
        result.seconds = time.time() - t0
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] criterion {result.number}: {result.name} "
              f"({result.seconds:.1f}s)\n        {result.detail}")
    return results
