"""Experiment runner: parameter sweeps, radius optimization, eta reports.

Subcommands:
  sweep           MSE vs a swept parameter (analytic variants + Monte Carlo)
  optimal-radius  1 m grid of the access radius, Brent refinement around its argmin
  eta-report      search-bound components and the MSE-vs-eta curve
  validate        run the full acceptance suite

Configuration is one JSON document, resolved with the flags that override
it by `resolve_config` before any work.  Every command reports the paper's
two formula variants, "printed" and "rederived".  `run_sweep` is the one
analytic-vs-Monte-Carlo sweep: it evaluates every variant, optimizes eta on
"rederived", and the acceptance suite runs it for criteria 3 and 4.
`optimal_radius` is the one access-radius search, one variant per call;
criterion 5 runs it on "rederived".
Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 acceptance
failure (validate only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytical import (PAPER_VARIANTS, VARIANTS, eta_upper_bound, log_eta_grid,
                         mse_analytic, optimize_eta, radius_curve, radius_grid,
                         rician_mean)
from .model import MODES, NetworkParams
from .montecarlo import estimate_mse, worker_count
from .numerics import QuadratureError, refine_bracket

CSV_HEADER = ["param_value", "eta_used",
              *(f"mse_analytic_{v}" for v in PAPER_VARIANTS),
              "mse_mc_mean", "mse_mc_stderr", "k_mean", "flags"]

# swept name -> the NetworkParams field it replaces (eta replaces none)
SWEEP_PARAMETERS = {"lambda": "density", "radius": "radius",
                    "rician_b": "rician_b", "eta": None}

# the keys each config section is read for; any other key is a usage error
SECTION_KEYS = {"sweep": ("parameter", "from", "to", "steps", "log_scale"),
                "mc": ("iters", "seed", "mode", "jobs"),
                "eta_policy": ("fixed",)}

EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3


class UsageError(ValueError):
    pass


def _number(value, key: str, kind=float):
    """A finite JSON number as kind, or a UsageError naming the config key.

    Booleans, strings and values beyond the float range (NaN, Infinity, 1e400
    or a 400-digit integer) are not numbers here, and an int must be
    integral: 1e4 is accepted, 2.5 is not truncated to 2.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise UsageError(f"{key} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class SweepPoint:
    value: float            # the swept parameter's value
    network: NetworkParams  # the base network with the swept field replaced
    eta: float | None       # None: optimized on "rederived" at the point


@dataclass(frozen=True)
class MonteCarloSettings:
    iters: int
    seed: int
    mode: str
    jobs: int


@dataclass(frozen=True)
class RunConfig:
    """What a command runs, as resolve_config resolves it from the config."""

    network: NetworkParams          # snr_db already folded into p_max
    points: tuple[SweepPoint, ...]  # empty when the config has no sweep
    mc: MonteCarloSettings
    output_dir: str

    @classmethod
    def load(cls, path: str | None, overrides: dict,
             require_sweep: bool = False) -> "RunConfig":
        raw = {} if path is None else json.loads(Path(path).read_text())
        return resolve_config(raw, overrides, require_sweep)


def resolve_config(raw: object, overrides: dict, require_sweep: bool = False) -> RunConfig:
    """The RunConfig of a config document and the flags that override it
    (None: not given); a bad value raises a UsageError naming its key.  A
    sweep section is checked if given, and required if require_sweep."""
    if not isinstance(raw, dict):
        raise UsageError(f"config must be a JSON object, got {raw!r}")
    unknown = set(raw) - {"network", *SECTION_KEYS, "output_dir"}
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    sections = {name: raw.get(name, {}) for name in ("network", *SECTION_KEYS)}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise UsageError(f"{name} must be an object, got {section!r}")
        # network's keys are NetworkParams' fields, checked as it is built
        unknown = set(section) - set(SECTION_KEYS.get(name, section))
        if unknown:
            raise UsageError(f"unknown {name} keys: {sorted(unknown)}")
    flags = {key: value for key, value in overrides.items() if value is not None}
    output_dir = flags.pop("out", raw.get("output_dir", "out"))
    if not isinstance(output_dir, str):
        raise UsageError(f"output_dir must be a string, got {output_dir!r}")
    name, values = None, ()
    if sections["sweep"] or require_sweep:
        name, values = _sweep_values(sections["sweep"])
    eta = _fixed_eta(sections["eta_policy"])
    mc = _mc_settings({**sections["mc"], **flags})
    network = _network(sections["network"])
    replaced = SWEEP_PARAMETERS.get(name)
    points = tuple(SweepPoint(value, _network(sections["network"], **{replaced: value})
                              if replaced else network,
                              value if name == "eta" else eta)
                   for value in map(float, values))
    return RunConfig(network, points, mc, output_dir)


def _network(section: dict, **replacements) -> NetworkParams:
    """NetworkParams from the network section, whose missing fields take
    NetworkParams' defaults; snr_db sets p_max via the noise power."""
    net = {key: _number(value, f"network.{key}") for key, value in section.items()}
    net.update(replacements)
    if "snr_db" in net and "p_max" in net:
        raise UsageError("config must give snr_db or p_max, not both")
    snr_db = net.pop("snr_db", None)
    try:
        params = NetworkParams(**net)
        if snr_db is not None:
            params = replace(params, p_max=params.noise_power
                             * 10.0 ** (snr_db / 10.0))
        return params
    except OverflowError as exc:  # only 10 ** (snr_db / 10) can overflow
        raise UsageError(f"network.snr_db is too large, got {snr_db!r}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad network config: {exc}") from exc


def _sweep_values(sweep: dict) -> tuple[str, np.ndarray]:
    """The swept parameter's name and its grid of values."""
    name = sweep.get("parameter")
    if not isinstance(name, str) or name not in SWEEP_PARAMETERS:
        raise UsageError(f"sweep.parameter must be one of "
                         f"{'|'.join(SWEEP_PARAMETERS)}, got {name!r}")
    if "from" not in sweep or "to" not in sweep:
        raise UsageError("sweep needs from and to")
    lo, hi = _number(sweep["from"], "sweep.from"), _number(sweep["to"], "sweep.to")
    steps = _number(sweep.get("steps", 10), "sweep.steps", int)
    if steps < 2:
        raise UsageError("sweep needs steps >= 2")
    if not lo < hi:
        raise UsageError("sweep needs from < to")
    log_scale = sweep.get("log_scale", False)
    if not isinstance(log_scale, bool):
        raise UsageError(f"sweep.log_scale must be true or false, got {log_scale!r}")
    if (log_scale or name == "eta") and not lo > 0:
        raise UsageError("sweep needs from > 0 on a log scale or over eta")
    if log_scale:
        return name, np.exp(np.linspace(math.log(lo), math.log(hi), steps))
    return name, np.linspace(lo, hi, steps)


def _fixed_eta(eta_policy: dict) -> float | None:
    """eta_policy.fixed, or None when eta is optimized per point."""
    if "fixed" not in eta_policy:
        return None
    eta = _number(eta_policy["fixed"], "eta_policy.fixed")
    if not eta > 0:
        raise UsageError(f"eta_policy.fixed must be > 0, got {eta}")
    return eta


def _mc_settings(mc: dict) -> MonteCarloSettings:
    counts = {key: _number(mc.get(key, default), f"mc.{key}", int)
              for key, default in (("iters", 10000), ("seed", 0), ("jobs", 1))}
    for key, least in (("iters", 1), ("seed", 0), ("jobs", 1)):
        if counts[key] < least:
            raise UsageError(f"mc.{key} must be >= {least}, got {counts[key]}")
    mode = str(mc.get("mode", "clamp"))
    if mode not in MODES:
        raise UsageError(f"mc.mode must be {'|'.join(MODES)}, got {mode!r}")
    return MonteCarloSettings(mode=mode, **counts)


def _output_dir(cfg: RunConfig, extra: dict) -> Path:
    """The output directory, created, with the run's record in run.json."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"config": asdict(cfg), "version": __version__,
              "python": platform.python_version(), "numpy": np.__version__,
              "cpu_count": os.cpu_count(),
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra}
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    return out_dir


def run_sweep(cfg: RunConfig) -> list[dict]:
    """One row per sweep point, with every analytic variant as mse_analytic_<v>."""
    mc = cfg.mc
    rows = []
    for point in cfg.points:
        params, eta = point.network, point.eta
        flags = [f"mode={mc.mode}"]
        if eta is None:
            # rederived: the paper variant the Monte Carlo adjudicates for
            opt = optimize_eta(params, "rederived")
            eta = opt.eta
            if opt.boundary:
                flags.append("boundary-minimum")
            if opt.extended:
                flags.append("search-extended")
        analytic = {v: mse_analytic(params, eta, v).total for v in VARIANTS}
        est = estimate_mse(params, eta, mc.iters, mc.seed, mode=mc.mode, n_jobs=mc.jobs)
        if abs(analytic["rederived"] - est.mean) > 3.0 * est.std_error:
            flags.append("analytic-mc-discrepancy")
        rows.append({
            "param_value": point.value, "eta_used": eta,
            **{f"mse_analytic_{v}": total for v, total in analytic.items()},
            "mse_mc_mean": est.mean, "mse_mc_stderr": est.std_error,
            "k_mean": params.mean_count, "flags": ";".join(flags),
        })
    return rows


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> Path:
    """The named columns of each row; numbers as repr(float), strings as is."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] if isinstance(row[c], str) else repr(float(row[c]))
                          for c in columns] for row in rows)
    return path


def optimal_radius(params: NetworkParams, r_min: float, r_max: float,
                   ref_radius: float, variant: str) -> dict:
    """The variant's eta-optimized MSE on the 1 m radius grid, refined in
    ln R around its argmin, and its reduction versus ref_radius."""
    if not (1.0 < r_min and r_min + 1.0 <= r_max < math.inf):
        raise UsageError("require 1 < --r-min, --r-min + 1 <= --r-max < inf (a 1 m grid)")
    if not 1.0 < ref_radius < math.inf:
        raise UsageError(f"require 1 < ref_radius < inf, got {ref_radius:g}")

    def mse_at(radius: float) -> float:
        return float(radius_curve(params, [radius], variant)[0])

    grid = radius_grid(r_min, r_max)
    grid_mse = radius_curve(params, grid, variant)
    refined = refine_bracket(mse_at, grid, grid_mse, tol=1e-4)
    on_grid = np.flatnonzero(grid == ref_radius)
    mse_ref = float(grid_mse[on_grid[0]]) if on_grid.size else mse_at(ref_radius)
    return {
        "r_opt": refined.x_min,
        "mse_opt": refined.g_min,
        "mse_ref": mse_ref,
        "reduction": 1.0 - refined.g_min / mse_ref,
        "boundary_flag": refined.edge is not None,
        "grid_radii": [float(r) for r in grid],
        "grid_mse": [float(m) for m in grid_mse],
    }


def eta_report(params: NetworkParams, n_points: int) -> dict:
    if n_points < 2:
        raise UsageError(f"--points must be >= 2, got {n_points}")
    bound = eta_upper_bound(params)
    report = {
        "eta_upper_bound": bound.value,
        "capped_moment_printed": bound.capped_moment_printed,
        "capped_moment_appendix": bound.capped_moment_appendix,
        "ratio_moment": bound.ratio_moment,
        "rician_mean_printed": bound.rician_mean_printed,
        "rician_mean_exact": rician_mean(params),
        "variants": {},
    }
    for variant in PAPER_VARIANTS:
        opt = optimize_eta(params, variant)
        report["variants"][variant] = {
            "eta_opt": opt.eta, "mse_opt": opt.mse,
            "search_hi": opt.search_hi, "boundary": opt.boundary,
            "extended": opt.extended,
        }
    # the curve ends where the widest search ended, so every optimum is on it
    search_hi = max(res["search_hi"] for res in report["variants"].values())
    etas = log_eta_grid(params, search_hi, n_points)
    totals = {v: mse_analytic(params, etas, v).total for v in PAPER_VARIANTS}
    report["curve"] = [{"eta": float(e), **{v: float(t[i]) for v, t in totals.items()}}
                       for i, e in enumerate(etas)]
    return report


def _criteria(text: str) -> list[int]:
    """--criteria: comma-separated criterion numbers, each 1 to 8."""
    if not all(tok.strip() in list("12345678") for tok in text.split(",")):
        raise argparse.ArgumentTypeError(f"want comma-separated numbers 1-8, got {text!r}")
    return [int(tok) for tok in text.split(",")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aircomp", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, monte_carlo=False):
        """The config flags the subcommand reads: config and output always,
        and the Monte Carlo ones only where it runs the Monte Carlo."""
        p.add_argument("--config", help="JSON config file")
        if monte_carlo:
            p.add_argument("--seed", type=int, help="master seed (default 0)")
            p.add_argument("--iters", type=int,
                           help="Monte Carlo iterations (default 10000)")
            p.add_argument("--mode", choices=MODES,
                           help="inner-disc policy (default clamp)")
            p.add_argument("--jobs", type=int,
                           help="Monte Carlo worker count (default 1)")
        p.add_argument("--out", help="output directory (default out)")

    common(sub.add_parser("sweep", help="sweep a parameter, write results.csv"),
           monte_carlo=True)

    p_rad = sub.add_parser("optimal-radius", help="find the MSE-optimal access radius")
    common(p_rad)
    p_rad.add_argument("--r-min", type=float, default=5.0)
    p_rad.add_argument("--r-max", type=float, default=40.0)
    p_rad.add_argument("--ref-radius", type=float, default=5.0)

    p_eta = sub.add_parser("eta-report", help="denoising-factor bound and curve")
    common(p_eta)
    p_eta.add_argument("--points", type=int, default=200,
                       help="eta grid points in the curve CSV")

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.add_argument("--criteria", type=_criteria,
                       help="comma-separated criterion numbers 1-8 (default all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "iters", "mode", "jobs", "out")}
    try:
        cfg = RunConfig.load(getattr(args, "config", None), overrides,
                             require_sweep=args.command == "sweep")
    except (ValueError, OSError) as exc:  # UsageError, JSON parse errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "sweep":
            rows = run_sweep(cfg)
            out_dir = _output_dir(cfg, {"rows": len(rows),
                                        "mc_workers": worker_count(cfg.mc.jobs, cfg.mc.iters)})
            path = write_csv(out_dir / "results.csv", CSV_HEADER, rows)
            print(f"wrote {path} ({len(rows)} rows)")
        elif args.command == "optimal-radius":
            scan = {"r_min": args.r_min, "r_max": args.r_max, "ref_radius": args.ref_radius}
            report = {**scan, "variants": {v: optimal_radius(cfg.network, **scan, variant=v)
                                           for v in PAPER_VARIANTS}}
            out_dir = _output_dir(cfg, scan)
            (out_dir / "optimal_radius.json").write_text(
                json.dumps(report, indent=2) + "\n")
            for variant, res in report["variants"].items():
                print(f"[{variant}] R_opt = {res['r_opt']:.3f} m, "
                      f"MSE(R_opt) = {res['mse_opt']:.6g}, "
                      f"MSE({args.ref_radius:g} m) = {res['mse_ref']:.6g}, "
                      f"reduction = {100 * res['reduction']:.1f}%"
                      + (" [boundary]" if res["boundary_flag"] else ""))
        elif args.command == "eta-report":
            report = eta_report(cfg.network, n_points=args.points)
            out_dir = _output_dir(cfg, {"points": args.points})
            write_csv(out_dir / "eta_curve.csv", ["eta", *PAPER_VARIANTS],
                      report["curve"])
            (out_dir / "eta_report.json").write_text(
                json.dumps({k: v for k, v in report.items() if k != "curve"},
                           indent=2) + "\n")
            print(f"eta upper bound: {report['eta_upper_bound']:.6g} "
                  f"(capped moment printed {report['capped_moment_printed']:.6g}, "
                  f"appendix {report['capped_moment_appendix']:.6g}, "
                  f"ratio {report['ratio_moment']:.6g})")
            print(f"Rician mean: printed {report['rician_mean_printed']:.6f}, "
                  f"exact {report['rician_mean_exact']:.6f}")
            for variant, res in report["variants"].items():
                print(f"[{variant}] eta_opt = {res['eta_opt']:.6g}, "
                      f"mse_opt = {res['mse_opt']:.6g}")
        else:  # validate, the one other subcommand
            from .acceptance import run_acceptance
            results = run_acceptance(args.criteria)
            return 0 if all(r.passed for r in results) else EXIT_ACCEPTANCE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, ValueError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
