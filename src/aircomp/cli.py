"""Experiment runner: parameter sweeps, radius optimization, eta reports.

Subcommands:
  sweep           MSE vs a swept parameter (analytic both variants + Monte Carlo)
  optimal-radius  coarse grid + golden refinement of the access radius
  eta-report      search-bound components and the MSE-vs-eta curve
  validate        run the full acceptance suite

Configuration is a single JSON document; command-line flags override config
fields.  The CLI reports the paper's two formula variants ("printed" and
"rederived"); "both" means those two.  Exit codes: 0 success, 1 usage error,
2 numeric failure, 3 acceptance failure (validate only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analytical import PAPER_VARIANTS, eta_upper_bound, mse_analytic, optimize_eta
from .model import MODES, NetworkParams
from .montecarlo import estimate_mse
from .numerics import QuadratureError, minimize_unimodal

CSV_HEADER = ["param_value", "eta_used", "mse_analytic_printed",
              "mse_analytic_rederived", "mse_mc_mean", "mse_mc_stderr",
              "k_mean", "flags"]

# swept name -> the NetworkParams field it replaces (eta replaces none)
SWEEP_PARAMETERS = {"lambda": "density", "radius": "radius",
                    "rician_b": "rician_b", "eta": None}

EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3


class UsageError(ValueError):
    pass


def _number(value, key: str, kind=float):
    """kind(value), or a UsageError naming the config key.

    Booleans are not numbers here, and an int must be integral: 1e4 is
    accepted, 2.5 is not truncated to 2.
    """
    if isinstance(value, bool):
        raise UsageError(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{key} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key} must be a number, got {value!r}") from exc


@dataclass
class RunConfig:
    network: dict = field(default_factory=dict)  # NetworkParams fields; accepts snr_db OR p_max
    sweep: dict = field(default_factory=dict)    # parameter/from/to/steps/log_scale
    mc: dict = field(default_factory=dict)       # iters/seed/mode/jobs
    eta_policy: dict = field(default_factory=lambda: {"optimize": True})
    variant: str = "both"
    output_dir: str = "out"

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        raw = {}
        if path is not None:
            raw = json.loads(Path(path).read_text())
        cfg = cls(**{k: v for k, v in raw.items() if k in cls.__dataclass_fields__})
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for key, value in overrides.items():
            if value is None:
                continue
            if key in ("iters", "seed", "mode", "jobs"):
                cfg.mc[key] = value
            elif key == "variant":
                cfg.variant = value
            elif key == "out":
                cfg.output_dir = value
        if cfg.variant not in PAPER_VARIANTS + ("both",):
            raise UsageError(f"variant must be printed|rederived|both, got {cfg.variant}")
        if cfg.sweep:
            cfg.sweep_values()
        cfg.fixed_eta()
        cfg.mc_settings()
        return cfg

    def network_params(self, **replacements) -> NetworkParams:
        net = dict(self.network)
        net.update(replacements)
        if "snr_db" in net and "p_max" in net:
            raise UsageError("config must give snr_db or p_max, not both")
        defaults = {"density": 0.05, "radius": 10.0, "alpha": 2.1}
        for k, v in defaults.items():
            net.setdefault(k, v)
        try:
            snr_db = net.pop("snr_db", None)
            if snr_db is not None:
                net["p_max"] = net.get("noise_power", 1.0) * 10.0 ** (snr_db / 10.0)
            return NetworkParams(**net)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad network config: {exc}") from exc

    def sweep_values(self) -> tuple[str, np.ndarray]:
        """The swept parameter's name and its grid of values."""
        sweep = self.sweep
        name = sweep.get("parameter")
        if name not in SWEEP_PARAMETERS:
            raise UsageError(f"sweep parameter must be one of "
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
        if (log_scale or name == "eta") and not lo > 0:
            raise UsageError("sweep needs from > 0 on a log scale or over eta")
        if log_scale:
            return name, np.exp(np.linspace(math.log(lo), math.log(hi), steps))
        return name, np.linspace(lo, hi, steps)

    def fixed_eta(self) -> float | None:
        """eta_policy.fixed, or None when eta is optimized per point."""
        if "fixed" not in self.eta_policy:
            return None
        eta = _number(self.eta_policy["fixed"], "eta_policy.fixed")
        if not eta > 0:
            raise UsageError(f"eta_policy.fixed must be > 0, got {eta}")
        return eta

    def mc_settings(self) -> tuple[int, int, str, int]:
        iters = _number(self.mc.get("iters", 10000), "mc.iters", int)
        seed = _number(self.mc.get("seed", 0), "mc.seed", int)
        jobs = _number(self.mc.get("jobs", 1), "mc.jobs", int)
        mode = str(self.mc.get("mode", "clamp"))
        if iters < 1:
            raise UsageError(f"mc.iters must be >= 1, got {iters}")
        if jobs < 1:
            raise UsageError(f"mc.jobs must be >= 1, got {jobs}")
        if mode not in MODES:
            raise UsageError(f"mc.mode must be {'|'.join(MODES)}, got {mode!r}")
        return iters, seed, mode, jobs

    def opt_variant(self) -> str:
        # when both variants are reported, eta is optimized on the rederived
        # formula (the one the Monte Carlo adjudicates for)
        return self.variant if self.variant in PAPER_VARIANTS else "rederived"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_run_metadata(out_dir: Path, cfg: RunConfig, extra: dict) -> None:
    record = {"config": asdict(cfg), "version": __version__,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra}
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")


def run_sweep(cfg: RunConfig) -> list[dict]:
    name, values = cfg.sweep_values()
    replaced = SWEEP_PARAMETERS[name]
    fixed_eta = cfg.fixed_eta()
    iters, seed, mode, jobs = cfg.mc_settings()
    rows = []
    for value in values:
        params = cfg.network_params(**({replaced: float(value)} if replaced else {}))
        flags = [f"mode={mode}"]
        if name == "eta":
            eta = float(value)
        elif fixed_eta is not None:
            eta = fixed_eta
        else:
            opt = optimize_eta(params, cfg.opt_variant())
            eta = opt.eta
            if opt.boundary:
                flags.append("boundary-minimum")
            if opt.extended:
                flags.append("search-extended")
        printed = mse_analytic(params, eta, "printed").total
        rederived = mse_analytic(params, eta, "rederived").total
        est = estimate_mse(params, eta, iters, seed, mode=mode, n_jobs=jobs)
        if abs(rederived - est.mean) > 3.0 * est.std_error:
            flags.append("analytic-mc-discrepancy")
        rows.append({
            "param_value": float(value), "eta_used": eta,
            "mse_analytic_printed": printed, "mse_analytic_rederived": rederived,
            "mse_mc_mean": est.mean, "mse_mc_stderr": est.std_error,
            "k_mean": params.mean_count, "flags": ";".join(flags),
        })
    return rows


def write_sweep_csv(rows: list[dict], out_dir: Path) -> Path:
    path = out_dir / "results.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(row[c]) if c != "flags" else row[c]
                             for c in CSV_HEADER])
    return path


def optimal_radius(cfg: RunConfig, r_min: float, r_max: float,
                   ref_radius: float) -> dict:
    if not (1.0 < r_min < r_max):
        raise UsageError("require 1 < r_min < r_max")
    variants = PAPER_VARIANTS if cfg.variant == "both" else (cfg.variant,)
    report = {"r_min": r_min, "r_max": r_max, "ref_radius": ref_radius,
              "variants": {}}
    for variant in variants:
        def mse_at(radius: float) -> float:
            params = cfg.network_params(radius=float(radius))
            return optimize_eta(params, variant).mse

        grid = np.arange(r_min, r_max + 1e-9, 1.0)
        grid_mse = np.array([mse_at(r) for r in grid])
        i = int(np.argmin(grid_mse))
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, grid.size - 1)])
        refined = minimize_unimodal(mse_at, lo, hi, tol=1e-4)
        mse_ref = mse_at(ref_radius)
        report["variants"][variant] = {
            "r_opt": refined.x_min,
            "mse_opt": refined.g_min,
            "mse_ref": mse_ref,
            "reduction": 1.0 - refined.g_min / mse_ref,
            "interior": 0 < i < grid.size - 1,
            "boundary_flag": i == 0 or i == grid.size - 1,
            "grid_radii": [float(r) for r in grid],
            "grid_mse": [float(m) for m in grid_mse],
        }
    return report


def eta_report(cfg: RunConfig, n_points: int = 200) -> dict:
    if n_points < 1:
        raise UsageError(f"--points must be >= 1, got {n_points}")
    params = cfg.network_params()
    bound = eta_upper_bound(params)
    report = {
        "eta_upper_bound": bound.value,
        "capped_moment_printed": bound.capped_moment_printed,
        "capped_moment_appendix": bound.capped_moment_appendix,
        "ratio_moment": bound.ratio_moment,
        "rician_mean_printed": bound.rician_mean_printed,
        "rician_mean_exact": bound.rician_mean_exact,
        "variants": {},
    }
    variants = PAPER_VARIANTS if cfg.variant == "both" else (cfg.variant,)
    for variant in variants:
        opt = optimize_eta(params, variant)
        report["variants"][variant] = {
            "eta_opt": opt.eta, "mse_opt": opt.mse,
            "search_hi": opt.search_hi, "boundary": opt.boundary,
            "extended": opt.extended,
        }
    etas = np.exp(np.linspace(math.log(1e-6 * params.noise_power),
                              math.log(bound.value), n_points))
    curve = [{"eta": float(e),
              **{v: mse_analytic(params, float(e), v).total for v in variants}}
             for e in etas]
    report["curve"] = curve
    return report


def _write_eta_curve_csv(report: dict, out_dir: Path) -> None:
    curve = report["curve"]
    cols = list(curve[0].keys())
    with (out_dir / "eta_curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for point in curve:
            writer.writerow([_fmt(point[c]) for c in cols])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aircomp", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--iters", type=int, help="Monte Carlo iterations (default 10000)")
        p.add_argument("--mode", choices=MODES,
                       help="inner-disc policy (default clamp)")
        p.add_argument("--variant", choices=["printed", "rederived", "both"],
                       help="analytic formula variant (default both)")
        p.add_argument("--jobs", type=int, help="Monte Carlo worker count (default 1)")
        p.add_argument("--out", help="output directory (default out)")

    common(sub.add_parser("sweep", help="sweep a parameter, write results.csv"))

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
    common(p_val)
    p_val.add_argument("--criteria", help="comma-separated criterion numbers (default all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "iters", "mode", "variant", "jobs", "out")}
    try:
        cfg = RunConfig.load(getattr(args, "config", None), overrides)
    except (ValueError, OSError) as exc:  # UsageError, JSON and int() parse errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(cfg.output_dir)
    try:
        if args.command == "sweep":
            out_dir.mkdir(parents=True, exist_ok=True)
            rows = run_sweep(cfg)
            path = write_sweep_csv(rows, out_dir)
            _write_run_metadata(out_dir, cfg, {"rows": len(rows)})
            print(f"wrote {path} ({len(rows)} rows)")
            return 0
        if args.command == "optimal-radius":
            out_dir.mkdir(parents=True, exist_ok=True)
            report = optimal_radius(cfg, args.r_min, args.r_max, args.ref_radius)
            (out_dir / "optimal_radius.json").write_text(
                json.dumps(report, indent=2) + "\n")
            _write_run_metadata(out_dir, cfg, {})
            for variant, res in report["variants"].items():
                print(f"[{variant}] R_opt = {res['r_opt']:.3f} m, "
                      f"MSE(R_opt) = {res['mse_opt']:.6g}, "
                      f"MSE({args.ref_radius:g} m) = {res['mse_ref']:.6g}, "
                      f"reduction = {100 * res['reduction']:.1f}%"
                      + (" [boundary]" if res["boundary_flag"] else ""))
            return 0
        if args.command == "eta-report":
            out_dir.mkdir(parents=True, exist_ok=True)
            report = eta_report(cfg, n_points=args.points)
            _write_eta_curve_csv(report, out_dir)
            (out_dir / "eta_report.json").write_text(
                json.dumps({k: v for k, v in report.items() if k != "curve"},
                           indent=2) + "\n")
            _write_run_metadata(out_dir, cfg, {})
            print(f"eta upper bound: {report['eta_upper_bound']:.6g} "
                  f"(capped moment printed {report['capped_moment_printed']:.6g}, "
                  f"appendix {report['capped_moment_appendix']:.6g}, "
                  f"ratio {report['ratio_moment']:.6g})")
            print(f"Rician mean: printed {report['rician_mean_printed']:.6f}, "
                  f"exact {report['rician_mean_exact']:.6f}")
            for variant, res in report["variants"].items():
                print(f"[{variant}] eta_opt = {res['eta_opt']:.6g}, "
                      f"mse_opt = {res['mse_opt']:.6g}")
            return 0
        if args.command == "validate":
            from .acceptance import run_acceptance
            numbers = None
            if args.criteria:
                numbers = [int(tok) for tok in args.criteria.split(",")]
            results = run_acceptance(numbers)
            ok = all(r.passed for r in results)
            return 0 if ok else EXIT_ACCEPTANCE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, ValueError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
