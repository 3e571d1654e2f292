"""Experiment runner: parameter sweeps, radius optimization, eta reports.

Subcommands:
  sweep           MSE vs a swept parameter (analytic variants + Monte Carlo)
  optimal-radius  1 m grid of the access radius, Brent refinement around its argmin
  eta-report      search-bound components and the MSE-vs-eta curve
  validate        run the full acceptance suite

Configuration is a single JSON document; command-line flags override config
fields.  Every command reports the paper's two formula variants, "printed"
and "rederived".  `run_sweep` is the one analytic-vs-Monte-Carlo sweep: it
evaluates every analytic variant and optimizes eta on "rederived", and the
acceptance suite runs it on the Fig-2 configuration for criteria 3 and 4.
Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 acceptance
failure (validate only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytical import (PAPER_VARIANTS, VARIANTS, eta_upper_bound, log_eta_grid,
                         mse_analytic, optimize_eta, radius_curve, radius_grid,
                         rician_mean)
from .model import MODES, NetworkParams
from .montecarlo import estimate_mse
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


@dataclass
class RunConfig:
    network: dict = field(default_factory=dict)  # NetworkParams fields; accepts snr_db OR p_max
    sweep: dict = field(default_factory=dict)    # parameter/from/to/steps/log_scale
    mc: dict = field(default_factory=dict)       # iters/seed/mode/jobs
    eta_policy: dict = field(default_factory=dict)  # {} optimizes per point, or fixed
    output_dir: str = "out"

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        raw = {}
        if path is not None:
            raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise UsageError(f"config must be a JSON object, got {raw!r}")
        cfg = cls(**{k: v for k, v in raw.items() if k in cls.__dataclass_fields__})
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for name in ("network", *SECTION_KEYS):
            section = getattr(cfg, name)
            if not isinstance(section, dict):
                raise UsageError(f"{name} must be an object, got {section!r}")
            # network's keys are NetworkParams' fields, checked as it is built
            unknown = set(section) - set(SECTION_KEYS.get(name, section))
            if unknown:
                raise UsageError(f"unknown {name} keys: {sorted(unknown)}")
        for key, value in overrides.items():
            if value is None:
                continue
            if key in ("iters", "seed", "mode", "jobs"):
                cfg.mc[key] = value
            elif key == "out":
                cfg.output_dir = value
        if not isinstance(cfg.output_dir, str):
            raise UsageError(f"output_dir must be a string, got {cfg.output_dir!r}")
        if cfg.sweep:
            cfg.sweep_values()
        cfg.fixed_eta()
        cfg.mc_settings()
        return cfg

    def network_params(self, **replacements) -> NetworkParams:
        """NetworkParams from the network section, whose missing fields take
        NetworkParams' defaults; snr_db sets p_max via the noise power."""
        net = {key: _number(value, f"network.{key}")
               for key, value in self.network.items()}
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

    def sweep_values(self) -> tuple[str, np.ndarray]:
        """The swept parameter's name and its grid of values."""
        sweep = self.sweep
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
        if seed < 0:
            raise UsageError(f"mc.seed must be >= 0, got {seed}")
        if jobs < 1:
            raise UsageError(f"mc.jobs must be >= 1, got {jobs}")
        if mode not in MODES:
            raise UsageError(f"mc.mode must be {'|'.join(MODES)}, got {mode!r}")
        return iters, seed, mode, jobs


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_run_metadata(out_dir: Path, cfg: RunConfig, extra: dict) -> None:
    record = {"config": asdict(cfg), "version": __version__,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra}
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")


def run_sweep(cfg: RunConfig) -> list[dict]:
    """One row per swept value, with every analytic variant as mse_analytic_<v>."""
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
            # rederived: the paper variant the Monte Carlo adjudicates for
            opt = optimize_eta(params, "rederived")
            eta = opt.eta
            if opt.boundary:
                flags.append("boundary-minimum")
            if opt.extended:
                flags.append("search-extended")
        analytic = {v: mse_analytic(params, eta, v).total for v in VARIANTS}
        est = estimate_mse(params, eta, iters, seed, mode=mode, n_jobs=jobs)
        if abs(analytic["rederived"] - est.mean) > 3.0 * est.std_error:
            flags.append("analytic-mc-discrepancy")
        rows.append({
            "param_value": float(value), "eta_used": eta,
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
        for row in rows:
            writer.writerow([row[c] if isinstance(row[c], str) else _fmt(row[c])
                             for c in columns])
    return path


def optimal_radius(cfg: RunConfig, r_min: float, r_max: float,
                   ref_radius: float) -> dict:
    if not (1.0 < r_min and r_min + 1.0 <= r_max < math.inf):
        raise UsageError("require 1 < --r-min, --r-min + 1 <= --r-max < inf (a 1 m grid)")
    if not 1.0 < ref_radius < math.inf:
        raise UsageError(f"require 1 < ref_radius < inf, got {ref_radius:g}")
    report = {"r_min": r_min, "r_max": r_max, "ref_radius": ref_radius,
              "variants": {}}
    params = cfg.network_params(radius=r_min)  # radius_curve sets each radius
    grid = radius_grid(r_min, r_max)
    on_grid = np.flatnonzero(grid == ref_radius)
    for variant in PAPER_VARIANTS:
        def mse_at(radius: float) -> float:
            return float(radius_curve(params, [radius], variant)[0])

        grid_mse = radius_curve(params, grid, variant)
        refined = refine_bracket(mse_at, grid, grid_mse, tol=1e-4)
        mse_ref = float(grid_mse[on_grid[0]]) if on_grid.size else mse_at(ref_radius)
        report["variants"][variant] = {
            "r_opt": refined.x_min,
            "mse_opt": refined.g_min,
            "mse_ref": mse_ref,
            "reduction": 1.0 - refined.g_min / mse_ref,
            "boundary_flag": refined.edge is not None,
            "grid_radii": [float(r) for r in grid],
            "grid_mse": [float(m) for m in grid_mse],
        }
    return report


def eta_report(cfg: RunConfig, n_points: int) -> dict:
    if n_points < 2:
        raise UsageError(f"--points must be >= 2, got {n_points}")
    params = cfg.network_params()
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
        cfg = RunConfig.load(getattr(args, "config", None), overrides)
    except (ValueError, OSError) as exc:  # UsageError, JSON parse errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(cfg.output_dir)
    try:
        if args.command == "sweep":
            rows = run_sweep(cfg)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = write_csv(out_dir / "results.csv", CSV_HEADER, rows)
            _write_run_metadata(out_dir, cfg, {"rows": len(rows)})
            print(f"wrote {path} ({len(rows)} rows)")
            return 0
        if args.command == "optimal-radius":
            report = optimal_radius(cfg, args.r_min, args.r_max, args.ref_radius)
            out_dir.mkdir(parents=True, exist_ok=True)
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
            report = eta_report(cfg, n_points=args.points)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_csv(out_dir / "eta_curve.csv", ["eta", *PAPER_VARIANTS],
                      report["curve"])
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
            results = run_acceptance(args.criteria)
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
