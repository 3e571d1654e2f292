"""Generate the benchmark's input pools and reference outputs.

    PYTHONPATH=src python3 benchmarks/make_refs.py [workload ...]

Run from the repository root.  Inputs are drawn from a fixed pool seed with
Python's own random module, so they do not depend on the numpy version;
each row's "expect" is what the library at the current commit returns for
it.  Regenerating at the same commit gives the same bytes.  Regenerate only
when a change is meant to alter the library's outputs, and say so.
"""

from __future__ import annotations

import math
import os
import random
import sys

import aircomp
import workloads as wl
from run import source_id

POOL_SEED = 20231010

# eta-opt: each block is B x variant, with (lambda, R) Latin-hypercube
# paired across the block; the ranges of the criterion 3/4 grid and the
# criterion 5 radius scan.
OPT_B = (10.0, 15.0, 20.0)
OPT_DENSITY = (0.01, 0.1)
OPT_RADIUS = (5.0, 40.0)
OPT_BLOCKS = 40

# analytic-point: each block is epsilon class x variant, with (lambda, R,
# B, log-eta fraction) Latin-hypercube paired across the block.  The pool
# holds more rows than one run uses, so no parameter set repeats in a run.
AP_EPS_CLASSES = ("zero", "uniform", "one")
AP_B = (0.0, 20.0)
AP_BLOCKS = 3200

# mc-sweep: each block has one point per stratum of log mean device count
# between lambda pi R^2 at (0.01, 10) and at (0.1, 40).
MC_STRATA = 5
MC_BLOCKS = 30
MC_DENSITY = (0.01, 0.1)
MC_RADIUS = (10.0, 40.0)

VARIANTS = ("printed", "rederived")
WARMUP = {"density": 0.05, "radius": 10.0}  # the README point


def _lhs(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one per equal-width stratum of [lo, hi], in random order."""
    width = (hi - lo) / n
    vals = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(vals)
    return vals


def _eta_opt_inputs(rng: random.Random) -> list[dict]:
    cells = [(b, v) for b in OPT_B for v in VARIANTS]
    dens = _lhs(rng, len(cells), *OPT_DENSITY)
    rads = _lhs(rng, len(cells), *OPT_RADIUS)
    return [{"density": round(d, 6), "radius": round(r, 4), "rician_b": b,
             "variant": v} for (b, v), d, r in zip(cells, dens, rads)]


def _analytic_inputs(rng: random.Random) -> list[dict]:
    cells = [(e, v) for e in AP_EPS_CLASSES for v in VARIANTS]
    n = len(cells)
    dens = _lhs(rng, n, *OPT_DENSITY)
    rads = _lhs(rng, n, *OPT_RADIUS)
    bs = _lhs(rng, n, *AP_B)
    fracs = _lhs(rng, n, 0.0, 1.0)
    rows = []
    for (eps_class, v), d, r, b, u in zip(cells, dens, rads, bs, fracs):
        eps = {"zero": 0.0, "one": 1.0}.get(eps_class)
        if eps is None:
            eps = round(rng.random(), 4)
        row = {"density": round(d, 6), "radius": round(r, 4),
               "rician_b": round(b, 4), "epsilon": eps, "variant": v}
        # eta log-uniform over the optimizer's own interval [1e-6 w^2, eta_hat]
        lo = 1e-6 * wl.NOISE_POWER
        hi = aircomp.eta_upper_bound(wl.network_params(aircomp, row)).value
        row["eta"] = float(f"{math.exp(math.log(lo) + u * math.log(hi / lo)):.6g}")
        rows.append(row)
    return rows


def _mc_inputs(rng: random.Random) -> list[dict]:
    mu_lo = MC_DENSITY[0] * math.pi * MC_RADIUS[0] ** 2
    mu_hi = MC_DENSITY[1] * math.pi * MC_RADIUS[1] ** 2
    log_mus = _lhs(rng, MC_STRATA, math.log(mu_lo), math.log(mu_hi))
    rows = []
    for log_mu in log_mus:
        mu = math.exp(log_mu)
        # densities for which R = sqrt(mu / (pi lambda)) stays in range
        d_lo = max(MC_DENSITY[0], mu / (math.pi * MC_RADIUS[1] ** 2))
        d_hi = min(MC_DENSITY[1], mu / (math.pi * MC_RADIUS[0] ** 2))
        d = math.exp(rng.uniform(math.log(d_lo), math.log(d_hi)))
        r = min(max(math.sqrt(mu / (math.pi * d)), MC_RADIUS[0]), MC_RADIUS[1])
        row = {"density": round(d, 6), "radius": round(r, 4),
               "mc_seed": rng.randrange(2 ** 31)}
        rows.append(_with_mc_eta(row))
    return rows


def _with_mc_eta(row: dict) -> dict:
    """eta fixed per point at the point's rederived optimum, as sweep uses."""
    opt = aircomp.optimize_eta(wl.network_params(aircomp, row), "rederived")
    return {**row, "eta": float(f"{opt.eta:.6g}")}


GENERATORS = {
    "eta-opt": (_eta_opt_inputs, OPT_BLOCKS,
                {**WARMUP, "rician_b": 15.0, "variant": "rederived"}),
    "analytic-point": (_analytic_inputs, AP_BLOCKS,
                       {**WARMUP, "rician_b": 15.0, "epsilon": 1.0,
                        "variant": "rederived", "eta": 1.5}),
    "mc-sweep": (_mc_inputs, MC_BLOCKS, {**WARMUP, "mc_seed": 0}),
}


def build_pool(workload: str) -> dict:
    make_inputs, n_blocks, warmup = GENERATORS[workload]
    rng = random.Random(f"{POOL_SEED}:{workload}")
    if workload == "mc-sweep":
        warmup = _with_mc_eta(warmup)

    def with_expect(row: dict) -> dict:
        out = wl.make_unit(aircomp, workload, row)()
        return {**row, "expect": wl.expected(workload, out)}

    blocks = []
    for i in range(n_blocks):
        blocks.append([with_expect(row) for row in make_inputs(rng)])
        if (i + 1) % max(1, n_blocks // 10) == 0:
            print(f"{workload}: {i + 1}/{n_blocks} blocks", file=sys.stderr,
                  flush=True)
    return {"meta": {"workload": workload, "pool_seed": POOL_SEED,
                     "unit": wl.UNIT_DEFINITION[workload],
                     "commit": source_id()["git_commit"],
                     "aircomp_version": aircomp.__version__},
            "warmup": with_expect(warmup), "blocks": blocks}


def main(argv: list[str]) -> int:
    names = argv or list(wl.WORKLOADS)
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    for name in names:
        if name not in wl.WORKLOADS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 1
        wl.save_pool(build_pool(name), wl.refs_path(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
