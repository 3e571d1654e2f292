"""Workload definitions shared by the reference generator and the worker.

A workload is a pool of input rows, grouped into blocks.  Every block is a
stratified sample of the workload's input space, and a run always ends on a
block boundary, so every run sees nearly the same mix of cheap and
expensive units.  The workload seed only shuffles the blocks and the rows
inside each block; the rows themselves, with the outputs the library
produced for them, are committed under refs/.

Each unit calls the library through its module attribute
(``analytical.optimize_eta``, ...) so that the span recorder can wrap it.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Scenario constants of the README config and the acceptance grids.
ALPHA = 2.1
P_MAX = 1000.0
NOISE_POWER = 1.0
MC_ITERS = 10_000
MC_RICIAN_B = 15.0

# Gate tolerances.  analytic-point uses the 1e-10 same-behaviour bound; the
# eta optimum is flat, so eta-opt compares the MSE tightly and eta loosely.
ANALYTIC_REL_TOL = 1e-10
OPT_MSE_REL_TOL = 1e-9
OPT_ETA_REL_TOL = 5e-2

WORKLOADS = ("eta-opt", "analytic-point", "mc-sweep")

UNIT_DEFINITION = {
    "eta-opt": "one analytical.optimize_eta call (alpha=2.1, epsilon=1, P=1000)",
    "analytic-point": "one analytical.mse_analytic call at one parameter set",
    "mc-sweep": f"one montecarlo.estimate_mse call of {MC_ITERS} realizations, "
                "n_jobs=1",
}


def refs_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json.gz")


def load_pool(workload: str, path: str | None = None) -> dict:
    with gzip.open(path or refs_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_pool(pool: dict, path: str) -> None:
    """Write the pool as gzip'd JSON with a fixed header, so that
    regenerating it at the same commit gives the same bytes."""
    data = json.dumps(pool, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
        fh.write(data)


def seeded_blocks(pool: dict, seed: int) -> list[list[dict]]:
    """The blocks of a run: blocks shuffled, then rows shuffled in each."""
    rng = random.Random(seed)
    blocks = [list(b) for b in pool["blocks"]]
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return blocks


def network_params(aircomp, row: dict):
    return aircomp.NetworkParams(
        density=row["density"], radius=row["radius"], alpha=ALPHA,
        epsilon=row.get("epsilon", 1.0),
        rician_b=row.get("rician_b", MC_RICIAN_B),
        p_max=P_MAX, noise_power=NOISE_POWER)


def make_unit(aircomp, workload: str, row: dict):
    """Return a zero-argument callable that runs one unit of the workload."""
    params = network_params(aircomp, row)
    if workload == "eta-opt":
        return lambda: aircomp.analytical.optimize_eta(params, row["variant"])
    if workload == "analytic-point":
        return lambda: aircomp.analytical.mse_analytic(
            params, row["eta"], row["variant"])
    if workload == "mc-sweep":
        return lambda: aircomp.montecarlo.estimate_mse(
            params, row["eta"], n_iter=MC_ITERS, seed=row["mc_seed"], n_jobs=1)
    raise ValueError(f"unknown workload {workload!r}")


def expected(workload: str, out) -> dict:
    """The part of a unit's output that the gate compares."""
    if workload == "eta-opt":
        return {"mse": out.mse, "eta": out.eta, "boundary": out.boundary,
                "extended": out.extended}
    if workload == "analytic-point":
        return {"total": out.total}
    if workload == "mc-sweep":
        return {"repr": repr((out.mean, out.std_error, out.n_used))}
    raise ValueError(f"unknown workload {workload!r}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def check(workload: str, row: dict, out) -> str | None:
    """Compare one unit's output with its reference; None when it matches."""
    got, ref = expected(workload, out), row["expect"]
    if workload == "eta-opt":
        if _rel(got["mse"], ref["mse"]) > OPT_MSE_REL_TOL:
            return f"mse {got['mse']!r} != {ref['mse']!r}"
        if _rel(got["eta"], ref["eta"]) > OPT_ETA_REL_TOL:
            return f"eta {got['eta']!r} far from {ref['eta']!r}"
        if (got["boundary"], got["extended"]) != (ref["boundary"], ref["extended"]):
            return f"flags {got['boundary'], got['extended']} != " \
                   f"{ref['boundary'], ref['extended']}"
        return None
    if workload == "analytic-point":
        if not math.isfinite(got["total"]) or \
                _rel(got["total"], ref["total"]) > ANALYTIC_REL_TOL:
            return f"total {got['total']!r} != {ref['total']!r}"
        return None
    if got["repr"] != ref["repr"]:
        return f"{got['repr']} != {ref['repr']}"
    return None
