"""Check that two source trees give the same CLI outputs, byte for byte.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the `aircomp` package, such as a
checkout's `src`.  For each tree, in a fresh temporary directory, it runs
`aircomp sweep` on README's example config at --jobs 1 and at --jobs 4,
`aircomp optimal-radius --r-min 5 --r-max 40 --ref-radius 5`,
`aircomp eta-report` and `aircomp validate`.  It also runs three more
sweeps of that config, each at --jobs 1 and 4 with 2000 iterations: eta on
a log scale, rician_b, and radius in annulus mode.  It compares results.csv,
optimal_radius.json, eta_report.json, eta_curve.csv and every command's exit
code and stdout.  run.json is skipped, since it holds a timestamp and the
host, and so are the seconds that validate prints per criterion.

It then evaluates every row of the analytic benchmark pools on each tree,
read from benchmarks/refs/ through benchmarks/workloads.py: mse_analytic's
total for each analytic-point row and optimize_eta's (eta, mse, boundary,
extended) for each eta-opt row.  The eta-opt pool holds only alpha = 2.1,
epsilon = 1, P = 1000 and B from 10 to 20 on two variants, so a third pool,
random-eta-opt, runs optimize_eta under all three variants on 200 networks
drawn from seed 0: lambda log-uniform on [0.005, 0.5], R log-uniform on
[2, 50], alpha from {2, 2.1, 3, 4}, epsilon from {0, 0.5, 1}, B uniform on
[0, 50] and P from {100, 1000, 10^4}, and compares its whole EtaOptimum
(eta, mse, search_hi, boundary, extended), or the error it raised.  For
each pool it prints how many rows differ in any bit and, beside that, each
tree's integrand calls and Gauss-Kronrod panels per unit over the pool,
counted by wrapping aircomp.numerics._gk15, which makes one integrand call
per round, and the points at which the analytic layer evaluates the Marcum
function, counted by wrapping aircomp.analytical.marcum_q1.  Exits 0 only
if every output exists and matches and no row differs, 1 otherwise; the
counts do not change the exit status.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# README's example config
CONFIG = {
    "network": {"density": 0.05, "radius": 10.0, "alpha": 2.1,
                "rician_b": 15.0, "snr_db": 30.0},
    "sweep": {"parameter": "lambda", "from": 0.01, "to": 0.1, "steps": 10},
    "eta_policy": {},
    "mc": {"iters": 10000, "seed": 0, "mode": "clamp", "jobs": 4},
    "output_dir": "out",
}

# README's config with another swept parameter and 2000 iterations: with
# its lambda sweep, one sweep per way a one-pass Monte Carlo could group the
# points (ROADMAP item 12)
FEW = {**CONFIG["mc"], "iters": 2000}
SWEEPS = {
    "eta": {**CONFIG, "mc": FEW, "sweep": {"parameter": "eta", "from": 1.0, "to": 100.0,
                                           "steps": 5, "log_scale": True}},
    "rician_b": {**CONFIG, "mc": FEW, "sweep": {"parameter": "rician_b", "from": 0.0,
                                                "to": 20.0, "steps": 5}},
    "radius": {**CONFIG, "mc": {**FEW, "mode": "annulus"},
               "sweep": {"parameter": "radius", "from": 5.0, "to": 20.0, "steps": 4}},
}

# (name, arguments, output files); paths are relative to the run directory,
# so that the paths the commands print are the same for both trees
RUNS = [
    ("sweep --jobs 1", ["sweep", "--config", "config.json", "--jobs", "1",
                        "--out", "jobs1"], ["jobs1/results.csv"]),
    ("sweep --jobs 4", ["sweep", "--config", "config.json", "--jobs", "4",
                        "--out", "jobs4"], ["jobs4/results.csv"]),
    ("optimal-radius", ["optimal-radius", "--config", "config.json", "--r-min", "5",
                        "--r-max", "40", "--ref-radius", "5"],
     ["out/optimal_radius.json"]),
    ("eta-report", ["eta-report", "--config", "config.json"],
     ["out/eta_report.json", "out/eta_curve.csv"]),
    ("validate", ["validate"], []),
    *((f"{name} sweep --jobs {jobs}", ["sweep", "--config", f"{name}.json", "--jobs",
                                       str(jobs), "--out", f"{name}{jobs}"],
       [f"{name}{jobs}/results.csv"]) for name in SWEEPS for jobs in (1, 4)),
]

# validate's result line ends in the criterion's wall time, e.g. " (4.4s)"
SECONDS = re.compile(rb"^(\[(?:PASS|FAIL)\] criterion \d+: .*) \(\d+\.\ds\)$", re.M)

# what the `aircomp` console script runs
ENTRY_POINT = "import sys; from aircomp.cli import main; sys.exit(main())"

# the benchmark's pools of analytic units, and a random family of networks
# that takes optimize_eta beyond the eta-opt pool's alpha, epsilon, B and P;
# per pool, the part of each unit's output its gate compares (for the
# family the whole EtaOptimum, or the error it raised), and the integrand
# calls, panels and marcum_q1 points per unit
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
POOLS = ("analytic-point", "eta-opt", "random-eta-opt")
POOL_SCRIPT = """
import json, math, sys
import numpy as np
import aircomp, workloads
from aircomp import numerics

def optimum(params, variant):
    try:
        return aircomp.analytical.optimize_eta(params, variant)
    except (ValueError, numerics.QuadratureError) as exc:
        return exc

def random_family(n=200, seed=0):
    # lambda and R log-uniform, alpha, epsilon and P from short lists, B
    # uniform; each network under every variant
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = aircomp.NetworkParams(
            density=float(np.exp(rng.uniform(math.log(0.005), math.log(0.5)))),
            radius=float(np.exp(rng.uniform(math.log(2.0), math.log(50.0)))),
            alpha=float(rng.choice([2.0, 2.1, 3.0, 4.0])),
            epsilon=float(rng.choice([0.0, 0.5, 1.0])),
            rician_b=float(rng.uniform(0.0, 50.0)),
            p_max=float(rng.choice([100.0, 1000.0, 1e4])))
        for variant in aircomp.analytical.VARIANTS:
            yield optimum(params, variant)

def outputs(name):
    if name == "random-eta-opt":
        return random_family()
    return (workloads.expected(name, workloads.make_unit(aircomp, name, row)())
            for block in workloads.load_pool(name)["blocks"] for row in block)

gk15, marcum_q1, work = numerics._gk15, aircomp.analytical.marcum_q1, [0, 0, 0]
def counted(f, ends, k):
    work[0] += 1
    work[1] += len(ends)
    return gk15(f, ends, k)
def counted_marcum(a, b):
    work[2] += np.size(b)
    return marcum_q1(a, b)
numerics._gk15 = counted
aircomp.analytical.marcum_q1 = counted_marcum
pools = {}
for name in sys.argv[1:]:
    work[:] = [0, 0, 0]
    rows = [repr(out) for out in outputs(name)]
    pools[name] = {"rows": rows, **{key: count / len(rows) for key, count
                                    in zip(("calls", "panels", "marcum"), work)}}
json.dump(pools, sys.stdout)
"""


def outputs(src: Path) -> dict[str, bytes | None]:
    """Every compared output of the runs on the package under src; None for
    a file a run did not write."""
    found: dict[str, bytes | None] = {}
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(CONFIG))
        for name, config in SWEEPS.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(config))
        for name, args, files in RUNS:
            print(f"{src}: aircomp {' '.join(args)}", file=sys.stderr)
            proc = subprocess.run([sys.executable, "-c", ENTRY_POINT, *args],
                                  cwd=tmp, env=env, capture_output=True, check=False)
            found[f"{name}: exit code"] = str(proc.returncode).encode()
            found[f"{name}: stdout"] = SECONDS.sub(rb"\1", proc.stdout)
            for file in files:
                path = Path(tmp) / file
                found[f"{name}: {file}"] = path.read_bytes() if path.exists() else None
    return found


def pool_outputs(src: Path) -> dict[str, dict]:
    """Per pool, on the package under src: "rows", the repr of every row's
    compared output (repr round-trips a float, so equal reprs mean equal
    bits), and "calls", "panels" and "marcum", the integrand calls, panels
    and marcum_q1 points per unit."""
    print(f"{src}: every row of {', '.join(POOLS)}", file=sys.stderr)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src.resolve()), str(BENCHMARKS)])}
    proc = subprocess.run([sys.executable, "-c", POOL_SCRIPT, *POOLS],
                          env=env, capture_output=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    parent, change = (outputs(Path(src)) for src in argv)
    same = True
    for key, before in parent.items():
        after = change[key]
        if before is None or after is None:
            verdict = "MISSING"
        else:
            verdict = "same" if before == after else "DIFFERS"
        same = same and verdict == "same"
        print(f"{verdict:8} {key}")
    parent_pools, change_pools = (pool_outputs(Path(src)) for src in argv)
    for name in POOLS:
        before, after = parent_pools[name], change_pools[name]
        differ = sum(a != b for a, b in zip(before["rows"], after["rows"], strict=True))
        same = same and differ == 0
        print(f"{name}: {differ} of {len(before['rows'])} rows differ in any bit; per unit, "
              f"integrand calls {before['calls']:.3f} -> {after['calls']:.3f}, "
              f"panels {before['panels']:.2f} -> {after['panels']:.2f}, "
              f"marcum_q1 points {before['marcum']:.0f} -> {after['marcum']:.0f}")
    print("every output identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
