"""Check that two source trees give the same CLI outputs, byte for byte.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC
       python tools/same_outputs.py --reference REF_SRC CHANGE_SRC

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

With --reference it checks accuracy instead of bits.  It evaluates every
analytic-point and eta-opt row on REF_SRC with both of mse_analytic's
quadratures, analytical._FADING_TOL and _RADIAL_TOL, set to a relative
tolerance of 1e-13 and no absolute one inside its own process, and on
CHANGE_SRC as shipped.  It prints how many CHANGE_SRC rows lie beyond the
benchmark's gates, 1e-10 relative on the analytic-point total and 1e-9 on
the eta-opt MSE, with the worst row of each pool and its parameters, and
each side's run time.  It checks ten fixed analytic-point rows of the tight
side against tests/test_analytical.py's brute_force_totals, nested scipy
quadrature, to 1e-8 relative; scipy is imported in this mode only.  Exits 0
only if no row lies beyond its gate and every checked row is within 1e-8.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
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


# --reference: the tight tolerance of the reference side, and the bound
# against nested scipy quadrature of that many of its analytic-point rows
TESTS = Path(__file__).resolve().parent.parent / "tests"
TIGHT_TOL = (1e-13, 0.0)
ORACLE_REL_TOL = 1e-8
ORACLE_ROWS = 10
REFERENCE_SCRIPT = """
import json, sys
import aircomp, workloads
from aircomp import analytical, numerics

setup = json.loads(sys.argv[1])
if setup["tol"]:
    analytical._FADING_TOL = analytical._RADIAL_TOL = tuple(setup["tol"])

def value(name, row):
    try:
        out = workloads.make_unit(aircomp, name, row)()
    except (ValueError, numerics.QuadratureError) as exc:
        return repr(exc)
    return workloads.expected(name, out)[setup["keys"][name]]

result = {name: [value(name, row) for block in workloads.load_pool(name)["blocks"]
                 for row in block] for name in setup["keys"]}
if setup["oracle"]:
    # scipy is a test-only dependency, imported with the tests' oracle
    sys.path.insert(0, setup["oracle"]["tests"])
    from test_analytical import brute_force_totals
    rows = [row for block in workloads.load_pool("analytic-point")["blocks"] for row in block]
    step = len(rows) // setup["oracle"]["rows"]
    result["oracle"] = {i: brute_force_totals(workloads.network_params(aircomp, rows[i]),
                                              rows[i]["eta"])[rows[i]["variant"]]
                        for i in range(0, step * setup["oracle"]["rows"], step)}
json.dump(result, sys.stdout)
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


def reference_values(src: Path, keys: dict[str, str], tight: bool) -> tuple[dict, float]:
    """Per pool of keys, every row's output under that key on the package
    under src, or the repr of the error it raised, with the run time in
    seconds.  With tight, at TIGHT_TOL, and under "oracle" the nested
    quadrature total of ORACLE_ROWS evenly spaced analytic-point rows, by
    row index."""
    setup = {"keys": keys, "tol": TIGHT_TOL if tight else None,
             "oracle": {"tests": str(TESTS), "rows": ORACLE_ROWS} if tight else None}
    print(f"{src}: every row of {', '.join(keys)}, "
          f"{'at tolerance ' + repr(TIGHT_TOL) if tight else 'as shipped'}", file=sys.stderr)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src.resolve()), str(BENCHMARKS)])}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_SCRIPT, json.dumps(setup)],
                          env=env, capture_output=True, check=True)
    return json.loads(proc.stdout), time.perf_counter() - start


def reference(ref_src: str, change_src: str) -> int:
    """The --reference mode: CHANGE_SRC's rows against REF_SRC's at
    TIGHT_TOL, and the tight side against nested quadrature."""
    sys.path.insert(0, str(BENCHMARKS))
    import workloads

    def relative_error(got, want) -> float:
        # the benchmark gate's relative error, or inf where either side raised
        return math.inf if str in (type(got), type(want)) else workloads._rel(got, want)

    gates = {"analytic-point": ("total", workloads.ANALYTIC_REL_TOL),
             "eta-opt": ("mse", workloads.OPT_MSE_REL_TOL)}
    keys = {name: key for name, (key, _) in gates.items()}
    (ref, ref_s), (change, change_s) = (reference_values(Path(ref_src), keys, True),
                                        reference_values(Path(change_src), keys, False))
    good = True
    for name, (key, gate) in gates.items():
        rows = [row for block in workloads.load_pool(name)["blocks"] for row in block]
        errors = [relative_error(*pair) for pair in zip(change[name], ref[name], strict=True)]
        beyond = sum(err > gate for err in errors)
        good = good and beyond == 0
        worst = max(range(len(rows)), key=errors.__getitem__)
        params = {k: v for k, v in rows[worst].items() if k != "expect"}
        print(f"{name}: {beyond} of {len(rows)} rows beyond {gate:g} relative on the {key}; "
              f"worst {errors[worst]:.3g}, shipped {change[name][worst]!r} against "
              f"tight {ref[name][worst]!r}, at {params}")
    oracle = {int(i): relative_error(ref["analytic-point"][int(i)], want)
              for i, want in ref["oracle"].items()}
    within = sum(err <= ORACLE_REL_TOL for err in oracle.values())
    good = good and within == len(oracle)
    print(f"oracle: {within} of {len(oracle)} tight analytic-point rows (index "
          f"{', '.join(map(str, oracle))}) within {ORACLE_REL_TOL:g} relative of "
          f"brute_force_totals; worst {max(oracle.values()):.3g}")
    print(f"run time: {ref_s:.1f} s at tolerance {TIGHT_TOL!r} ({ref_src}), "
          f"{change_s:.1f} s as shipped ({change_src})")
    print("every row within its gate" if good else "rows beyond their gate")
    return 0 if good else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--reference":
        return reference(*argv[1:])
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
