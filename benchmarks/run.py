"""aircomp benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload eta-opt --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each run of a workload is a fresh worker process (benchmarks/worker.py)
with one BLAS thread: one caller in a closed loop, n_jobs=1.

A run ends at the first block boundary after --seconds (see workloads.py).
--trace 0 prints the end-to-end metrics: one timed run of --seconds, plus
two more set-ups, set-up time being the median of the three.  --trace 1
prints the per-layer metrics from a run whose blocks alternate between
traced and untraced; the ratio of their time per unit is the tracing
overhead.
The last line of standard output is the result as one JSON object; the line
before it is the run record, also written, with every unit's time, to
benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS = 3
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def worker(mode: str, args, **extra) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    extra["refs"] = args.refs
    for key, value in extra.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least TAIL_BEYOND units
    beyond it: (value, percentile, units beyond)."""
    s = sorted(times_ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def source_id() -> dict:
    """Commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "aircomp")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        path = os.path.join(".git", ref[5:]) if ref.startswith("ref: ") else None
        if path is None:
            commit = ref
        elif os.path.isfile(path):
            with open(path) as fh:
                commit = fh.read().strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(args, record: dict) -> tuple[dict, list[dict]]:
    main = worker("run", args, seconds=args.seconds)
    setups = [main] + [worker("setup", args) for _ in range(SETUPS - 1)]
    times_ms = [1000.0 * t for t in main["unit_s"]]
    tail_ms, tail_pct, beyond = tail(times_ms)
    record.update({
        "sample_count": len(times_ms),
        "tail_percentile": tail_pct, "tail_units_beyond": beyond,
        "setup_samples_s": [w["setup_s"] for w in setups],
        "pool_exhausted": main["pool_exhausted"],
        "unit_ms": times_ms,
    })
    metrics = {
        "units_per_s": len(times_ms) / sum(main["unit_s"]),
        "unit_p50_ms": statistics.median(times_ms),
        "unit_tail_ms": tail_ms,
        "setup_s": statistics.median(record["setup_samples_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    return {k: metric(v, units[k]) for k, v in metrics.items()}, setups


def run_traced(args, record: dict) -> tuple[dict, list[dict]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = worker("trace", args, seconds=args.seconds, spans_out=os.path.join(
        OUT_DIR, f"spans-{args.workload}.npz"))
    table = dict(traced["layers"], trace_overhead_frac=traced["trace_overhead_frac"])
    record.update({"sample_count": traced["attempted"],
                   "traced_sample_count": traced["traced_units"]})
    return {name: metric(table[name], unit)
            for name, unit, _ in spans.PER_LAYER}, [traced]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=None,
                    help="reference pool to gate against (default: refs/)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join("src", "aircomp", "__init__.py")):
        print("benchmark: src/aircomp not found; run from the repository root",
              file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": wl.UNIT_DEFINITION[args.workload],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), **source_id(),
    }
    try:
        if args.trace:
            metrics, workers = run_traced(args, record)
        else:
            metrics, workers = run_end_to_end(args, record)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    timed = [w for w in workers if "attempted" in w]
    attempted = sum(w["attempted"] for w in timed)
    failed = sum(w["failed"] for w in timed)
    warm_errors = [w["warmup_error"] for w in workers if w["warmup_error"]]
    record.update({
        "python": timed[0]["python"], "numpy": timed[0]["numpy"],
        "worker_threads": max(w["threads"] for w in timed),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "warmup_errors": warm_errors,
        "failures": [f for w in timed for f in w["failures"]][:5],
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    record.pop("unit_ms", None)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0 and not warm_errors,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
