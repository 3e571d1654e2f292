"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/collect.py --seeds 1-10 [--workloads eta-opt,mc-sweep]
        [--trace-seed 1] [--out benchmarks/out/collect.json]

Run from the repository root.  For each workload it runs run.py once per
seed with --trace 0 and the run_seconds of BENCHMARK.json, then once with
--trace 1 on --trace-seed (when given).  For every end-to-end metric it
reports the median, the quartiles of statistics.quantiles(n=4), and their
distance as a share of the median, next to the metric's bound.  The output
file is rewritten after every run.  BENCH_0.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "git_commit",
                "src_sha256")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    wall = time.monotonic() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound}
    return out


def main(argv: list[str]) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=os.path.join(HERE, "out", "collect.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)

    report = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds),
              "workloads": {}}
    for workload in args.workloads.split(","):
        entry = report["workloads"].setdefault(workload, {"runs": []})
        for seed in report["seeds"]:
            entry["runs"].append(run_once(workload, seed, args.seconds, 0))
            record = entry["runs"][-1]["record"]
            report.setdefault("machine", {k: record[k] for k in MACHINE_KEYS})
            entry["summary"] = summarise(entry["runs"], bounds)
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in
                                  traced["result"]["metrics"].items()}
            entry["trace_record"] = traced["record"]
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        for name, s in entry["summary"].items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else \
                "  <-- spread above bound/3"
            print(f"{workload:15s} {name:13s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
