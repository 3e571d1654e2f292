"""Self-test of the benchmark harness on tiny runs.

    python3 benchmarks/selftest.py

Run from the repository root; takes about a minute.  For every workload it
checks, with --seconds 1:

* --trace 0 and --trace 1 print a last line with exactly the keys correct,
  attempted, failed and metrics, every metric BENCHMARK.json names (and no
  other) with its unit, and a correct result;
* a perturbed reference value for the first unit of the run makes that unit
  fail: failed is 1, correct is false and the record's failed_frac is > 0.

It also checks that the benchmark exits non-zero without a result in a
directory that holds only BENCHMARK.json and benchmarks/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SEED = 1


def run(workload: str, trace: int, *extra: str, cwd: str | None = None):
    cmd = [sys.executable, os.path.join(cwd or ".", "benchmarks", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def expect(cond: bool, what: str, errors: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        errors.append(what)


def perturbed_pool(workload: str, path: str) -> None:
    """The pool with the first unit of seed SEED given a wrong reference."""
    pool = wl.load_pool(workload)
    ref = wl.seeded_blocks(pool, SEED)[0][0]["expect"]
    if workload == "mc-sweep":
        ref["repr"] = ref["repr"].replace("(", "(1", 1)
    else:
        key = "mse" if workload == "eta-opt" else "total"
        ref[key] *= 1.0 + 1e-6
    wl.save_pool(pool, path)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors: list[str] = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                code, lines = run(workload, trace)
                result = json.loads(lines[-1]) if code == 0 and lines else {}
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                       and got == wanted[trace]
                       and all(isinstance(v["value"], float)
                               for v in result["metrics"].values()),
                       f"{workload} trace {trace}: every metric with its unit",
                       errors)
                expect(result.get("correct") is True and result.get("failed") == 0
                       and result.get("attempted", 0) >= 1,
                       f"{workload} trace {trace}: correct, nothing failed", errors)
            path = os.path.join(tmp, f"{workload}.json.gz")
            perturbed_pool(workload, path)
            code, lines = run(workload, 0, "--refs", path)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            record = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
            expect(result.get("failed") == 1 and result.get("correct") is False
                   and record.get("failed_frac", 0) > 0,
                   f"{workload}: a perturbed reference fails its unit", errors)

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        code, lines = run(wl.WORKLOADS[0], 0, cwd=bare)
        expect(code != 0 and not any(line.startswith('{"correct"') for line in lines),
               "without src/ the benchmark exits non-zero, printing no result",
               errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(errors)} failed" if errors else "all passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
