"""One fresh benchmark process: set up, then run units in a closed loop.

Started by run.py with the repository's src/ on PYTHONPATH and one BLAS
thread.  Prints one JSON line.  Modes:

  setup  import aircomp, build the seeded inputs, run the warm-up unit, stop
  run    set up, then time units block by block until --seconds have
         passed, checking every output against its reference
  trace  as run, with the span recorder installed in every other block
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback

import spans
import workloads as wl


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--refs", default=None, help="reference pool to use")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import aircomp
    src = os.path.realpath("src")
    if not os.path.realpath(aircomp.__file__).startswith(src + os.sep):
        print(f"aircomp was imported from {aircomp.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import numpy

    pool = wl.load_pool(args.workload, args.refs)
    blocks = wl.seeded_blocks(pool, args.seed)
    warm = pool["warmup"]
    warm_error = wl.check(args.workload, warm,
                          wl.make_unit(aircomp, args.workload, warm)())
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup_error": warm_error}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    rec = spans.SpanRecorder() if args.mode == "trace" else None
    # A traced run alternates traced and untraced blocks and stops only
    # after a pair, so that both halves see the same input mix and the same
    # drift in machine speed; their ratio is the tracing overhead.
    stride = 2 if rec else 1
    times, traced, failures = [], [], []
    n_blocks = 0
    start = time.perf_counter()
    for b, block in enumerate(blocks):
        if b % stride == 0 and time.perf_counter() - start >= args.seconds:
            break
        n_blocks += 1
        on = rec is not None and b % 2 == 0
        with spans.installed(rec) if on else contextlib.nullcontext():
            for row in block:
                i = len(times)
                unit = wl.make_unit(aircomp, args.workload, row)
                t = time.perf_counter()
                try:
                    out = rec.run_unit(i, unit) if on else unit()
                    error = None
                except Exception:
                    out, error = None, traceback.format_exc(limit=3)
                times.append(time.perf_counter() - t)
                traced.append(on)
                if error is None:
                    error = wl.check(args.workload, row, out)
                if error is not None:
                    failures.append({"unit": i, "row": row, "error": error})

    if rec is not None:
        on_s = [t for t, on in zip(times, traced) if on]
        off_s = [t for t, on in zip(times, traced) if not on]
        result["layers"] = rec.layer_table(len(on_s))
        result["traced_units"] = len(on_s)
        result["trace_overhead_frac"] = \
            (sum(on_s) / len(on_s)) / (sum(off_s) / len(off_s)) - 1.0
        if args.spans_out:
            rec.save(args.spans_out)

    result.update({
        "unit_s": times,
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:5],
        "pool_exhausted": n_blocks == len(blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threading.active_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
