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
host, and so are the seconds that validate prints per criterion.  Exits 0
only if every output exists and matches, 1 otherwise.
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
    print("every output identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
