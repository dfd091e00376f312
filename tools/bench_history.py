"""One machine-readable line of benchmark history from ``bench/out``.

usage: bench_history.py [--label L] [--append]

Reads every ``bench/out/<workload>-seed<N>.json`` of the workloads
``BENCHMARK.json`` declares (``bench/run.py --workload W --seed N
--trace 0`` writes them), refuses any file marked ``"comparable": false``
(the smoke test writes the same names at a toy scale), and prints one JSON
line: the label, the commit, per workload the median over its seeds of
each end-to-end metric plus its failed ops and run count, and the
``src/`` line count.  ``--append`` also adds that line to the root-level
``BENCH_history.jsonl``.

A line measured on a clean checkout records its ``commit``.  One measured
on a tree with uncommitted changes (a change about to be committed) has
no commit yet: it records ``"commit": null`` and the ``parent`` it sits
on, and the line needs no correcting once the change is committed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def revision() -> dict:
    """``{"commit": <short sha>}`` for a clean checkout; for a tree with
    uncommitted changes to tracked files ``{"commit": None, "parent":
    <HEAD's short sha>}``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()

    head = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        return {"commit": None, "parent": head}
    return {"commit": head}


def history_line(label: str) -> dict:
    out_dir = ROOT / "bench" / "out"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pattern = re.compile(rf"{re.escape(workload)}-seed\d+\.json")
        runs = [
            json.loads(path.read_text())
            for path in sorted(out_dir.glob(f"{workload}-seed*.json"))
            if pattern.fullmatch(path.name)
        ]
        if not runs:
            sys.exit(f"bench_history: no {workload}-seed<N>.json in {out_dir}")
        toy = [run["seed"] for run in runs if not run["comparable"]]
        if toy:
            sys.exit(
                f"bench_history: {workload} seed(s) {toy} are not benchmark runs"
                " (comparable: false)"
            )
        workloads[workload] = {
            **{
                name: statistics.median(run["metrics"][name]["value"] for run in runs)
                for name in metrics
            },
            "failed_ops": sum(len(run["failed_ops"]) for run in runs),
            "runs": len(runs),
        }
    return {
        "label": label, **revision(), "workloads": workloads,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="", help="e.g. the PR this measures")
    parser.add_argument("--append", action="store_true", help=f"append to {HISTORY.name}")
    args = parser.parse_args(argv)
    line = json.dumps(history_line(args.label))
    print(line)
    if args.append:
        with HISTORY.open("a") as history:
            history.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
