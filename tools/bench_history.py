"""One machine-readable line of benchmark history from ``bench/out``.

usage: bench_history.py [--label L] [--seeds 1-10] [--tier1 "N passed in S.SSs"] [--append]

Reads ``bench/out/<workload>-seed<N>.json`` of the workloads
``BENCHMARK.json`` declares, for the seeds ``--seeds`` names (default
1-10; ``bench/run.py --workload W --seed N --trace 0`` writes them) and
no other: a file an out-of-sample run left there is not one of this
line's runs.  It refuses a missing file and any marked ``"comparable": false``
(the smoke test writes the same names at a toy scale), and prints one JSON
line: the label, the commit, per workload the median over its seeds of
each end-to-end metric plus its failed ops and run count, and the
``src/`` line count.  ``--tier1`` takes the tier-1 run's pytest summary
line and records ``"tier1": {"passed": N, "seconds": S}``.  ``--append``
also adds that line to the root-level ``BENCH_history.jsonl``.

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


def tier1_summary(text: str) -> dict:
    """``{"passed": N, "seconds": S}`` from a pytest summary line such as
    ``1686 passed in 162.22s`` (other outcome counts may sit between)."""
    passed = re.search(r"(\d+) passed", text)
    seconds = re.search(r" in (\d+(?:\.\d+)?)s", text)
    if passed is None or seconds is None:
        sys.exit(f"bench_history: not a pytest summary line: {text!r}")
    return {"passed": int(passed[1]), "seconds": float(seconds[1])}


def parse_seeds(text: str) -> list[int]:
    """``1-10``, ``3,5,11`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def history_line(label: str, tier1: str | None = None, seeds=range(1, 11)) -> dict:
    out_dir = ROOT / "bench" / "out"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        paths = [out_dir / f"{workload}-seed{seed}.json" for seed in seeds]
        missing = [path.name for path in paths if not path.exists()]
        if missing:
            sys.exit(f"bench_history: no {', '.join(missing)} in {out_dir}")
        runs = [json.loads(path.read_text()) for path in paths]
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
    line = {
        "label": label, **revision(), "workloads": workloads,
        "src_lines": src_lines(),
    }
    if tier1 is not None:
        line["tier1"] = tier1_summary(tier1)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="", help="e.g. the PR this measures")
    parser.add_argument(
        "--tier1", default=None, metavar="SUMMARY",
        help='the tier-1 pytest summary line, e.g. "1686 passed in 162.22s"',
    )
    parser.add_argument("--seeds", default="1-10", help="the seeds to read, e.g. 1-10 or 1")
    parser.add_argument("--append", action="store_true", help=f"append to {HISTORY.name}")
    args = parser.parse_args(argv)
    line = json.dumps(history_line(args.label, args.tier1, parse_seeds(args.seeds)))
    print(line)
    if args.append:
        with HISTORY.open("a") as history:
            history.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
