"""Alternating parent/change benchmark pairs as one command.

usage: pairs.py --parent REF [--workloads W ...] [--seeds 1-10] [--out PAIRS.json]
                [--label L] [--tier1 SUMMARY] [--append]
                [--scale X --passes N]

Exports the parent (``git archive REF``) and the change (the working tree
as it stands: the tracked and untracked files git does not ignore) into
one temporary directory.  Then, per seed and workload, it runs
``bench/run.py --workload W --seed N --trace 0`` in each tree (run length:
``BENCHMARK.json``'s ``run_seconds``), the parent first on odd seeds and
the change first on even ones.  The two runs of a pair must agree
exactly on ``sim_runtime_s`` and ``sim_cost_usd``, and neither may fail
an op; pairs that do not are listed, and the exit status is 1.

It writes one JSON holding every run of both sides (revisions, metrics,
failed ops, and each run's raw / calibrated clock ratio, which is how
slow the calibration kernel ran) — by default
``bench/out/pairs-<workloads>-seeds<SEEDS>.json``, and never over an
existing file — and prints a markdown block for CHANGES.md: per workload
and end-to-end metric, both medians, the change's relative delta, the
pairs the change won and the parent's interquartile range.

A run of every workload over seeds 1-10 or more also makes the
``BENCH_history.jsonl`` line: the change side's
``bench/out/<workload>-seed<N>.json`` of the seeds just run replace this
checkout's, and ``tools/bench_history.py`` prints the line (``--label``,
``--tier1`` and ``--append`` are passed on; it reads every seed file in
``bench/out``).  Other runs leave ``bench/out`` as it was, apart from
their JSON.

``--scale`` and ``--passes`` are passed to ``bench/run.py`` for a toy run:
its numbers are NON-COMPARABLE, and no history line is made.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM = ("sim_runtime_s", "sim_cost_usd")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def parse_seeds(text: str) -> list[int]:
    """``1-10``, ``3,5,11`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(ref: str | None, into: Path) -> dict:
    """Write ``ref``'s tree (``None``: the working tree) into ``into``;
    return its revision."""
    into.mkdir(parents=True)
    if ref is not None:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", ref], cwd=ROOT,
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(into, filter="data")
        return {"ref": ref, "commit": git("rev-parse", "--short", ref)}
    listed = git("ls-files", "-z", "-co", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"ref": None, "commit": None if dirty else head, "parent": head}


def run(tree: Path, workload: str, seed: int, args) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line and out file."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"pairs: {workload} seed {seed} failed in {tree}:\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    out = json.loads((tree / "bench" / "out" / f"{workload}-seed{seed}.json").read_text())
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    return {
        "seed": seed,
        "metrics": metrics,
        "failed_ops": out["failed_ops"],
        "comparable": out["comparable"],
        "raw_per_calibrated": out["info"]["wall_raw_s"] / metrics["wall_s"],
    }


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summary(runs: dict, spec: dict, comparable: bool) -> list[str]:
    """The CHANGES.md block: one table per workload."""
    lines = []
    if not comparable:
        lines.append("NON-COMPARABLE: toy-scale runs (--scale / --passes).")
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        n = len(parent)
        lines += [
            f"`{workload}`, {n} pairs:",
            "",
            "| metric | parent | change | delta | change better | parent IQR |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in parent]
            c = [r["metrics"][name] for r in change]
            sign = -1 if metric["better"] == "lower" else 1
            won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            mp, mc = statistics.median(p), statistics.median(c)
            delta = f"{(mc - mp) / mp:+.1%}" if mp else "n/a"
            lines.append(
                f"| `{name}` | {mp:.4g} | {mc:.4g} | {delta} | {won}/{n}"
                f" | {iqr(p):.4g} |"
            )
        sim_equal = all(
            a["metrics"][k] == b["metrics"][k]
            for a, b in zip(parent, change) for k in SIM
        )
        failed = (sum(len(r["failed_ops"]) for r in parent),
                  sum(len(r["failed_ops"]) for r in change))
        lines += [
            "",
            f"`sim_*` equal run for run: {sim_equal}; failed ops: parent"
            f" {failed[0]}, change {failed[1]}.",
            "",
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=declared)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11")
    parser.add_argument("--out", type=Path, default=None,
                        help="the JSON of every run (must not exist)")
    parser.add_argument("--label", default="")
    parser.add_argument("--tier1", default=None, metavar="SUMMARY")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--scale", type=float, help="toy run (non-comparable)")
    parser.add_argument("--passes", type=int, help="toy run (non-comparable)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.out is None:
        named = "all" if args.workloads == declared else "+".join(args.workloads)
        args.out = ROOT / "bench" / "out" / f"pairs-{named}-seeds{args.seeds}.json"
    if args.out.exists():
        sys.exit(f"pairs: {args.out} holds an earlier run; move it or pass --out")

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        revisions = {
            "parent": export(args.parent, trees["parent"]),
            "change": export(None, trees["change"]),
        }
        runs = {w: {"parent": [], "change": []} for w in args.workloads}
        mismatches = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in args.workloads:
                pair = {side: run(trees[side], workload, seed, args) for side in order}
                for side in order:
                    runs[workload][side].append(pair[side])
                p, c = pair["parent"], pair["change"]
                differ = [k for k in SIM if p["metrics"][k] != c["metrics"][k]]
                if differ or p["failed_ops"] != c["failed_ops"] or p["failed_ops"]:
                    mismatches.append({"workload": workload, "seed": seed,
                                       "sim_differ": differ,
                                       "failed_ops": {"parent": p["failed_ops"],
                                                      "change": c["failed_ops"]}})
                print(f"pairs: {workload} seed {seed} ({order[0]} first):"
                      f" wall_s {p['metrics']['wall_s']:.4f} -> {c['metrics']['wall_s']:.4f}",
                      file=sys.stderr)
        comparable = all(
            r["comparable"] for sides in runs.values() for rs in sides.values() for r in rs
        )
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "revisions": revisions, "seeds": seeds, "comparable": comparable,
            "runs": runs, "mismatches": mismatches,
        }, indent=1))
        print("\n".join(summary(runs, spec, comparable)))
        for m in mismatches:
            print(f"MISMATCH: {m}")
        print(f"(every run written to {args.out})")

        if not (comparable and set(declared) <= set(args.workloads)
                and set(range(1, 11)) <= set(seeds)):
            print("pairs: no history line (it needs every workload over seeds 1-10,"
                  " at full scale)")
            return 1 if mismatches else 0
        out_dir = ROOT / "bench" / "out"
        for workload in args.workloads:
            for seed in seeds:
                name = f"{workload}-seed{seed}.json"
                shutil.copy2(trees["change"] / "bench" / "out" / name, out_dir / name)
        history = [sys.executable, str(ROOT / "tools" / "bench_history.py"),
                   "--label", args.label]
        if args.tier1 is not None:
            history += ["--tier1", args.tier1]
        if args.append:
            history.append("--append")
        if subprocess.run(history, cwd=ROOT).returncode != 0:
            print("pairs: no history line (see bench_history.py's message)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
