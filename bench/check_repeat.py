"""Does the benchmark repeat?  Two interleaved sets of end-to-end runs.

    python3 bench/check_repeat.py [--runs 5] [--workload W ...]

Runs the current tree twice over — set A and set B, interleaved run by
run so both see the same weather — with seeds 1..n in each set, and
prints per workload and end-to-end metric: both medians, both quartile
pairs, each set's spread (distance between the quartiles over the
median), the relative gap between the medians in the worsening
direction, and the worst single-run deviation from its set's median,
against the metric's bound in ``BENCHMARK.json``.

A breach (exit code 1) is any of: a spread above the bound (``setup_s``
exempt: its spread is reported only), set B's median worse than set A's
by more than half the bound, or a simulated metric that differs between
the two sets at the same seed.  Run i of a set uses seed i, so the spread
includes what the seed does to the inputs, not only the machine's noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.run import ROOT, run_workload_subprocess  # noqa: E402

EXACT = ("sim_runtime_s", "sim_cost_usd")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    run_args = argparse.Namespace(
        seconds=float(spec["run_seconds"]), trace=0, scale=None, passes=None
    )

    # values[workload][metric][set] -> list over seeds
    values: dict = {w: {} for w in workloads}
    failed = 0
    for seed in range(1, args.runs + 1):
        for which in ("A", "B"):
            for workload in workloads:
                run_args.seed = seed
                result = run_workload_subprocess(workload, run_args, echo=False)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, {"A": [], "B": []})[
                        which
                    ].append(metric["value"])
                print(f"seed {seed} set {which} {workload}: done", flush=True)

    breaches: list[str] = []
    header = (f"{'workload':17s} {'metric':14s} {'median A':>11s} {'median B':>11s}"
              f" {'quartiles A':>23s} {'quartiles B':>23s} {'spread A':>8s}"
              f" {'spread B':>8s} {'gap':>7s} {'worst':>7s} {'bound':>6s}")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = values[workload][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians = {k: statistics.median(v) for k, v in sets.items()}
            quartiles = {
                k: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                for k, v in sets.items()
            }
            spreads = {
                k: (quartiles[k][2] - quartiles[k][0]) / medians[k] for k in sets
            }
            gap = sign * (medians["B"] - medians["A"]) / medians["A"]
            worst = max(
                abs(v - medians[k]) / medians[k] for k in sets for v in sets[k]
            )
            print(f"{workload:17s} {name:14s} {medians['A']:11.4f} {medians['B']:11.4f}"
                  f" {quartiles['A'][0]:11.4f}-{quartiles['A'][2]:<11.4f}"
                  f" {quartiles['B'][0]:11.4f}-{quartiles['B'][2]:<11.4f}"
                  f" {spreads['A']:8.2%} {spreads['B']:8.2%} {gap:+7.2%}"
                  f" {worst:7.2%} {bound:6.0%}")
            if name != "setup_s" and max(spreads.values()) > bound:
                breaches.append(f"{workload}.{name}: spread above bound")
            if gap > bound / 2:
                breaches.append(f"{workload}.{name}: set B worse by {gap:.2%}")
            if name in EXACT and sets["A"] != sets["B"]:
                breaches.append(f"{workload}.{name}: differs at the same seed")
    if failed:
        breaches.append(f"{failed} failed ops")
    for breach in breaches:
        print("BREACH", breach)
    print("repeatability:", "FAILED" if breaches else "ok")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
