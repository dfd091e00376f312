"""The benchmark's one command.

    python3 bench/run.py                       # all four workloads + ratios
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

With ``--workload`` it runs that workload in this process (re-executed
once with ``PYTHONHASHSEED=0`` so set iteration, and with it every plan,
repeats) and prints every metric by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics from timed,
untraced passes; ``--trace 1`` reports the per-layer metrics from one
traced pass, one profiled pass and the layer probes.  Without
``--workload`` each workload runs in its own fresh subprocess and the
paper's headline ratios are printed from their results.

``--scale`` and ``--passes`` exist for the smoke test; numbers produced
with them are marked non-comparable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time; sets the pass count (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--scale", type=float, help="smoke test only")
    parser.add_argument("--passes", type=int, help="smoke test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: the engine (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    return run_one(args)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

def run_one(args: argparse.Namespace) -> int:
    from bench import harness
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r};"
              f" choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale, args.seed)
    comparable = args.scale is None and args.passes is None
    print(f"== {workload.name} (scale {workload.scale}, seed {args.seed}) ==")
    if not comparable:
        print("   NON-COMPARABLE: --scale/--passes override the benchmark's settings")

    session = harness.open_session(
        workload, loads=1 if args.trace else harness.SETUP_LOADS
    )
    # The retained input rows are permanent; keep gen-2 collections during
    # the timed passes from rescanning them.
    gc.collect()
    gc.freeze()
    if args.trace:
        from bench import tracing

        report = tracing.traced_run(session)
    else:
        passes = args.passes or max(
            harness.MIN_PASSES, int(args.seconds // workload.pass_ref_s)
        )
        results = [harness.run_pass(session) for _ in range(passes)]
        report = harness.end_to_end(session, results)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in report["metrics"].items()
    }

    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:16.6f} {metric['unit']}")
    failed = report["failed_ops"]
    print(f"{'failed_ops':42s} {len(failed):9d} of {report['ops']} ops"
          + (f"  {failed}" if failed else ""))
    for name, value in report["info"].items():
        if not isinstance(value, (dict, list)):
            print(f"  ({name} = {value})")

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}{suffix}.json"
    out_path.write_text(json.dumps({
        "workload": workload.name, "scale": workload.scale, "seed": args.seed,
        "comparable": comparable, "claim": None,
        **{k: report[k] for k in ("ops", "failed_ops", "info")},
        "metrics": metrics,
        **({"spans": report["spans"]} if "spans" in report else {}),
    }, indent=1))
    print(f"  (details written to {out_path.relative_to(ROOT)})")

    print(json.dumps({
        "correct": not failed,
        "attempted": report["ops"],
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------

def run_workload_subprocess(
    workload: str, args: argparse.Namespace, echo: bool = True
) -> dict:
    """Run one workload in a child process; returns its final JSON line."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if echo or done.returncode != 0:
        sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    names = [w["name"] for w in _spec()["workloads"]]
    results = {name: run_workload_subprocess(name, args) for name in names}
    if not args.trace:
        def metric(workload: str, name: str) -> float:
            return results[workload]["metrics"][name]["value"]

        pushdown, baseline = "tpch_pushdown", "tpch_baseline"
        print("== the paper's headline, as ratios of the metrics above ==")
        print(f"simulated speed-up  baseline/pushdown sim_runtime_s"
              f" {metric(baseline, 'sim_runtime_s') / metric(pushdown, 'sim_runtime_s'):8.3f} x")
        print(f"simulated cost      pushdown/baseline sim_cost_usd "
              f" {metric(pushdown, 'sim_cost_usd') / metric(baseline, 'sim_cost_usd'):8.3f}")
        print(f"real clock          pushdown/baseline wall_s       "
              f" {metric(pushdown, 'wall_s') / metric(baseline, 'wall_s'):8.3f}"
              "   (ROADMAP gate: <= 1)")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
