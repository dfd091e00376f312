"""Smoke test of the benchmark itself, at a tiny scale.

Checks the CLI contract (every workload and metric named in
``BENCHMARK.json`` is printed with its unit; the last line is the result
object), that the simulated metrics repeat exactly, and that the oracle
can fail: an op whose expected rows are corrupted counts as a failed op.
No timing is asserted — this runs on any machine, in any weather.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.0005", "--passes", "1"]


def _run_cli(*extra: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *SMOKE, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"},
    )
    assert done.returncode == 0, done.stdout
    return done.stdout.splitlines()


def _results(lines: list[str]) -> list[dict]:
    return [json.loads(line) for line in lines if line.startswith('{"correct"')]


def _check_results(lines: list[str], workloads: list[str], section: str) -> None:
    results = _results(lines)
    assert len(results) == len(workloads)
    for workload in workloads:
        assert any(line.startswith(f"== {workload} ") for line in lines)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    text = "\n".join(lines)
    for metric in SPEC[section]:
        assert f"{metric['name']} " in text
    assert "NON-COMPARABLE" in text


def test_cli_prints_every_end_to_end_metric_for_every_workload():
    lines = _run_cli("--trace", "0")
    _check_results(lines, [w["name"] for w in SPEC["workloads"]], "end_to_end")
    assert any("baseline/pushdown sim_runtime_s" in line for line in lines)


# The traced run costs ~10 s per workload even at this scale (a profiled
# pass and the probes), so two workloads stand for the four: between them
# they open every span and move every counter.
@pytest.mark.parametrize("workload", ["paper_strategies", "repeat_session"])
def test_cli_prints_every_per_layer_metric(workload):
    lines = _run_cli("--workload", workload, "--trace", "1")
    _check_results(lines, [workload], "per_layer")
    metrics = _results(lines)[0]["metrics"]
    root = "strategy.run" if workload == "paper_strategies" else "facade.execute"
    assert metrics[f"{root}.calls"]["value"] > 0
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    if workload == "repeat_session":
        for name in ("hits", "subsumed", "misses", "evictions", "invalidations"):
            assert metrics[f"cache.{name}"]["value"] > 0, name
        assert metrics["catalog.load.calls"]["value"] == 2


def test_simulated_metrics_repeat_exactly():
    first, second = (
        _results(_run_cli("--workload", "repeat_session", "--trace", "0"))[0]
        for _ in range(2)
    )
    for name in ("sim_runtime_s", "sim_cost_usd"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
        assert first["metrics"][name]["value"] > 0


def test_corrupted_oracle_counts_as_failed_op():
    from bench import harness
    from bench.workloads import WORKLOADS

    session = harness.open_session(
        WORKLOADS["tpch_baseline"](0.0005, seed=1), loads=1
    )
    victim = session.ops[0]
    victim.expected = list(victim.expected) + [victim.expected[0]]
    report = harness.end_to_end(session, [harness.run_pass(session)])
    assert report["failed_ops"] == [victim.name]
    assert report["ops"] == len(session.ops)
