"""Smoke test of ``tools/pairs.py`` at a toy scale (NON-COMPARABLE).

One pair of HEAD against the working tree, one workload, one pass: both
trees are exported, both runs land in the JSON, the markdown block is
printed, no history line is made from toy runs, and a second run refuses
to overwrite the first one's JSON.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pairs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--parent", "HEAD", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_one_toy_pair_of_head_against_the_working_tree(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "pairs.json"
    toy = ["--workloads", "tpch_baseline", "--seeds", "2",
           "--scale", "0.0005", "--passes", "1", "--out", str(out)]
    done = pairs(*toy)
    record = json.loads(out.read_text())
    assert done.returncode == (1 if record["mismatches"] else 0), done.stdout + done.stderr
    assert "NON-COMPARABLE" in done.stdout
    assert "| `wall_s` |" in done.stdout
    assert "`sim_*` equal run for run:" in done.stdout
    assert "pairs: no history line" in done.stdout
    assert record["comparable"] is False and record["seeds"] == [2]
    head = record["revisions"]["parent"]["commit"]
    assert record["revisions"]["change"]["parent"] == head
    (parent,), (change,) = record["runs"]["tpch_baseline"].values()
    assert parent["seed"] == change["seed"] == 2

    again = pairs(*toy)
    assert again.returncode != 0 and "holds an earlier run" in again.stderr
    assert json.loads(out.read_text()) == record


def test_history_line_reads_only_the_seeds_it_is_given(tmp_path, monkeypatch):
    # An out-of-sample run leaves bench/out/<w>-seed11.json behind; a line
    # over seeds 1-10 must take neither its numbers nor its count.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_history", ROOT / "tools" / "bench_history.py")
    history = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(history)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    (tmp_path / "src").mkdir()
    out = tmp_path / "bench" / "out"
    out.mkdir(parents=True)
    names = [m["name"] for m in benchmark["end_to_end"]]
    for workload in (w["name"] for w in benchmark["workloads"]):
        for seed in range(1, 12):
            value = 1000.0 if seed == 11 else float(seed)
            (out / f"{workload}-seed{seed}.json").write_text(json.dumps({
                "seed": seed, "comparable": True, "failed_ops": ["stale"] * (seed == 11),
                "metrics": {name: {"value": value} for name in names},
            }))
    monkeypatch.setattr(history, "ROOT", tmp_path)
    monkeypatch.setattr(history, "revision", lambda: {"commit": "test"})
    line = history.history_line("t")
    for run in line["workloads"].values():
        assert run["runs"] == 10 and run["failed_ops"] == 0
        assert all(run[name] == 5.5 for name in names)
    seed1 = history.history_line("t", seeds=history.parse_seeds("1"))
    assert all(run["runs"] == 1 and run["wall_s"] == 1.0 for run in seed1["workloads"].values())
