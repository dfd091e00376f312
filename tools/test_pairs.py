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
