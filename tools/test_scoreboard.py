"""Smoke test of ``tools/scoreboard.py`` at SF 0.002 on three queries.

One run writes the JSON (both modes, sim-s, dollars, the predicted
ones, rows matching sqlite3's) and prints its table with each mode's
count of queries metered within 5 % of predicted; a diff against an
edited copy prints each query's and the totals' relative change and
marks rows that differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import scoreboard  # noqa: E402

QUERIES = ["q03", "q14", "q19"]


def test_three_queries_at_a_small_scale(tmp_path):
    out = tmp_path / "board.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scoreboard.py"), "--out", str(out),
         "--scale", "0.002", "--queries", *QUERIES],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    board = json.loads(out.read_text())
    assert board["modes"] == ["optimized", "auto"]
    assert sorted(board["queries"]) == QUERIES
    for modes in board["queries"].values():
        for cell in modes.values():
            assert cell["rows_match"] is True
            assert cell["sim_s"] > 0 and cell["usd"] > 0
            assert cell["pred_s"] > 0 and cell["pred_usd"] > 0
    assert "### optimized" in done.stdout and "| **sum** |" in done.stdout
    for mode in ("optimized", "auto"):
        close, predicted = scoreboard.within(board, mode)
        assert predicted == 3 and 0 <= close <= 3
        assert (
            f"{mode}: metered sim-s within 5 % of predicted on {close} of 3 queries"
            in done.stdout
        )

    before = json.loads(out.read_text())
    before["queries"]["q14"]["optimized"]["sim_s"] *= 2
    board["queries"]["q19"]["auto"]["rows_match"] = False
    cell = board["queries"]["q03"]["optimized"]
    cell["sim_s"], cell["pred_s"] = 1.0, 1.05  # the edge counts; past it does not
    assert scoreboard.within(board, "optimized")[0] >= 1
    close = scoreboard.within(board, "optimized")[0]
    cell["pred_s"] = 1.06
    assert scoreboard.within(board, "optimized")[0] == close - 1
    table = scoreboard.render(board, before)
    assert "| -50.0% |" in table
    assert "q19 **ROWS DIFFER**" in table
    assert scoreboard.mismatches(board) == ["q19/auto"]
    assert "auto regrets (metered $ above optimized's): " in done.stdout
    for name in QUERIES:
        board["queries"][name]["auto"]["usd"] = board["queries"][name]["optimized"]["usd"]
    board["queries"]["q14"]["auto"]["usd"] *= 1.01
    assert scoreboard.regrets(board) == ["q14"]
    assert "auto regrets (metered $ above optimized's): q14" in scoreboard.render(board)
