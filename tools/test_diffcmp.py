"""``tools/diffcmp.py`` ends with a per-field tally, metered fields apart;
``--rows`` fails on a changed result, in order only where SQL orders it."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, parent: dict, change: dict, *flags: str):
    paths = []
    for name, dump in (("seed", parent), ("new", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diffcmp.py"), *flags, *paths],
        capture_output=True, text=True, timeout=60,
    )


def _compare(tmp_path, parent: dict, change: dict) -> list[str]:
    done = _run(tmp_path, parent, change)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _rows_check(tmp_path, ordered: bool, parent_rows: list, change_rows: list):
    """``--rows`` over one SQL entry: (exit status, its last line)."""
    entry = {"names": ["g", "n"], "ordered": ordered}
    done = _run(
        tmp_path, {"q": {**entry, "rows": repr(parent_rows)}},
        {"q": {**entry, "rows": repr(change_rows)}}, "--rows",
    )
    return done.returncode, done.stdout.splitlines()[-1]


def test_the_tally_counts_each_moved_field(tmp_path):
    entry = {"rows": "[(1,)]", "estimate": ["1.0"], "explain": "scan t",
             "bytes_scanned": 10, "runtime_seconds": 1.0}
    parent = {f"q{i}": dict(entry) for i in range(3)}
    change = {key: dict(value) for key, value in parent.items()}
    for key in ("q0", "q1"):
        change[key]["estimate"] = ["2.0"]
    change["q1"]["explain"] = "scan t pred=(a < 1)"
    change["q2"]["runtime_seconds"] = 1.0 + 1e-12  # inside the tolerance
    lines = _compare(tmp_path, parent, change)
    assert lines[-2] == "entries 3 differing 2"
    assert lines[-1] == "moved fields: estimate 2, explain 1; metered: none"

    change["q2"]["bytes_scanned"] = 6
    lines = _compare(tmp_path, parent, change)
    assert lines[-1] == (
        "moved fields: estimate 2, explain 1, bytes_scanned 1;"
        " metered: bytes_scanned 1"
    )


def test_a_figures_rows_are_tallied_as_metered(tmp_path):
    """A figure's rows are metered numbers under their own field, so a
    mended number moves ``figure_rows``, never ``rows``."""
    parent = {"fig11": {"figure_rows": "[('parquet', 100)]", "notes": "{}"}}
    change = {"fig11": {"figure_rows": "[('parquet', 96)]", "notes": "{}"}}
    lines = _compare(tmp_path, parent, change)
    assert lines[-2] == "entries 1 differing 1"
    assert lines[-1] == "moved fields: figure_rows 1; metered: figure_rows 1"


def test_an_unordered_result_may_come_back_reordered(tmp_path):
    assert _rows_check(
        tmp_path, False, [(1, 2.5), (None, 0), ("a", 3)], [("a", 3), (1, 2.5), (None, 0)],
    ) == (0, "result rows / names differ: nowhere")


def test_an_unordered_result_must_keep_its_multiset(tmp_path):
    assert _rows_check(
        tmp_path, False, [(1, 2), (1, 2), (3, 4)], [(3, 4), (1, 2), (3, 4)],
    ) == (1, "result rows / names differ: ['q']")


def test_an_ordered_result_must_keep_its_order(tmp_path):
    assert _rows_check(
        tmp_path, True, [(1, 2), (3, 4)], [(3, 4), (1, 2)],
    ) == (1, "result rows / names differ: ['q']")
