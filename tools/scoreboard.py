"""The simulated scoreboard: every TPC-H query's sim-s and dollars per mode.

usage: scoreboard.py --out FILE [--against OTHER.json] [--root DIR]
                     [--scale SF] [--seed N] [--queries Q ...]

Runs the standing method: the 22 TPC-H queries (``benchmarks/tpch/queries``)
in ``optimized`` and ``auto`` mode, at SF 0.01 and seed 1, every suite
table loaded once and the context calibrated as if they held 10 GB, with
a fresh feedback store and no result cache for each query and mode.  Per
query and mode it records the metered simulated runtime and dollars, the
ones the plan predicted (``pred_s`` / ``pred_usd``: ``plan_parsed``, then
``execute_plan``, as ``execute_parsed`` does) and whether the rows equal
sqlite3's, and writes them to ``--out`` (JSON).  Under each mode's table
it counts the queries whose metered sim-s is within 5 % of predicted, and
it lists ``auto``'s regrets: the queries whose ``auto`` dollars exceed
their ``optimized`` dollars.

``--against`` names a second file of the same shape (say, the parent
commit's, made with ``--root`` pointing at a ``git archive`` of it); the
table then shows both sides and each query's and the totals' relative
change.  The exit status is 1 when any query's rows differ from
sqlite3's, and 0 otherwise: a number that moves is reported, not judged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_BYTES = 10e9
MODES = ("optimized", "auto")
#: A metered sim-s this close to the predicted one, relatively, counts as met.
WITHIN = 0.05


def run(scale: float, seed: int, queries: list[str] | None) -> dict:
    """The scoreboard of the ``repro`` package on ``sys.path``."""
    from repro.cloud.context import CloudContext
    from repro.engine.catalog import Catalog
    from repro.experiments.harness import calibrate_tables, rows_match
    from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
    from repro.planner.physical import execute_plan
    from repro.planner.planner import plan_parsed
    from repro.sqlparser.parser import parse

    ctx, catalog = CloudContext(), Catalog()
    oracle = load_suite_tables(ctx, catalog, scale, seed=seed)
    calibrate_tables(ctx, catalog, catalog.table_names(), PAPER_BYTES)
    board: dict[str, dict] = {}
    for name in queries or ALL_QUERIES:
        query = parse((QUERY_DIR / f"{name}.sql").read_text())
        expected = oracle.execute(query.to_sql()).fetchall()
        for mode in MODES:
            ctx.feedback.reset()
            plan, _ = plan_parsed(ctx, catalog, query, mode)
            execution = execute_plan(ctx, plan)
            board.setdefault(name, {})[mode] = {
                "sim_s": round(execution.runtime_seconds, 6),
                "usd": round(execution.cost.total, 8),
                "pred_s": round(plan.estimate.runtime_seconds, 6),
                "pred_usd": round(plan.estimate.total_cost, 8),
                "rows_match": rows_match(execution.rows, expected),
            }
    oracle.close()
    return {
        "scale_factor": scale, "seed": seed, "paper_bytes": PAPER_BYTES,
        "modes": list(MODES), "queries": board,
    }


def totals(board: dict, mode: str) -> tuple[float, float]:
    cells = [modes[mode] for modes in board["queries"].values() if mode in modes]
    return sum(c["sim_s"] for c in cells), sum(c["usd"] for c in cells)


def within(board: dict, mode: str) -> tuple[int, int]:
    """How many of ``mode``'s queries metered a sim-s within
    :data:`WITHIN` of the predicted one, and of how many that record a
    prediction."""
    cells = [
        modes[mode] for modes in board["queries"].values()
        if "pred_s" in modes.get(mode, {})
    ]
    close = sum(abs(c["sim_s"] - c["pred_s"]) <= WITHIN * c["pred_s"] for c in cells)
    return close, len(cells)


def regrets(board: dict) -> list[str]:
    """The queries whose ``auto`` cell metered more dollars than their
    ``optimized`` one: what ``auto``'s pick overpaid."""
    return [
        name for name, modes in board["queries"].items()
        if "auto" in modes and "optimized" in modes
        and modes["auto"]["usd"] > modes["optimized"]["usd"]
    ]


def _delta(new: float, old: float) -> str:
    return f"{(new - old) / old:+.1%}" if old else "n/a"


def render(board: dict, against: dict | None = None) -> str:
    """A markdown table per mode: sim-s / $ (and, ``against`` given, the
    other side's and the relative change), one row per query, then the
    totals; a query whose rows differ from sqlite3's is marked."""
    lines: list[str] = []
    for mode in board["modes"]:
        if against is None:
            lines += [f"### {mode}", "", "| query | sim-s | $ |", "| --- | --- | --- |"]
        else:
            lines += [
                f"### {mode}", "",
                "| query | before sim-s / $ | after sim-s / $ | sim-s | $ |",
                "| --- | --- | --- | --- | --- |",
            ]
        for name, modes in board["queries"].items():
            cell = modes.get(mode)
            if cell is None:
                continue
            mark = "" if cell["rows_match"] else " **ROWS DIFFER**"
            now = f"{cell['sim_s']:.2f} / ${cell['usd']:.4f}"
            old = (against or {}).get("queries", {}).get(name, {}).get(mode)
            if against is None:
                lines.append(f"| {name}{mark} | {cell['sim_s']:.2f} | ${cell['usd']:.4f} |")
            elif old is None:
                lines.append(f"| {name}{mark} | — | {now} | | |")
            else:
                lines.append(
                    f"| {name}{mark} | {old['sim_s']:.2f} / ${old['usd']:.4f} | {now}"
                    f" | {_delta(cell['sim_s'], old['sim_s'])}"
                    f" | {_delta(cell['usd'], old['usd'])} |"
                )
        sim, usd = totals(board, mode)
        if against is None:
            lines.append(f"| **sum** | **{sim:.2f}** | **${usd:.4f}** |")
        else:
            old_sim, old_usd = totals(against, mode)
            lines.append(
                f"| **sum** | {old_sim:.2f} / ${old_usd:.4f} | {sim:.2f} / ${usd:.4f}"
                f" | {_delta(sim, old_sim)} | {_delta(usd, old_usd)} |"
            )
        close, predicted = within(board, mode)
        lines += ["", f"{mode}: metered sim-s within {WITHIN * 100:g} % of predicted on"
                      f" {close} of {predicted} queries", ""]
    if "auto" in board["modes"] and "optimized" in board["modes"]:
        lines.append(f"auto regrets (metered $ above optimized's): {', '.join(regrets(board)) or 'none'}")
    return "\n".join(lines)


def mismatches(board: dict) -> list[str]:
    return [
        f"{name}/{mode}"
        for name, modes in board["queries"].items()
        for mode, cell in modes.items() if not cell["rows_match"]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queries", nargs="+")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    board = run(args.scale, args.seed, args.queries)
    args.out.write_text(json.dumps(board, indent=1, sort_keys=True) + "\n")
    against = json.loads(args.against.read_text()) if args.against else None
    print(render(board, against))
    bad = mismatches(board)
    if bad:
        print(f"rows differ from sqlite3: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
