"""Command-line interface: ``python -m repro <command>``.

Four subcommands:

* ``experiment fig1 [fig5 ...]`` — run paper-figure harnesses, print
  their tables and judge the paper's claims (``all`` runs everything;
  exits 1 if a claim fails or a row check disagrees);
* ``query "<SQL>"`` — load a TPC-H dataset and run one SQL statement in
  both baseline and optimized mode, with an execution report;
* ``explain "<SQL>"`` — the optimizer's EXPLAIN report (candidate
  strategies, join-order table, annotated physical plan) without
  executing anything;
* ``tables`` — list the TPC-H tables and sizes at a scale factor.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.units import human_bytes, human_dollars, human_seconds


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.harness import Disagreement

    names = list(ALL_EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    collected, failures = {}, {}
    for name in names:
        try:
            result = ALL_EXPERIMENTS[name]()
        except Disagreement as error:
            failures[name] = [str(error)]
            continue
        failures[name] = result.failures()
        print(result.to_table())
        print(f"{name}: {len(result.claims) - len(failures[name])}"
              f"/{len(result.claims)} claims hold\n")
        collected[name] = result
    if args.json is not None:
        import json

        payload = {
            name: {"title": r.title, "rows": r.rows, "notes": r.notes,
                   "failed_claims": failures[name]}
            for name, r in collected.items()
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    # A claim that fails or a row check that disagrees is a real failure
    # CI must see, by figure and paper text, not just a table cell.
    lines = [line for found in failures.values() for line in found]
    for line in lines:
        print(line)
    return 1 if lines else 0


def _load_tpch_db(scale_factor: float, **options):
    from repro import PushdownDB

    from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

    gen = TpchGenerator(scale_factor=scale_factor)
    db = PushdownDB(**options)
    for table in ("customer", "orders", "lineitem", "part"):
        db.load_table(table, gen.table(table), TABLE_SCHEMAS[table])
    db.calibrate_to_paper_scale()
    return db


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load_tpch_db(
        args.scale_factor, batch_size=args.batch_size,
        adaptive_threshold=args.adaptive_threshold,
        cache_bytes=args.cache_bytes,
    )
    if args.compare:
        # Compare the two fixed plans; when auto was asked for, run it
        # too so its EXPLAIN report appears alongside the measurements.
        modes = ("baseline", "optimized") + (("auto",) if args.strategy == "auto" else ())
    else:
        modes = (args.strategy,)
    for mode in modes:
        execution = db.execute(args.sql, mode=mode)
        print(f"--- {mode} ---")
        summary = execution.report.optimizer
        if summary is not None:
            from repro.optimizer.chooser import render_choice_summary

            print(render_choice_summary(summary, "sql"))
        print(execution.explain(db.ctx.perf))
        for row in execution.rows[: args.max_rows]:
            print(" ", row)
        if len(execution.rows) > args.max_rows:
            print(f"  ... {len(execution.rows) - args.max_rows} more row(s)")
        print()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    db = _load_tpch_db(args.scale_factor)
    print(db.explain(args.sql))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator
    from repro.storage.csvcodec import encode_table

    gen = TpchGenerator(scale_factor=args.scale_factor)
    print(f"TPC-H at scale factor {args.scale_factor}:")
    for name, schema in TABLE_SCHEMAS.items():
        rows = gen.table(name)
        data, _ = encode_table(rows)
        print(f"  {name:9s} {len(rows):>9} rows  {human_bytes(len(data)):>10}"
              f"  ({len(schema)} columns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PushdownDB reproduction (ICDE 2020) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {text}"
            )
        return value

    def non_negative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be a non-negative integer, got {text}"
            )
        return value

    # The valid experiment names come from the registry itself, so new
    # figures can never go stale in this help string.
    from repro.experiments import ALL_EXPERIMENTS
    from repro.storage.csvcodec import DEFAULT_BATCH_SIZE

    p_exp = sub.add_parser("experiment", help="run paper-figure experiments")
    p_exp.add_argument(
        "names", nargs="+",
        help=f"{', '.join(ALL_EXPERIMENTS)}, or 'all'",
    )
    p_exp.add_argument(
        "--json", default=None, metavar="PATH",
        help="also dump every experiment's rows and notes as JSON"
             " (the CI artifact for the TPC-H differential suite)",
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    modes = ("baseline", "optimized", "auto", "adaptive")
    p_query = sub.add_parser("query", help="run SQL over a TPC-H dataset")
    p_query.add_argument("sql")
    p_query.add_argument("--scale-factor", type=float, default=0.005)
    p_query.add_argument(
        "--strategy", choices=modes, default="optimized",
        help="physical plan: 'baseline' loads whole tables with GETs,"
             " 'optimized' pushes work into S3 Select, 'auto' lets the"
             " cost-based optimizer pick from per-candidate estimates"
             " and prints its EXPLAIN report, 'adaptive' re-plans"
             " misestimated joins mid-flight (default: optimized)",
    )
    p_query.add_argument("--compare", action="store_true",
                         help="run both modes and show both reports")
    p_query.add_argument("--max-rows", type=int, default=10)
    def q_error_bound(text: str) -> float:
        value = float(text)
        if value < 1.0:
            raise argparse.ArgumentTypeError(
                f"a Q-error bound must be >= 1.0, got {text}"
            )
        return value

    p_query.add_argument(
        "--adaptive-threshold", type=q_error_bound, default=None, metavar="Q",
        help="Q-error a completed hash build may reach before an"
             " adaptive execution re-plans the remaining join tree"
             " (default 2.0; only used with --strategy adaptive)",
    )
    p_query.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE,
        metavar="ROWS", help="rows per RecordBatch in the streaming executor",
    )
    p_query.add_argument(
        "--cache-bytes", type=non_negative_int, default=0, metavar="BYTES",
        help="semantic result-cache budget for the session; repeated"
             " or subsumed pushed scans answer from memory with zero"
             " metered requests (default 0: disabled)",
    )
    p_query.set_defaults(fn=_cmd_query)

    p_explain = sub.add_parser(
        "explain",
        help="print the optimizer's EXPLAIN report without executing",
    )
    p_explain.add_argument("sql")
    p_explain.add_argument("--scale-factor", type=float, default=0.005)
    p_explain.set_defaults(fn=_cmd_explain)

    p_tables = sub.add_parser("tables", help="show TPC-H table sizes")
    p_tables.add_argument("--scale-factor", type=float, default=0.01)
    p_tables.set_defaults(fn=_cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
