"""Figure 1: runtime and cost of the three filter strategies vs selectivity.

Paper: 6 to 600,000 of a 10 GB table's 60M rows match.  Ours sweeps the
matched-row count over a smaller table calibrated to paper scale, so
crossovers land at the same counts (x-axis: paper-equivalent selectivity).
"""

from operator import not_, truediv

from repro.engine.catalog import load_table
from repro.experiments.harness import Claim, Sweep, execution_row, paper_scale, runner
from repro.sqlparser import ast
from repro.strategies.filter import FilterQuery, indexed_filter, s3_side_filter
from repro.strategies.filter import server_side_filter
from repro.workloads.synthetic import FILTER_SCHEMA, filter_table

DEFAULT_NUM_ROWS = 60_000
#: Each default-table row stands in for 1,000 paper rows: matched 6 =
#: selectivity 1e-4, matched 600 = 1e-2, where indexing collapses.
DEFAULT_MATCHES = (1, 6, 60, 600, 1_200)
#: Rows in the paper's scanned table (10 GB TPC-H lineitem, SF 10).
PAPER_ROWS = 60_000_000

STRATEGIES = {"server-side": server_side_filter, "s3-side": s3_side_filter,
              "indexing": indexed_filter}


def sweep(num_rows: int = DEFAULT_NUM_ROWS, matches: tuple = DEFAULT_MATCHES,
          paper_bytes: float = 10e9, seed: int = 1) -> Sweep:
    def load(ctx, catalog, _):
        load_table(ctx, catalog, "filter_data", filter_table(num_rows, seed=seed),
                   FILTER_SCHEMA, bucket="fig1", index_columns=["key"])
        notes = paper_scale(ctx, catalog, ["filter_data"], paper_bytes)
        # Ranged GETs are issued per matched *row*: weight them by the row
        # ratio, not the byte ratio, to reproduce the paper's 60M-row axis.
        ctx.client.range_request_weight = PAPER_ROWS / num_rows
        return notes

    def cases(ctx, catalog, _):
        for matched in (m for m in matches if m <= num_rows):
            predicate = ast.Binary("<", ast.Column("key"), ast.Literal(matched))
            yield matched, FilterQuery("filter_data", predicate), STRATEGIES

    return Sweep(
        "fig1", "Filter strategies vs selectivity (runtime + cost)", "selectivity",
        load, cases, claims=CLAIMS,
        notes={"num_rows": num_rows, "paper_scale": None,
               "selectivity_axis": "paper-equivalent (matched_rows / paper rows)"},
        record=lambda matched, runs: [
            execution_row("selectivity", matched / num_rows, name, ex)
            | {"matched_rows": len(ex.rows)} for name, ex in runs.items()],
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig1", "S3-side filter is over 5x faster than server-side (paper: ~10x)",
          lambda r: min(map(truediv, r.column("server-side"), r.column("s3-side"))),
          lambda speedup: speedup > 5),
    Claim("fig1", "Indexing beats S3-side filter at the most selective point",
          lambda r: [r.column(s)[0] for s in ("indexing", "s3-side")],
          lambda v: v[0] < v[1]),
    Claim("fig1", "Indexing degrades sharply: 5x slower at the end, slower than S3-side",
          lambda r: (r.column("indexing"), max(r.column("s3-side"))),
          lambda v: v[0][-1] > max(5 * v[0][0], v[1])),
    Claim("fig1", "Indexing is the cheapest only when very selective (Fig 1b)",
          lambda r: [min(p, key=lambda row: row["cost_total"])["strategy"]
                     for p in zip(*map(r.series, STRATEGIES))],
          lambda cheapest: cheapest[0] == "indexing" != cheapest[-1]),
    Claim("fig1", "At the end requests dominate indexing's cost, grown over 10x",
          lambda r: r.series("indexing"), lambda ix: ix[-1]["cost_request"]
          > ix[-1]["cost_scan"] and ix[-1]["cost_total"] > 10 * ix[0]["cost_total"]),
    Claim("fig1", "S3-side filter pays for scanning; server-side filter does not",
          lambda r: [r.column(s, "cost_scan") for s in ("s3-side", "server-side")],
          lambda v: all(v[0]) and not any(v[1])),
    Claim("fig1", "Every strategy returns exactly the swept number of matching rows",
          lambda r: [row for row in r.rows if row["matched_rows"]
                     != round(row["selectivity"] * r.notes["num_rows"])], not_),
)
