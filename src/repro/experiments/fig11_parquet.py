"""Figure 11: CSV vs Parquet under S3 Select filters.

Paper: 1, 10 and 20 float columns of 100 MB, Parquet (Snappy, 100 MB row
groups); one filtered column returned, selectivity 0..1.  Each column
count is its own dataset, loaded as CSV and as Parquet.
"""

from repro.engine.catalog import load_table
from repro.experiments.harness import Claim, Sweep, runner
from repro.planner import physical
from repro.planner.nodes import whole_table_select
from repro.sqlparser import ast
from repro.workloads.synthetic import float_schema, float_table

DEFAULT_NUM_ROWS = 30_000
DEFAULT_COLUMN_COUNTS = (1, 10, 20)
DEFAULT_SELECTIVITIES = (0.0, 0.01, 0.1, 0.5, 1.0)
#: The paper's tables hold 100 MB per column.
PAPER_BYTES_PER_COLUMN = 100e6


def _scan(table):
    def execute(ctx, catalog, predicate):
        scan = whole_table_select(catalog.get(table), ["f0"], predicate, "scan")
        return physical.execute_plan(ctx, physical.PhysicalPlan(scan, "optimized", ""))
    return execute


FORMATS = {"csv": _scan("csv_table"), "parquet": _scan("pq_table")}


def _rows(point, runs):
    return [{"columns": point[0], "selectivity": point[1], "strategy": fmt,
             "runtime_s": round(ex.runtime_seconds, 4), "bytes_scanned": ex.bytes_scanned,
             "bytes_returned": ex.bytes_returned, "cost_scan": round(ex.cost.scan, 6),
             "rows_out": len(ex.rows)} for fmt, ex in runs.items()]


def sweep(num_rows: int = DEFAULT_NUM_ROWS, column_counts: tuple = DEFAULT_COLUMN_COUNTS,
          selectivities: tuple = DEFAULT_SELECTIVITIES, compression: str = "zlib",
          seed: int = 1) -> Sweep:
    def load(ctx, catalog, columns):
        rows, schema = float_table(num_rows, columns, seed=seed), float_schema(columns)
        csv = load_table(ctx, catalog, "csv_table", rows, schema, bucket="fig11")
        pq = load_table(ctx, catalog, "pq_table", rows, schema, bucket="fig11",
                        data_format="parquet", row_group_rows=max(1, num_rows // 8),
                        compression=compression)
        ctx.calibrate_to_paper_scale(csv.total_bytes, PAPER_BYTES_PER_COLUMN * columns)
        ratio = round(pq.total_bytes / csv.total_bytes, 3)
        return {f"parquet_size_ratio_{columns}col": ratio}

    return Sweep(
        "fig11", "CSV vs Parquet filter scans", "selectivity", load,
        # Values are uniform in [0, 1): `f0 < s` matches fraction s.
        lambda ctx, catalog, columns: (
            ((columns, s), ast.Binary("<", ast.Column("f0"), ast.Literal(s)), FORMATS)
            for s in selectivities
        ),
        notes={"num_rows": num_rows, "codec": compression},
        datasets=column_counts, record=_rows, claims=CLAIMS,
    )


run = runner(sweep)


def _parquet_over_csv(r, widest: bool, selectivity=None, key="runtime_s") -> list:
    """Parquet's ``key`` over CSV's on the widest (narrowest) table."""
    columns = (max if widest else min)(row["columns"] for row in r.rows)
    at = {(row["selectivity"], row["strategy"]): row[key] for row in r.rows
          if row["columns"] == columns and selectivity in (None, row["selectivity"])}
    return [at[s, "parquet"] / at[s, "csv"] for s, fmt in at if fmt == "csv"]


CLAIMS = (
    Claim("fig11", "Wide table, selectivity 0: Parquet under 0.5x the runtime, 0.2x scan",
          lambda r: _parquet_over_csv(r, True, 0.0)
          + _parquet_over_csv(r, True, 0.0, "bytes_scanned"),
          lambda v: v[0] < 0.5 and v[1] < 0.2),
    Claim("fig11", "At selectivity 1 the formats are within 15% (CSV returned either way)",
          lambda r: _parquet_over_csv(r, True, 1.0), lambda v: abs(v[0] - 1) < 0.15),
    Claim("fig11", "On the 1-column table the formats are within 50% of each other",
          lambda r: _parquet_over_csv(r, False), lambda v: max(v) < 1.5 and min(v) > 0.5),
    Claim("fig11", "Compressed Parquet is smaller than CSV",
          lambda r: [v for k, v in r.notes.items() if k.startswith("parquet_size_ratio")],
          lambda ratios: max(ratios) < 1),
)
