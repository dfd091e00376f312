"""Figure 11: CSV vs Parquet under S3 Select filters.

Paper setup: tables of 1, 10, and 20 float columns (100 MB per column),
Parquet with Snappy at 100 MB row groups; queries return one filtered
column with selectivity swept 0..1.

Expected shape: Parquet wins big on the wide tables at low selectivity
(it scans only one column chunk where CSV scans everything); the
advantage shrinks as selectivity grows because S3 Select returns CSV
rows either way, so data transfer becomes the shared bottleneck.  On the
1-column table the formats are nearly identical.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import ExperimentResult
from repro.planner import physical
from repro.sqlparser import ast
from repro.workloads.synthetic import float_schema, float_table

DEFAULT_NUM_ROWS = 30_000
DEFAULT_COLUMN_COUNTS = (1, 10, 20)
DEFAULT_SELECTIVITIES = (0.0, 0.01, 0.1, 0.5, 1.0)
#: The paper's tables hold 100 MB per column.
PAPER_BYTES_PER_COLUMN = 100e6


def run(
    num_rows: int = DEFAULT_NUM_ROWS,
    column_counts: tuple = DEFAULT_COLUMN_COUNTS,
    selectivities: tuple = DEFAULT_SELECTIVITIES,
    compression: str = "zlib",
    seed: int = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig11",
        title="CSV vs Parquet filter scans",
        notes={"num_rows": num_rows, "codec": compression},
    )
    for num_columns in column_counts:
        ctx = CloudContext()
        catalog = Catalog()
        rows = float_table(num_rows, num_columns, seed=seed)
        schema = float_schema(num_columns)
        load_table(ctx, catalog, "csv_table", rows, schema, bucket="fig11")
        load_table(
            ctx, catalog, "pq_table", rows, schema, bucket="fig11",
            data_format="parquet",
            row_group_rows=max(1, num_rows // 8),
            compression=compression,
        )
        csv_bytes = catalog.get("csv_table").total_bytes
        pq_bytes = catalog.get("pq_table").total_bytes
        ctx.calibrate_to_paper_scale(
            csv_bytes, PAPER_BYTES_PER_COLUMN * num_columns
        )
        result.notes[f"parquet_size_ratio_{num_columns}col"] = round(
            pq_bytes / csv_bytes, 3
        )
        for selectivity in selectivities:
            # Values are uniform in [0, 1): `f0 < s` matches fraction s.
            predicate = ast.Binary("<", ast.Column("f0"), ast.Literal(selectivity))
            reference = None
            for fmt, table_name in (("csv", "csv_table"), ("parquet", "pq_table")):
                scan = physical.whole_table_select(
                    catalog.get(table_name), ["f0"], predicate, "scan"
                )
                execution = physical.execute_plan(
                    ctx, physical.PhysicalPlan(scan, "optimized", strategy="")
                )
                out_rows = execution.rows
                if reference is None:
                    reference = len(out_rows)
                elif len(out_rows) != reference:
                    raise AssertionError(
                        f"row count differs between formats at s={selectivity}"
                    )
                result.rows.append(
                    {
                        "columns": num_columns,
                        "selectivity": selectivity,
                        "strategy": fmt,
                        "runtime_s": round(execution.runtime_seconds, 4),
                        "bytes_scanned": execution.bytes_scanned,
                        "bytes_returned": execution.bytes_returned,
                        "cost_scan": round(execution.cost.scan, 6),
                        "rows_out": len(out_rows),
                    }
                )
    return result
