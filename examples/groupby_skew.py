#!/usr/bin/env python3
"""Group-by pushdown under data skew (paper Section VI).

Generates the paper's Zipfian workload at several skew levels and
compares the four group-by strategies, then sweeps the hybrid strategy's
split point (how many populous groups are aggregated at S3) the way
Figure 6 does.

Run:  python examples/groupby_skew.py
"""

from repro.cloud.context import CloudContext
from repro.common.units import human_bytes, human_seconds
from repro.engine.catalog import Catalog, load_table
from repro.strategies.groupby import (
    AggSpec,
    GroupByQuery,
    filtered_group_by,
    hybrid_group_by,
    s3_side_group_by,
    server_side_group_by,
)
from repro.workloads.synthetic import groupby_schema, skewed_groupby_table
from repro.workloads.zipf import head_mass

NUM_ROWS = 30_000

STRATEGIES = (
    ("server-side", server_side_group_by),
    ("filtered", filtered_group_by),
    ("s3-side", s3_side_group_by),
    ("hybrid", hybrid_group_by),
)


def main() -> None:
    query_template = dict(
        group_columns=["g0"],
        aggregates=[AggSpec("sum", c) for c in ("v0", "v1", "v2", "v3")],
    )

    for theta in (0.0, 0.9, 1.3):
        mass = head_mass(100, theta, 4)
        print(f"\n=== Zipf theta = {theta} "
              f"(top-4 groups hold {mass:.0%} of rows) ===")
        ctx, catalog = CloudContext(), Catalog()
        rows = skewed_groupby_table(NUM_ROWS, theta=theta, seed=11)
        load_table(ctx, catalog, "skewed", rows, groupby_schema(), bucket="demo")
        ctx.calibrate_to_paper_scale(catalog.get("skewed").total_bytes, 10e9)
        query = GroupByQuery(table="skewed", **query_template)
        for name, strategy in STRATEGIES:
            execution = strategy(ctx, catalog, query)
            moved = execution.bytes_returned + execution.bytes_transferred
            print(f"  {name:12s} {human_seconds(execution.runtime_seconds):>9}"
                  f"   groups: {len(execution.rows):3d}"
                  f"   data to server: {human_bytes(moved):>10}")

    # ------------------------------------------------------------------
    # Figure 6: where should hybrid split?
    # ------------------------------------------------------------------
    print("\n=== Hybrid split point (theta = 1.3) ===")
    ctx, catalog = CloudContext(), Catalog()
    rows = skewed_groupby_table(NUM_ROWS, theta=1.3, seed=11)
    load_table(ctx, catalog, "skewed", rows, groupby_schema(), bucket="demo")
    ctx.calibrate_to_paper_scale(catalog.get("skewed").total_bytes, 10e9)
    query = GroupByQuery(table="skewed", **query_template)
    print(f"  {'groups@S3':>9}  {'S3 side':>9}  {'server side':>11}  {'total':>9}")
    for split in (1, 2, 4, 6, 8, 10, 12):
        execution = hybrid_group_by(ctx, catalog, query, s3_groups=split)
        print(f"  {split:>9}"
              f"  {human_seconds(execution.report.extras['s3_side_seconds']):>9}"
              f"  {human_seconds(execution.report.extras['server_side_seconds']):>11}"
              f"  {human_seconds(execution.runtime_seconds):>9}")
    print("\nThe phase time is the max of the two sides; the sweet spot is"
          " where they balance (paper: 6-8 groups).")


if __name__ == "__main__":
    main()
