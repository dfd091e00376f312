#!/usr/bin/env python3
"""Walk through the paper's three join strategies (Section V).

Runs the paper's synthetic customer ⋈ orders query under the baseline,
filtered, and Bloom join strategies, demonstrates the Bloom join's
256 KB degradation path by shrinking the allowed expression budget, and
finishes with a 3-table chain (customer ⋈ orders ⋈ lineitem) planned by
the cost-based join-order search.

Run:  python examples/join_strategies.py
"""

from repro.bloom.filter import BloomFilter, build_bloom_filter_within_limit
from repro.cloud.context import CloudContext
from repro.common.units import human_bytes, human_dollars, human_seconds
from repro.engine.catalog import Catalog
from repro.queries.common import items
from repro.queries.dataset import load_tpch
from repro.sqlparser.parser import parse_expression
from repro.strategies.join import (
    JoinQuery,
    baseline_join,
    bloom_join,
    filtered_join,
)


def main() -> None:
    ctx = CloudContext()
    catalog = Catalog()
    print("Loading customer + orders (scale factor 0.01) ...")
    load_tpch(ctx, catalog, 0.01, tables=("customer", "orders"))
    data_bytes = sum(catalog.get(t).total_bytes for t in ("customer", "orders"))
    ctx.calibrate_to_paper_scale(data_bytes, 2e9)  # the tables' paper share

    query = JoinQuery(
        build_table="customer",
        probe_table="orders",
        build_key="c_custkey",
        probe_key="o_custkey",
        build_predicate=parse_expression("c_acctbal <= -950"),
        build_projection=["c_custkey"],
        probe_projection=["o_custkey", "o_totalprice"],
        output=items("SUM(o_totalprice) AS total"),
    )

    print("\nSELECT SUM(o_totalprice) FROM customer, orders")
    print("WHERE o_custkey = c_custkey AND c_acctbal <= -950\n")
    for name, strategy in (
        ("baseline join", baseline_join),
        ("filtered join", filtered_join),
        ("bloom join", bloom_join),
    ):
        execution = strategy(ctx, catalog, query)
        moved = execution.bytes_returned + execution.bytes_transferred
        print(f"{name:14s} {human_seconds(execution.runtime_seconds):>9}"
              f"  {human_dollars(execution.cost.total)}"
              f"  data to server: {human_bytes(moved):>10}"
              f"  result: {execution.rows[0][0]:.2f}")
        if execution.report.extras:
            interesting = {k: v for k, v in execution.report.extras.items()
                           if k in ("achieved_fpr", "bloom_bits", "bloom_hashes",
                                    "probe_rows_returned")}
            print(f"{'':14s} extras: {interesting}")

    # ------------------------------------------------------------------
    # What the Bloom filter actually ships to S3.
    # ------------------------------------------------------------------
    print("\nThe SQL a Bloom join pushes into S3 Select (truncated):")
    bloom = BloomFilter.build([3, 17, 99, 120], fpr=0.01, seed=1)
    predicate = bloom.to_sql_predicate("o_custkey")
    print(" ", predicate[:150], "...")

    # ------------------------------------------------------------------
    # The 256 KB degradation path (Section V-B1).
    # ------------------------------------------------------------------
    print("\nDegradation under the 256 KB expression limit:")
    keys = list(range(20_000))
    for limit in (256 * 1024, 64 * 1024, 2 * 1024):
        outcome = build_bloom_filter_within_limit(
            keys, 0.01, "o_custkey", limit_bytes=limit, seed=1
        )
        status = ("no filter (fall back to serial filtered join)"
                  if outcome.bloom is None
                  else f"fpr {outcome.achieved_fpr:g}, "
                       f"{outcome.bloom.num_bits} bits, "
                       f"{outcome.bloom.num_hashes} hashes")
        print(f"  limit {human_bytes(limit):>9}: tried {outcome.attempts} -> {status}")

    # ------------------------------------------------------------------
    # Three tables: the cost-based join-order search picks the chain.
    # ------------------------------------------------------------------
    from repro.planner.database import PushdownDB
    from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

    print("\nThree-way join through the N-way planner:")
    db = PushdownDB()
    gen = TpchGenerator(scale_factor=0.005)
    for table in ("customer", "orders", "lineitem"):
        db.load_table(table, gen.table(table), TABLE_SCHEMAS[table])
    db.calibrate_to_paper_scale()

    sql = (
        "SELECT c_mktsegment, SUM(l_extendedprice) AS revenue"
        " FROM customer, orders, lineitem"
        " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
        " AND o_orderdate < '1995-01-01'"
        " GROUP BY c_mktsegment ORDER BY c_mktsegment"
    )
    print(f"\n{sql}\n")
    # EXPLAIN shows baseline-vs-optimized, every join tree the search
    # considered with predicted rows / runtime / cost, and the picked
    # mode's physical operator tree with per-node est_rows / est_cost.
    print(db.explain(sql))
    execution = db.execute(sql, mode="auto")
    print(f"\nexecuted as: {execution.strategy}")
    print(f"runtime {human_seconds(execution.runtime_seconds)},"
          f" cost {human_dollars(execution.cost.total)}")
    for row in execution.rows:
        print(f"  {row[0]:<12} {row[1]:>14.2f}")

    # The executed plan records per-node observed cardinalities, so the
    # estimate-vs-actual report (with Q-error columns) comes for free.
    from repro.planner.report import render_execution_report

    print()
    print(render_execution_report(execution))


if __name__ == "__main__":
    main()
