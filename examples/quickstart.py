#!/usr/bin/env python3
"""Quickstart: load TPC-H tables into PushdownDB and run SQL.

Shows the library's front door: the :class:`repro.PushdownDB` facade.
Every query runs twice — once as the no-pushdown baseline (GET whole
tables, compute locally) and once with the paper's S3 Select pushdown —
and prints simulated runtime and dollar cost for both.

The facade's ``batch_size`` sets the rows per RecordBatch flowing
through the local operators; queries stream batches end to end instead
of materializing whole tables, so a ``LIMIT`` stops parsing early.

Beyond the fixed ``baseline`` / ``optimized`` modes there is
``mode="auto"``: the cost-based optimizer prices every candidate plan
from table statistics (collected at load time) and runs whichever it
predicts cheapest; ``db.explain(sql)`` prints the per-candidate table
without executing anything.  The CLI spelling is
``python -m repro query "<SQL>" --strategy auto``.

Run:  python examples/quickstart.py
"""

from repro import PushdownDB
from repro.common.units import human_dollars, human_seconds
from repro.workloads.tpch import (
    CUSTOMER_SCHEMA,
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    TpchGenerator,
)

QUERIES = [
    # TPC-H Q6: entirely inside the S3 Select dialect -> fully pushed.
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem"
    " WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'"
    " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    # Group-by with a local tail.
    "SELECT l_returnflag, SUM(l_quantity) AS sum_qty, COUNT(*) AS n"
    " FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
    # Top-K.
    "SELECT l_orderkey, l_extendedprice FROM lineitem"
    " ORDER BY l_extendedprice DESC LIMIT 5",
    # Equi-join: the optimized plan ships a Bloom filter to S3.
    "SELECT SUM(o_totalprice) AS total FROM customer, orders"
    " WHERE c_custkey = o_custkey AND c_acctbal <= -900",
]


def main() -> None:
    print("Generating TPC-H data (scale factor 0.01) ...")
    gen = TpchGenerator(scale_factor=0.01)
    # batch_size=2048: RecordBatch granularity of the local operators.
    db = PushdownDB(batch_size=2048)
    db.load_table("lineitem", gen.lineitem(), LINEITEM_SCHEMA)
    db.load_table("customer", gen.customer(), CUSTOMER_SCHEMA)
    db.load_table("orders", gen.orders(), ORDERS_SCHEMA)

    # Rate the simulated cloud as if this were the paper's 10 GB dataset,
    # so runtimes/costs land in the paper's ranges.
    scale = db.calibrate_to_paper_scale(paper_bytes=10e9)
    print(f"Loaded {', '.join(db.table_names())}; paper-scale factor {scale:.2e}\n")

    for sql in QUERIES:
        print(f"SQL: {sql}")
        baseline = db.execute(sql, mode="baseline")
        optimized = db.execute(sql, mode="optimized")
        speedup = baseline.runtime_seconds / max(optimized.runtime_seconds, 1e-9)
        print(f"  baseline : {human_seconds(baseline.runtime_seconds):>9}"
              f"  {human_dollars(baseline.cost.total)}")
        print(f"  optimized: {human_seconds(optimized.runtime_seconds):>9}"
              f"  {human_dollars(optimized.cost.total)}   ({speedup:.1f}x faster)")
        for row in optimized.rows[:5]:
            print(f"    {row}")
        if len(optimized.rows) > 5:
            print(f"    ... {len(optimized.rows) - 5} more rows")
        print()

    # `auto` asks the cost-based optimizer to pick the plan: it prices
    # baseline vs optimized from the statistics collected at load time
    # and runs the predicted-cheapest one.  EXPLAIN shows its reasoning.
    sql = "SELECT * FROM orders"  # pushdown buys nothing here: auto says GET
    print("optimizer EXPLAIN for", repr(sql))
    print(db.explain(sql))
    picked = db.execute(sql, mode="auto").report.optimizer["picked"]
    print(f"  auto ran the {picked!r} plan")


if __name__ == "__main__":
    main()
