"""Layer probes: one direct, timed call into one layer's public function.

Run only in the traced run.  Inputs are the first ``PROBE_LINES``
lineitem rows and ``PROBE_ORDERS`` orders rows of the workload's own
tables (every workload loads both), so the figures are comparable across
workloads.  Each probe is the calibrated best of ``REPEATS`` calls,
reported as rows per second or, where there is no row count, seconds.
"""

from __future__ import annotations

from bench.timing import CalibratedClock
from bench.workloads import QUERY_DIR

PROBE_LINES = 2000
PROBE_ORDERS = 600
REPEATS = 5

_Q6_WHERE = (
    "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'"
    " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
)

#: Join-order search inputs: tables every workload loads.
_PLAN_STATEMENTS = (
    "SELECT l_orderkey, SUM(l_extendedprice) AS revenue"
    " FROM customer, orders, lineitem"
    " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
    " AND c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15'"
    " GROUP BY l_orderkey",
    "SELECT p_brand, COUNT(*) AS n FROM customer, orders, lineitem, part"
    " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
    " AND p_partkey = l_partkey AND p_size < 20 AND c_acctbal > 0"
    " GROUP BY p_brand",
)


def _best(clock: CalibratedClock, fn) -> float:
    return min(clock.measure(fn)[2] for _ in range(REPEATS))


def _drain(iterable) -> None:
    for _ in iterable:
        pass


def run_probes(session) -> dict[str, tuple[float, str]]:
    """All probe metrics, as ``name -> (value, unit)``."""
    from repro import Catalog, CloudContext, load_table
    from repro.bloom.filter import BloomFilter
    from repro.engine.operators.groupby import group_by_batches
    from repro.engine.operators.hashjoin import hash_join_batches
    from repro.expr.vector import compile_predicate_vector
    from repro.optimizer.chooser import choose_planner_mode
    from repro.s3select.engine import execute_select
    from repro.sqlparser import ast
    from repro.sqlparser.parser import parse, parse_expression
    from repro.storage.csvcodec import (
        encode_table,
        iter_decode_column_batches,
        iter_records,
    )
    from repro.storage.object_store import StoredObject
    from repro.workloads.tpch import TABLE_SCHEMAS

    db = session.db
    tables = {t.name: t for t in session.tables}
    schema = TABLE_SCHEMAS["lineitem"]
    lines = tables["lineitem"].rows[:PROBE_LINES]
    orders = tables["orders"].rows[:PROBE_ORDERS]
    n = len(lines)
    data, _ = encode_table(lines, header=None)
    obj = StoredObject(data, {
        "format": "csv", "header": False,
        "schema": [f"{c.name}:{c.type}" for c in schema.columns],
    })
    batches = list(iter_decode_column_batches(data, schema, has_header=False))
    names = list(schema.names)
    bloom = BloomFilter.build(
        [row[0] for row in orders[::2]], 0.01, seed=session.workload.seed
    )
    bloom_sql = (
        "SELECT l_orderkey FROM S3Object WHERE "
        + bloom.to_sql_predicate("l_orderkey")
    )
    predicate = compile_predicate_vector(
        parse_expression(_Q6_WHERE), schema.name_to_index
    )
    statements = [
        (QUERY_DIR / f"q{i:02d}.sql").read_text() for i in range(1, 23)
    ] + [bloom_sql]
    plans = [parse(sql) for sql in _PLAN_STATEMENTS]
    group_exprs = [ast.Column("l_returnflag"), ast.Column("l_linestatus")]
    agg_items = [
        ast.SelectItem(expr=parse_expression("SUM(l_quantity)"), alias="qty"),
        ast.SelectItem(expr=parse_expression("COUNT(*)"), alias="n"),
    ]

    def join() -> None:
        _, joined = hash_join_batches(
            orders, list(TABLE_SCHEMAS["orders"].names), batches, names,
            "o_orderkey", "l_orderkey",
        )
        _drain(joined)

    def plan() -> None:
        db.reset_feedback()
        for query in plans:
            choose_planner_mode(db.ctx, db.catalog, query)

    row_probes = {
        "probe.csvcodec.tokenize_rows_per_s": lambda: _drain(iter_records(data)),
        "probe.csvcodec.decode_rows_per_s": lambda: _drain(
            iter_decode_column_batches(data, schema, has_header=False)
        ),
        "probe.csvcodec.encode_rows_per_s": lambda: encode_table(lines, header=None),
        "probe.s3select.aggregate_rows_per_s": lambda: execute_select(
            obj,
            "SELECT SUM(l_extendedprice * l_discount) FROM S3Object WHERE "
            + _Q6_WHERE,
        ),
        "probe.s3select.project_rows_per_s": lambda: execute_select(
            obj,
            "SELECT l_orderkey, l_extendedprice, l_shipdate FROM S3Object"
            " WHERE l_quantity < 26",
        ),
        "probe.s3select.bloom_rows_per_s": lambda: execute_select(obj, bloom_sql),
        "probe.vector.predicate_rows_per_s": lambda: [predicate(batch) for batch in batches],
        "probe.hashjoin.rows_per_s": join,
        "probe.groupby.rows_per_s": lambda: group_by_batches(batches, names, group_exprs, agg_items),
        "probe.catalog.load_rows_per_s": lambda: load_table(
            CloudContext(), Catalog(), "probe_lineitem", lines, schema
        ),
    }
    clock = CalibratedClock()
    metrics = {
        name: (n / _best(clock, fn), "1/s") for name, fn in row_probes.items()
    }
    metrics["probe.joinorder.plan_s"] = (_best(clock, plan), "s")
    metrics["probe.sqlparser.parse_s"] = (
        _best(clock, lambda: [parse(sql) for sql in statements]), "s"
    )
    return metrics
