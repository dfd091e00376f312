"""The execution report: one typed record per execution, its read-only
``details`` view, and the one plan walk both EXPLAIN and the report use."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog
from repro.experiments.tpch_suite import QUERY_DIR, load_suite_tables
from repro.planner.physical import execute_plan, render_plan
from repro.planner.planner import plan_and_execute, plan_parsed
from repro.planner.report import render_execution_report
from repro.queries.dataset import load_tpch
from repro.sqlparser.parser import parse, parse_expression

JOIN3 = (
    "SELECT c_name, o_orderdate, l_quantity FROM customer, orders, lineitem"
    " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_acctbal < 100"
)
ONE_TABLE = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice < 5000"
#: One execution per mode and strategy: each one's ``details`` holds
#: ``operator_times`` only, whatever else its report carries.
DETAILS_CASES = (
    "adaptive", "auto", "baseline", "bloom_join", "cache-hit",
    "hybrid_group_by", "optimized", "sampling_top_k",
)


def _run(case, ctx, catalog):
    from repro.queries.micro import _JOIN_QUERY
    from repro.strategies import groupby, join, topk

    if case in ("baseline", "optimized", "auto"):
        return plan_and_execute(ctx, catalog, ONE_TABLE, case)
    if case == "adaptive":
        return plan_and_execute(ctx, catalog, JOIN3, "adaptive")
    if case == "bloom_join":
        return join.bloom_join(ctx, catalog, _JOIN_QUERY)
    if case == "sampling_top_k":
        return topk.sampling_top_k(ctx, catalog, topk.TopKQuery(
            table="lineitem", order_column="l_extendedprice", k=10,
        ))
    return groupby.hybrid_group_by(ctx, catalog, groupby.GroupByQuery(
        table="lineitem", group_columns=["l_returnflag"],
        aggregates=[groupby.AggSpec("sum", "l_quantity")],
        predicate=parse_expression("l_quantity < 30"),
    ))


@pytest.fixture(scope="module")
def cached_env():
    ctx, catalog = CloudContext(cache_bytes=1 << 26), Catalog()
    load_tpch(ctx, catalog, 0.002)
    return ctx, catalog


@pytest.mark.parametrize("case", DETAILS_CASES)
def test_details_view_keeps_its_keys(tpch_env, cached_env, case):
    if case == "cache-hit":
        ctx, catalog = cached_env
        plan_and_execute(ctx, catalog, ONE_TABLE, "optimized")
        execution = plan_and_execute(ctx, catalog, ONE_TABLE, "optimized")
        assert execution.report.cache.hit == 1
    else:
        execution = _run(case, *tpch_env)
    assert sorted(execution.details) == ["operator_times"]


def test_details_view_mirrors_the_report(tpch_env):
    execution = _run("bloom_join", *tpch_env)
    assert execution.details["operator_times"] == [
        {"node": n.node, "depth": n.depth, "seconds": n.seconds,
         "self_seconds": n.self_seconds, "rows": n.actual_rows,
         "rows_per_sec": n.rows_per_sec}
        for n in execution.report.nodes
    ]


def test_details_view_is_read_only(tpch_env):
    execution = _run("optimized", *tpch_env)
    with pytest.raises(AttributeError):
        execution.details = {}
    with pytest.raises(AttributeError):
        execution.details.update(plan="")
    with pytest.raises(AttributeError):
        execution.details.pop("plan")
    with pytest.raises(TypeError):
        execution.details["plan"] = ""
    with pytest.raises(AttributeError):
        execution.report.optimizer = {}


def test_one_walk_draws_explain_and_the_report(tpch_env):
    """``render_plan`` before a run and the report after it are the same
    walk: the lines agree wherever the run left a node unchanged."""
    ctx, catalog = tpch_env
    plan, _ = plan_parsed(ctx, catalog, parse(JOIN3), "optimized")
    before = render_plan(plan)
    execution = execute_plan(ctx, plan)
    assert execution.report.plan == render_plan(plan) == before
    depths = [n.depth for n in execution.report.nodes]
    assert depths[0] == 0 and all(b <= a + 1 for a, b in zip(depths, depths[1:]))


GOLDEN_Q03 = """\
physical plan: optimized multi-join (customer >< orders >< lineitem)
  operator                                                                     est rows     actual  q-error      time     rows/s
  top-k [revenue DESC, o_orderdate ASC] k=10                                          -         10        -
    project [l_orderkey, revenue, o_orderdate, o_shippriority]                        -         27        -
      group-by [l_orderkey, o_orderdate, o_shippriority] aggs=1                       -         27        -
        hash-join [o_orderkey = l_orderkey] streamed                              328.0         55     5.87
          hash-join [c_custkey = o_custkey]                                       244.1        362     1.48
            scan customer [select] cols=1 pred=(c_mktsegment = 'BUILDING')         73.0         73     1.00
            scan orders [select+bloom(o_custkey)] cols=4 pred=(o_orderdate        251.7        362     1.44
          scan lineitem [select+bloom(l_orderkey)] cols=3 pred=(l_shipdate        365.0        109     3.33"""


def test_explain_analyze_of_q03_is_pinned():
    """EXPLAIN ANALYZE of TPC-H Q3, optimized, with each node line's time
    and rows/s columns cut off."""
    ctx, catalog = CloudContext(), Catalog()
    load_suite_tables(ctx, catalog, 0.002, seed=11).close()
    execution = plan_and_execute(
        ctx, catalog, (QUERY_DIR / "q03.sql").read_text(), "optimized"
    )
    header, columns, *rows = render_execution_report(execution).splitlines()
    timed = [re.fullmatch(r"(.*?) +(-|\d+\.\dms) +(-|[\d,]+)", row) for row in rows]
    masked = "\n".join([header, columns, *(match[1] for match in timed)])
    assert masked == GOLDEN_Q03


def test_no_details_writes_in_src():
    """The report is built in one place; nothing in ``src/`` writes or
    indexes the ``details`` view, and ``cloud/`` imports no planner."""
    import repro

    root = Path(repro.__file__).parent
    pattern = re.compile(
        r"details\[|\.details\.update|\.details\.pop|\.details\s*=[^=]"
    )
    sites = [
        f"{path.relative_to(root)}:{line_no}"
        for path in root.rglob("*.py")
        for line_no, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert sites == []
    imports = re.compile(r"^\s*(from|import) repro\.planner", re.MULTILINE)
    assert not [
        path.name for path in (root / "cloud").rglob("*.py")
        if imports.search(path.read_text())
    ]
