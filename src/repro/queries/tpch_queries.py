"""TPC-H queries Q1, Q3, Q6, Q14, Q17, Q19 — the paper's Figure 10 suite.

Every query comes in two variants matching the paper's configurations:

* **baseline** — "PushdownDB (Baseline)": plain GETs of whole tables,
  everything computed on the query node (no S3 Select);
* **optimized** — "PushdownDB (Optimized)": the pushdown algorithms of
  Sections IV-VII (selection/projection/aggregation pushdown, Bloom
  joins, S3-side group-by).

Each variant is a function ``(ctx, catalog) -> QueryExecution`` over
tables loaded by :func:`repro.queries.dataset.load_tpch`.  Most run the
query's ``.sql`` file under :data:`QUERY_DIR` through the SQL planner in
that mode.  Two are hand-written plan trees (:mod:`repro.planner.nodes`)
run by the one executor:

* Q6 ``baseline``, the paper's whole-table baseline: its phase ingests
  every loaded row, where the SQL baseline ingests only the rows that
  survive its filter;
* Q17, both modes: its candidate join runs once, as an init plan, and
  the correlated average is computed over those rows.  The SQL plan of
  ``q17.sql`` is about 3x slower on the simulated clock at Figure 10's
  setting (ROADMAP item 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from repro.bloom.filter import BloomPushdown
from repro.cloud.context import CloudContext, QueryExecution
from repro.engine.catalog import Catalog, TableInfo
from repro.planner import physical
from repro.planner.joins import HashJoinNode
from repro.planner.nodes import (
    FilterNode,
    GroupByNode,
    LegNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    whole_table_select,
)
from repro.planner.physical import InitPlan, PhysicalPlan
from repro.planner.planner import execute_parsed
from repro.planner.tail import select_list_node
from repro.queries.common import items
from repro.sqlparser import ast
from repro.sqlparser.parser import parse, parse_expression
from repro.strategies.filter import FilterQuery, server_side_filter_node
from repro.strategies.scans import decoded_columns

#: ``<repo>/benchmarks/tpch/queries``: the 22 TPC-H queries as SQL text.
QUERY_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "tpch" / "queries"

QueryFn = Callable[[CloudContext, Catalog], QueryExecution]

#: The paper variants ship an empty build side's (all-zero) Bloom filter.
_BLOOM = BloomPushdown(when_empty=True)


@dataclass(frozen=True)
class QueryVariants:
    """Baseline and optimized implementations of one benchmark query."""

    name: str
    baseline: QueryFn
    optimized: QueryFn


def _from_sql(file: str) -> dict[str, QueryFn]:
    """Both variants of ``<file>.sql``: parsed once, planned and run by
    the SQL planner in the variant's mode."""
    query = parse((QUERY_DIR / f"{file}.sql").read_text())
    return {
        mode: partial(execute_parsed, query=query, mode=mode)
        for mode in ("baseline", "optimized")
    }


def _get(
    table: TableInfo,
    reads: Sequence[str],
    where: ast.Expr | None = None,
    bloom_attr: str | None = None,
) -> ScanNode:
    """A GET scan decoding what the plan ``reads`` (and its own filter);
    a join above it has no WHERE clause to ship ``bloom_attr`` keys into."""
    return ScanNode(
        table, decoded_columns(table, reads, where), where, pushdown=False
    )


def _select(
    table: TableInfo,
    columns: Sequence[str],
    where: ast.Expr | None = None,
    bloom_attr: str | None = None,
) -> ScanNode:
    """A pushed scan whose phase is named after its table."""
    return whole_table_select(table, columns, where, table.name, bloom_attr)


def _plan(strategy: str, root: PlanNode) -> PhysicalPlan:
    """A variant's plan.  Several GET scans (a baseline join) load in
    parallel: they meter as the one phase ``q<N>``."""
    name, mode = strategy.split()
    gets = sum(
        isinstance(node, ScanNode) and not node.pushdown
        for node, _ in physical.walk_plan(root)
    )
    return PhysicalPlan(root, mode, strategy, combined_label=name if gets > 1 else None)


# ----------------------------------------------------------------------
# Q6: forecasting revenue change (pure filter + aggregate)
# ----------------------------------------------------------------------

_Q6 = FilterQuery(
    table="lineitem",
    predicate=parse_expression(
        "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'"
        " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    ),
    output=items("SUM(l_extendedprice * l_discount) AS revenue"),
)


def q6_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    root = server_side_filter_node(ctx, catalog.get("lineitem"), _Q6, "q6")
    return physical.execute_plan(ctx, _plan("q6 baseline", root))


# ----------------------------------------------------------------------
# Q17: small-quantity-order revenue (correlated subquery over lineitem)
# ----------------------------------------------------------------------

_Q17_PART_WHERE = parse_expression("p_brand = 'Brand#23' AND p_container = 'MED BOX'")
_Q17_AVERAGE = items("l_partkey", "AVG(l_quantity) AS avg_quantity")
_Q17_KEYED = items("l_partkey AS avg_partkey", "avg_quantity")
_Q17_SMALL = parse_expression("l_quantity < 0.2 * avg_quantity")
_Q17_L_COLS = ["l_partkey", "l_quantity", "l_extendedprice"]
_Q17_OUTPUT = items("SUM(l_extendedprice) / 7.0 AS avg_yearly")


def _q17(ctx: CloudContext, catalog: Catalog, scan, strategy: str) -> QueryExecution:
    """avg_yearly = SUM(l_extendedprice | l_quantity < 0.2*avg(part)) / 7.

    The selected parts join their lineitems once, in an init plan; the
    correlated average and the outer aggregate are the root over its
    rows, as a subquery leg's consumer is.
    """
    candidates = HashJoinNode(
        scan(catalog.get("part"), ["p_partkey"], _Q17_PART_WHERE),
        scan(catalog.get("lineitem"), _Q17_L_COLS, bloom_attr="l_partkey"),
        "p_partkey", "l_partkey", bloom=_BLOOM, stream_probe=True,
    )
    lines = InitPlan(
        0, _plan(strategy, candidates),
        [*candidates.build.columns, *candidates.probe.columns],
        "the average and its join",
    )
    average = ProjectNode(
        GroupByNode(LegNode(lines), [ast.Column("l_partkey")], _Q17_AVERAGE),
        _Q17_KEYED,
    )
    small = FilterNode(
        HashJoinNode(
            average, LegNode(lines),
            "avg_partkey", "l_partkey", stream_probe=True,
        ),
        _Q17_SMALL,
    )
    outer = PhysicalPlan(
        select_list_node(small, _Q17_OUTPUT), lines.plan.mode, strategy,
        init_plans=[lines],
    )
    return physical.execute_plan(ctx, outer)


def q17_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return _q17(ctx, catalog, _get, "q17 baseline")


def q17_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return _q17(ctx, catalog, _select, "q17 optimized")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

TPCH_QUERIES: dict[str, QueryVariants] = {
    "q1": QueryVariants("q1", **_from_sql("q01")),
    "q3": QueryVariants("q3", **_from_sql("q03")),
    "q6": QueryVariants("q6", q6_baseline, _from_sql("q06")["optimized"]),
    "q14": QueryVariants("q14", **_from_sql("q14")),
    "q17": QueryVariants("q17", q17_baseline, q17_optimized),
    "q19": QueryVariants("q19", **_from_sql("q19")),
}
