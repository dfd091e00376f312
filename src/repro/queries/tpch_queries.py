"""TPC-H queries Q1, Q3, Q6, Q14, Q17, Q19 — the paper's Figure 10 suite.

Every query comes in two variants matching the paper's configurations:

* **baseline** — "PushdownDB (Baseline)": plain GETs of whole tables,
  everything computed on the query node (no S3 Select);
* **optimized** — "PushdownDB (Optimized)": the pushdown algorithms of
  Sections IV-VII (selection/projection/aggregation pushdown, Bloom
  joins, S3-side group-by).

Each variant is a function ``(ctx, catalog) -> QueryExecution`` over
tables loaded by :func:`repro.queries.dataset.load_tpch`: a hand-written
plan tree (:mod:`repro.planner.nodes`) run by the one executor.  A baseline
is GET scans metered as one whole-query phase named after the query.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    PushedAggregateNode,
    ScanNode,
    SortNode,
    TopKNode,
    whole_table_select,
)
from repro.planner.physical import InitPlan, PhysicalPlan
from repro.planner.tail import select_list_node
from repro.queries.common import items
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression
from repro.strategies.filter import FilterQuery, server_side_filter_node
from repro.strategies.groupby import (
    AggSpec,
    CaseGroupByNode,
    GroupByQuery,
    server_side_group_by_node,
)
from repro.strategies.scans import decoded_columns

QueryFn = Callable[[CloudContext, Catalog], QueryExecution]

#: The paper variants ship an empty build side's (all-zero) Bloom filter.
_BLOOM = BloomPushdown(when_empty=True)


@dataclass(frozen=True)
class QueryVariants:
    """Baseline and optimized implementations of one benchmark query."""

    name: str
    baseline: QueryFn
    optimized: QueryFn


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


def _plan(strategy: str, root: PlanNode, one_phase: bool = False) -> PhysicalPlan:
    """A variant's plan.  Several GET scans (a baseline join) load in
    parallel, as do the pushed scans of a ``one_phase`` plan: they meter
    as the one phase ``q<N>``."""
    name, mode = strategy.split()
    gets = sum(
        isinstance(node, ScanNode) and not node.pushdown
        for node, _ in physical.walk_plan(root)
    )
    return PhysicalPlan(
        root, mode, strategy,
        combined_label=name if gets > 1 or one_phase else None,
    )


# ----------------------------------------------------------------------
# Q1: pricing summary report (filter + 8 aggregates, 2 group columns)
# ----------------------------------------------------------------------

_Q1_WHERE = "l_shipdate <= '1998-09-02'"  # 1998-12-01 minus DELTA=90 days
_Q1 = GroupByQuery(
    table="lineitem",
    group_columns=["l_returnflag", "l_linestatus"],
    aggregates=[
        AggSpec("sum", "l_quantity", "sum_qty"),
        AggSpec("sum", "l_extendedprice", "sum_base_price"),
        AggSpec("sum", "l_extendedprice * (1 - l_discount)", "sum_disc_price"),
        AggSpec(
            "sum", "l_extendedprice * (1 - l_discount) * (1 + l_tax)", "sum_charge"
        ),
        AggSpec("avg", "l_quantity", "avg_qty"),
        AggSpec("avg", "l_extendedprice", "avg_price"),
        AggSpec("avg", "l_discount", "avg_disc"),
        AggSpec("count", "1", "count_order"),
    ],
    predicate=parse_expression(_Q1_WHERE),
)
_Q1_ORDER = [ast.OrderItem(expr=e) for e in _Q1.group_exprs()]


def q1_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    grouped = server_side_group_by_node(ctx, catalog.get("lineitem"), _Q1, "q1")
    return physical.execute_plan(
        ctx, _plan("q1 baseline", SortNode(grouped, _Q1_ORDER))
    )


def q1_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    """Push the whole aggregation to S3 via S3-side group-by (6 groups)."""
    grouped = CaseGroupByNode(ctx, catalog.get("lineitem"), _Q1)
    return physical.execute_plan(
        ctx, _plan("q1 optimized", SortNode(grouped, _Q1_ORDER))
    )


# ----------------------------------------------------------------------
# Q3: shipping priority (3-table join + group-by + top-10)
# ----------------------------------------------------------------------

_Q3_DATE = "1995-03-15"
_Q3_CUSTOMER = parse_expression("c_mktsegment = 'BUILDING'")
_Q3_ORDERS = parse_expression(f"o_orderdate < '{_Q3_DATE}'")
_Q3_LINEITEM = parse_expression(f"l_shipdate > '{_Q3_DATE}'")
_Q3_ITEMS = items(
    "l_orderkey", "o_orderdate", "o_shippriority",
    "SUM(l_extendedprice * (1 - l_discount)) AS revenue",
)
_Q3_KEYS = [item.expr for item in _Q3_ITEMS[:3]]
_Q3_ORDER = [
    ast.OrderItem(expr=ast.Column("revenue"), descending=True),
    ast.OrderItem(expr=ast.Column("o_orderdate")),
]


def _q3(catalog: Catalog, scan) -> PlanNode:
    """Cascaded (Bloom) joins: customer keys -> orders, order keys ->
    lineitem.  The semi join is exact: it eliminates the false positives
    of a Bloom-filtered orders scan."""
    matched_orders = HashJoinNode(
        scan(catalog.get("customer"), ["c_custkey"], _Q3_CUSTOMER),
        scan(
            catalog.get("orders"),
            ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
            _Q3_ORDERS, bloom_attr="o_custkey",
        ),
        "c_custkey", "o_custkey", bloom=_BLOOM, join_type="semi",
    )
    joined = HashJoinNode(
        matched_orders,
        scan(
            catalog.get("lineitem"), ["l_orderkey", "l_extendedprice", "l_discount"],
            _Q3_LINEITEM, bloom_attr="l_orderkey",
        ),
        "o_orderkey", "l_orderkey", bloom=_BLOOM, stream_probe=True,
    )
    return TopKNode(GroupByNode(joined, _Q3_KEYS, _Q3_ITEMS), _Q3_ORDER, 10)


def q3_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return physical.execute_plan(ctx, _plan("q3 baseline", _q3(catalog, _get)))


def q3_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return physical.execute_plan(ctx, _plan("q3 optimized", _q3(catalog, _select)))


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


def q6_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    """The entire query is inside the S3 Select dialect: push it all."""
    query = ast.Query(
        select_items=tuple(_Q6.output), from_tables=("lineitem",),
        where=_Q6.predicate,
    )
    root = PushedAggregateNode(catalog.get("lineitem"), query, phase_label="q6")
    return physical.execute_plan(ctx, _plan("q6 optimized", root))


# ----------------------------------------------------------------------
# Q14: promotion effect (lineitem ⋈ part, CASE aggregate)
# ----------------------------------------------------------------------

_Q14_WHERE = parse_expression("l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'")
_Q14_L_COLS = ["l_partkey", "l_extendedprice", "l_discount"]
_Q14_P_COLS = ["p_partkey", "p_type"]
_Q14_OUTPUT = items(
    "100 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount)"
    " ELSE 0 END) / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue"
)


def _q14(catalog: Catalog, scan) -> PlanNode:
    """Filtered lineitem is the small side; Bloom its part keys into part."""
    joined = HashJoinNode(
        scan(catalog.get("lineitem"), _Q14_L_COLS, _Q14_WHERE),
        scan(catalog.get("part"), _Q14_P_COLS, bloom_attr="p_partkey"),
        "l_partkey", "p_partkey", bloom=_BLOOM, stream_probe=True,
    )
    return select_list_node(joined, _Q14_OUTPUT)


def q14_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return physical.execute_plan(ctx, _plan("q14 baseline", _q14(catalog, _get)))


def q14_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return physical.execute_plan(ctx, _plan("q14 optimized", _q14(catalog, _select)))


# ----------------------------------------------------------------------
# Q17: small-quantity-order revenue (correlated subquery over lineitem)
# ----------------------------------------------------------------------

_Q17_PART_WHERE = parse_expression("p_brand = 'Brand#23' AND p_container = 'MED BOX'")
_Q17_AVERAGE = items("l_partkey", "AVG(l_quantity) AS avg_quantity")
_Q17_KEYED = items("l_partkey AS avg_partkey", "avg_quantity")
_Q17_SMALL = parse_expression("l_quantity < 0.2 * avg_quantity")
_Q17_L_COLS = ["l_partkey", "l_quantity", "l_extendedprice"]
#: (an empty candidate set sums to 0, not NULL, as the hand loop did)
_Q17_OUTPUT = items("COALESCE(SUM(l_extendedprice), 0.0) / 7.0 AS avg_yearly")


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
# Q19: discounted revenue (disjunctive join predicate)
# ----------------------------------------------------------------------

_Q19_BRANCHES = [
    ("Brand#12", ("SM CASE", "SM BOX", "SM PACK", "SM PKG"), (1, 11), (1, 5)),
    ("Brand#23", ("MED BAG", "MED BOX", "MED PKG", "MED PACK"), (10, 20), (1, 10)),
    ("Brand#34", ("LG CASE", "LG BOX", "LG PACK", "LG PKG"), (20, 30), (1, 15)),
]


def _quoted(values: Sequence[str]) -> str:
    return ", ".join(f"'{value}'" for value in values)


#: Each branch's conjuncts over part, and its one over lineitem.
_Q19_P_SIDE = [
    f"p_brand = '{brand}' AND p_container IN ({_quoted(containers)})"
    f" AND p_size BETWEEN {size[0]} AND {size[1]}"
    for brand, containers, _, size in _Q19_BRANCHES
]
_Q19_L_SIDE = [
    f"l_quantity BETWEEN {lo} AND {hi}" for _, _, (lo, hi), _ in _Q19_BRANCHES
]
_Q19_BRANCHES_SQL = " OR ".join(
    f"({p} AND {l})" for p, l in zip(_Q19_P_SIDE, _Q19_L_SIDE)
)
_Q19_COMMON_L = (
    "l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON'"
)
#: The baseline's filter, then the optimized variant's: each side's part
#: of the disjunction pushed, the exact per-branch check left.
_Q19_WHERE = parse_expression(f"({_Q19_BRANCHES_SQL}) AND {_Q19_COMMON_L}")
_Q19_PART = parse_expression(" OR ".join(f"({p})" for p in _Q19_P_SIDE))
_Q19_LINEITEM = parse_expression(f"{_Q19_COMMON_L} AND ({' OR '.join(_Q19_L_SIDE)})")
_Q19_RESIDUAL = parse_expression(_Q19_BRANCHES_SQL)
_Q19_L_COLS = ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
_Q19_P_COLS = ["p_partkey", "p_brand", "p_size", "p_container"]
_Q19_OUTPUT = items("SUM(l_extendedprice * (1 - l_discount)) AS revenue")


def _q19(ctx, strategy: str, part: ScanNode, lineitem: ScanNode, residual: ast.Expr):
    joined = HashJoinNode(part, lineitem, "p_partkey", "l_partkey", stream_probe=True)
    kept = FilterNode(joined, residual)
    # The two scans load in parallel, pushed or not: one phase.
    return physical.execute_plan(ctx, _plan(
        strategy, select_list_node(kept, _Q19_OUTPUT), one_phase=True
    ))


def q19_baseline(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    return _q19(
        ctx, "q19 baseline", _get(catalog.get("part"), _Q19_P_COLS),
        _get(catalog.get("lineitem"), _Q19_L_COLS + ["l_shipmode", "l_shipinstruct"]),
        _Q19_WHERE,
    )


def q19_optimized(ctx: CloudContext, catalog: Catalog) -> QueryExecution:
    """Push each side's part of the disjunction; finish exactly locally:
    the common lineitem conjuncts were fully applied at S3, only the
    per-branch (brand, container, quantity, size) combination still
    needs an exact check."""
    return _q19(
        ctx, "q19 optimized",
        _select(catalog.get("part"), _Q19_P_COLS, _Q19_PART),
        _select(catalog.get("lineitem"), _Q19_L_COLS, _Q19_LINEITEM),
        _Q19_RESIDUAL,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

TPCH_QUERIES: dict[str, QueryVariants] = {
    "q1": QueryVariants("q1", q1_baseline, q1_optimized),
    "q3": QueryVariants("q3", q3_baseline, q3_optimized),
    "q6": QueryVariants("q6", q6_baseline, q6_optimized),
    "q14": QueryVariants("q14", q14_baseline, q14_optimized),
    "q17": QueryVariants("q17", q17_baseline, q17_optimized),
    "q19": QueryVariants("q19", q19_baseline, q19_optimized),
}
