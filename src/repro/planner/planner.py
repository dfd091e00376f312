"""A minimal SQL planner for PushdownDB.

The paper describes PushdownDB's optimizer as "minimal" (Section III);
ours goes one step further: besides choosing between the baseline (GET
everything) and optimized (pushdown) physical strategies, multi-table
queries run through a cost-based join-tree search
(:mod:`repro.optimizer.joinorder`).

Every path **builds an explicit physical plan** — a
:mod:`repro.planner.physical` operator tree — and hands it to the single
recursive executor.  The same plan object is what the cost walker
(:mod:`repro.planner.costing`) prices, what ``mode="auto"`` ranks, what
``db.explain()`` renders and what runs.

Supported SQL per query: one or more tables (``FROM a, b WHERE a.k =
b.k AND ...``) with WHERE / GROUP BY / aggregates / ORDER BY / LIMIT,
planned by one builder — an equi-join tree (left-deep or bushy) picked
by the join-order search, with Bloom predicates on probe-side scans and
cross-product fallbacks for small disconnected FROM lists; one table is
the one-leaf tree, with no order to search — under one local tail.

Anything else raises :class:`~repro.common.errors.PlanError`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.optimizer import chooser
from repro.optimizer.feedback import estimated_rows
from repro.optimizer.joinorder import JoinOrderSearch, build_join_graph
from repro.planner.costing import annotate_costs
from repro.planner.joins import (
    AdaptiveJoinNode,
    HashJoinNode,
    join_extra_edges,
    join_leaves,
    join_tree_label,
    mark_spine,
    serialize_shape,
    tree_signature,
)
from repro.planner.nodes import (
    FilterNode,
    LegNode,
    PlanNode,
    PushedAggregateNode,
    ScanNode,
)
from repro.planner.physical import PhysicalPlan, execute_plan, walk_plan
from repro.planner.tail import attach_local_tail
from repro.sqlparser import ast
from repro.sqlparser.parser import parse
from repro.strategies.scans import decoded_columns

#: Aggregates whose per-partition partials merge by plain addition.
_ADDITIVE = {"SUM", "COUNT"}


def plan_and_execute(
    ctx: CloudContext, catalog: Catalog, sql: str, mode: str = "optimized"
) -> QueryExecution:
    """Parse, plan, and run ``sql``; returns the finalized execution.

    ``mode="auto"`` asks the cost-based optimizer to pick between the
    baseline and optimized physical plans; the per-candidate estimates
    land in ``execution.report.optimizer``.  ``mode="adaptive"``
    executes the optimized plan with mid-flight re-optimization: when a
    completed hash build's cardinality misses its estimate by more than
    the context's ``adaptive_threshold`` Q-error, the remaining join
    tree is re-planned around the observed count (see
    :class:`~repro.planner.joins.AdaptiveJoinNode`); accurate
    estimates execute byte-identically to ``mode="optimized"``.
    """
    return execute_parsed(ctx, catalog, parse(sql), mode)


def execute_parsed(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str
) -> QueryExecution:
    """Plan (:func:`plan_parsed`) and run an already-parsed query (see
    :func:`plan_and_execute`); its subquery legs run first and bill to it."""
    plan, choice = plan_parsed(ctx, catalog, query, mode)
    execution = execute_plan(ctx, plan)
    if choice is not None:
        execution.report = replace(execution.report, optimizer=choice.summary())
    return execution


def plan_parsed(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str
) -> tuple[PhysicalPlan, chooser.Choice | None]:
    """The plan ``mode`` runs for an already-parsed query, plus the
    optimizer's choice when ``mode="auto"`` made one; touches no storage.
    Execution, EXPLAIN and every subquery leg plan here.

    Queries with subqueries, explicit JOINs or derived tables go through
    the decorrelation pass first (:mod:`repro.planner.subquery`), which
    plans each leg through this entry (so nested subqueries decorrelate
    recursively) as an init plan of the result.
    """
    if mode not in ("baseline", "optimized", "auto", "adaptive"):
        raise PlanError(
            f"unknown mode {mode!r}; use 'baseline', 'optimized',"
            " 'auto' or 'adaptive'"
        )
    from repro.planner.subquery import needs_rewrite, prepare_query

    prepared = None
    if needs_rewrite(query):
        prepared = prepare_query(ctx, catalog, query, mode)
        query = prepared.query
    return choose_plan(ctx, catalog, query, mode, prepared)


def choose_plan(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str,
    prepared=None,
) -> tuple[PhysicalPlan, chooser.Choice | None]:
    """The plan ``mode`` runs for a (rewritten) query, plus the
    optimizer's choice when ``mode="auto"`` made one.

    ``auto`` builds and prices both candidate plans once and hands back
    the picked *plan object* — execution and EXPLAIN run and render
    exactly what was priced.
    """
    if mode == "auto":
        choice = chooser.choose_planner_mode(ctx, catalog, query, prepared=prepared)
        return choice.plan, choice
    return build_plan(ctx, catalog, query, mode, prepared=prepared), None


def build_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: ast.Query,
    mode: str,
    shape=None,
    force_order: list[str] | None = None,
    prepared=None,
) -> PhysicalPlan:
    """Build the physical plan for ``query`` without executing it.

    ``shape`` forces a serialized join-tree shape and ``force_order`` a
    left-deep order (experiment sweeps).  ``prepared`` is the
    decorrelation pass's output
    (:class:`repro.planner.subquery.PreparedQuery`) — its sub-joins
    stack on top of the core join tree, below the local tail, and its
    subquery legs, already planned, become the plan's init plans.  Plan
    building never touches storage, so ``db.explain()`` can render the
    tree for free.
    """
    return build_plans(
        ctx, catalog, query, (mode,), shape=shape, force_order=force_order,
        prepared=prepared,
    )[0]


def build_plans(
    ctx: CloudContext,
    catalog: Catalog,
    query: ast.Query,
    modes: Sequence[str],
    shape=None,
    force_order: list[str] | None = None,
    prepared=None,
) -> list[PhysicalPlan]:
    """One priced plan per entry of ``modes`` (see :func:`build_plan`).

    A table query builds one join tree — the join-order search, ranking
    by predicted dollars, runs once for two or more tables — and derives
    every mode's plan from it, so the ``auto`` chooser's baseline and
    optimized candidates join in the same order.  Every returned plan
    carries its predicted profile (``plan.estimate``, init plans
    included) and per-node ``est_cost``.
    """
    if prepared is not None and prepared.derived is not None:
        plans = [_build_derived_plan(query, mode, prepared) for mode in modes]
    else:
        plans = _join_plans(
            ctx, catalog, query, modes, shape=shape,
            force_order=force_order, prepared=prepared,
        )
    for plan in plans:
        if prepared is not None:
            plan.init_plans = prepared.init_plans
        annotate_costs(plan, ctx, plan.mode)
    return plans


def _build_derived_plan(query: ast.Query, mode: str, prepared) -> PhysicalPlan:
    """The outer query of ``FROM (SELECT ...) AS x``: its tail runs over
    the derived table's init plan's rows."""
    node: PlanNode = LegNode(prepared.derived)
    names = list(prepared.derived.names)
    est_rows = node.est_rows
    if query.where is not None:
        node = FilterNode(node, query.where)
    root = attach_local_tail(node, query, names, est_rows)
    return PhysicalPlan(
        root=root, mode=mode, strategy=f"{mode} derived-table",
    )


def _apply_sub_joins(
    ctx: CloudContext,
    node: PlanNode,
    names: list[str],
    probe_est: float,
    prepared,
    mode: str,
) -> tuple[PlanNode, list[str]]:
    """Stack the decorrelated joins on top of the core tree.

    Wraps are pinned: the join-order DP never reorders them.  Pricing
    uses output caps by join kind — semi/anti joins emit at most the
    probe side, a left-outer join emits at least it, and a decorrelated
    scalar join (unique group keys) at most it; all four estimate at
    the probe cardinality ``probe_est``.  Bloom predicates are never attached here:
    left/anti joins must see every probe row, and an init plan's build
    side never rescans storage anyway.  Returns the wrapped node and its
    output names.
    """
    from repro.cloud.perf import SERVER_CPU_PER_ROW
    from repro.engine.operators.hashjoin import join_output_names

    for sj in prepared.sub_joins:
        if sj.table is not None:
            optimized = mode != "baseline"
            build: PlanNode = ScanNode(
                sj.table,
                sj.scan_cols if optimized
                else decoded_columns(sj.table, sj.scan_cols, sj.scan_pred),
                sj.scan_pred, pushdown=optimized,
                phase_label=f"join-scan-{sj.table.name}",
                prune=ctx.prune_partitions,
            )
            build.est_rows = estimated_rows(ctx, sj.table, sj.scan_pred)
            build_names = list(build.columns)
            build_rows_est = build.est_rows
        else:
            build = LegNode(sj.leg)
            build_names = list(sj.leg.names)
            build_rows_est = build.est_rows
        join = HashJoinNode(
            build, node, sj.build_key, sj.probe_key,
            stream_probe=True, join_type=sj.kind,
            match_cond=sj.match_cond, provenance=sj.provenance,
        )
        join.est_rows = probe_est
        join.est_cpu = (
            build_rows_est * SERVER_CPU_PER_ROW["hash_build"]
            + probe_est * SERVER_CPU_PER_ROW["hash_probe"]
        )
        names = join_output_names(build_names, names, sj.kind)
        node = join
    if prepared.post_filter is not None:
        node = FilterNode(node, prepared.post_filter)
    return node, names


def _fully_pushable(query: ast.Query) -> bool:
    """True when the whole query fits the S3 Select dialect with additive
    aggregates (pure SUM/COUNT shapes like TPC-H Q6)."""
    if (
        query.group_by
        or query.order_by
        or query.limit is not None
        or query.having is not None
        or query.joins
        or query.derived is not None
    ):
        return False
    # Bare aggregates only: per-partition results merge by addition, which
    # no enclosing expression but a linear one survives (``SUM(a) / COUNT(*)``).
    return all(
        isinstance(item.expr, ast.Aggregate)
        and item.expr.func in _ADDITIVE and not item.expr.distinct
        for item in query.select_items
    )


# ----------------------------------------------------------------------
# table plans: one scan or an N-way join tree, under one local tail
# ----------------------------------------------------------------------

def execute_forced_join(
    ctx: CloudContext,
    catalog: Catalog,
    sql: str,
    *,
    order: list[str] | None = None,
    shape=None,
    mode: str = "optimized",
) -> QueryExecution:
    """Run a multi-table query with a caller-forced join tree: a
    left-deep ``order`` of table names or a (possibly bushy) ``shape``,
    :func:`repro.planner.joins.serialize_shape` output.  The fig12 /
    fig13 sweeps compare the optimizer's pick against every such tree.
    """
    if (order is None) == (shape is None):
        raise PlanError("execute_forced_join takes exactly one of order= or shape=")
    query = parse(sql)
    if len(query.from_tables) < 2:
        raise PlanError("execute_forced_join needs a multi-table query")
    force_order = None if order is None else [t.lower() for t in order]
    plan = build_plan(
        ctx, catalog, query, mode, shape=shape, force_order=force_order
    )
    return execute_plan(ctx, plan)


def _join_plans(
    ctx: CloudContext,
    catalog: Catalog,
    query: ast.Query,
    modes: Sequence[str],
    shape=None,
    force_order: list[str] | None = None,
    prepared=None,
) -> list[PhysicalPlan]:
    """A table query's plan in each of ``modes``, from one join tree.

    The join-tree search (``optimizer/joinorder.py``) decides the shape
    — left-deep or bushy, equi-joins or a guarded cross product — unless
    the caller forces one; one table has no order to search, and its
    tree is the table's lone scan.  Every mode's plan is derived from
    that one tree (``modes`` may hold one pushdown mode, which takes the
    tree itself, beside ``baseline``, which rebuilds it on GET scans).
    """
    graph = build_join_graph(catalog, query)
    search = JoinOrderSearch(
        ctx, graph, query,
        extra_refs=frozenset(prepared.extra_refs) if prepared is not None
        else frozenset(),
    )
    names = graph.table_names()
    decision = None
    if force_order is not None:
        order = list(force_order)
        if sorted(order) != sorted(names):
            raise PlanError(
                f"join order {order} does not cover tables {names}"
            )
        for i in range(1, len(order)):
            if not graph.edges_between(order[i], set(order[:i])):
                raise PlanError(
                    f"join order {order} is not connected at {order[i]!r}"
                )
        tree = search.left_deep_tree(order)
    elif shape is not None:
        tree = search.build_tree(shape)
    elif len(names) == 1:
        # No order to search; a baseline-only build refutes no zone maps.
        tree = search.leaf(names[0], pushdown=set(modes) != {"baseline"})
    else:
        decision = search.search()
        tree = decision.tree
    return [
        _join_plan(ctx, query, mode, tree, search, decision, prepared)
        for mode in modes
    ]


def _join_plan(
    ctx: CloudContext,
    query: ast.Query,
    mode: str,
    tree: PlanNode,
    search: JoinOrderSearch,
    decision,
    prepared,
) -> PhysicalPlan:
    """The plan executing the ``tree`` of :func:`_join_plans` in one ``mode``.

    Hash-build sides materialize; the spine (the root join's probe, or a
    lone scan) streams through the residual filter, the decorrelated
    sub-joins and the local tail.  In the pushdown modes each table's
    predicate and projection are pushed into its S3 Select scan, and
    *every* probe-side scan whose build key is an integer carries a
    Bloom predicate — inner probes included, which is what bushy
    snowflake plans profit from.  A lone scan under bare additive
    aggregates becomes one pushed aggregate unless sub-joins wrap it (an
    S3-side aggregate leaves nothing to join against).
    """
    optimized = mode != "baseline"
    wrapped = prepared is not None and (
        prepared.sub_joins or prepared.post_filter is not None
    )
    if (
        optimized and isinstance(tree, ScanNode) and not wrapped
        and _fully_pushable(query)
    ):
        # The leaf refuted the zone maps with this same WHERE.
        root = PushedAggregateNode(tree.table, query, tree.keep_partitions)
        return PhysicalPlan(
            root=root, mode=mode, strategy="optimized single-table"
        )
    if not optimized:
        tree = search.build_tree(serialize_shape(tree), pushdown=False)
    mark_spine(tree)
    leaves = join_leaves(tree)

    deferred = [edge.to_expr() for edge in join_extra_edges(tree)]
    residual = ast.and_join(
        deferred + ast.split_conjuncts(search.graph.residual)
    )
    node: PlanNode = tree
    adaptive_node = None
    if (
        mode == "adaptive"
        and isinstance(tree, HashJoinNode)
        and len(leaves) >= 3
        and tree_signature(tree) is not None
    ):
        # Mid-flight re-optimization needs at least three relations (two
        # leave nothing to reorder) and a pure inner equi-join tree
        # (outer / semi / anti edges may not be reordered); the search
        # object rides along so re-plans price through the same
        # calibrated cost model the original plan did.
        adaptive_node = AdaptiveJoinNode(
            tree, search, ctx.adaptive_threshold
        )
        node = adaptive_node
    if residual is not None:
        node = FilterNode(node, residual)
    names = [column for leaf in leaves for column in leaf.columns]
    if prepared is not None:
        node, names = _apply_sub_joins(
            ctx, node, names, tree.est_rows, prepared, mode
        )
    root = attach_local_tail(node, query, names, tree.est_rows)
    # A baseline plan holding more than one GET scan meters them as one
    # ``load+join`` phase, whose ingest is the whole-table formula.
    gets = sum(
        isinstance(n, ScanNode) and not n.pushdown for n, _ in walk_plan(root)
    )
    return PhysicalPlan(
        root=root, mode=mode,
        strategy=(
            f"{mode} single-table" if len(leaves) == 1
            else f"{mode} multi-join ({join_tree_label(tree)})"
        ),
        combined_label="load+join" if not optimized and gets > 1 else None,
        adaptive_node=adaptive_node,
        join_decision=decision,
    )
