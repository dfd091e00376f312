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
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.optimizer import chooser
from repro.optimizer.cost import objective_key
from repro.optimizer.feedback import estimated_rows
from repro.optimizer.joinorder import JoinOrderSearch, bloom_probe, build_join_graph
from repro.planner.binder import bind
from repro.planner.costing import annotate_costs
from repro.planner.joins import (
    AdaptiveJoinNode,
    HashJoinNode,
    JoinNode,
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
    output_rows,
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

    Names are bound first (:func:`repro.planner.binder.bind`): a name
    error raises here, before any request.  Queries with subqueries,
    explicit JOINs or derived tables then go through the decorrelation
    pass (:mod:`repro.planner.subquery`), which plans each leg through
    this entry (so nested subqueries decorrelate recursively) as an init
    plan of the result.
    """
    if mode not in ("baseline", "optimized", "auto", "adaptive"):
        raise PlanError(
            f"unknown mode {mode!r}; use 'baseline', 'optimized',"
            " 'auto' or 'adaptive'"
        )
    from repro.planner.subquery import prepare_query

    prepared = prepare_query(ctx, catalog, bind(query, catalog), mode)
    return choose_plan(ctx, catalog, prepared.query, mode, prepared)


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
    included) and per-node ``est_cost``; a leg whose wrap scans its body
    instead (:func:`_apply_sub_joins`) is not among its init plans.
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
            read = {id(n.leg) for n, _ in walk_plan(plan.root) if isinstance(n, LegNode)}
            plan.init_plans = [
                leg for leg in prepared.init_plans if leg.value is not None or id(leg) in read
            ]
        annotate_costs(plan, ctx, plan.mode)
    return plans


def _build_derived_plan(query: ast.Query, mode: str, prepared) -> PhysicalPlan:
    """The outer query of ``FROM (SELECT ...) AS x``: its tail runs over
    the derived table's init plan's rows."""
    node: PlanNode = LegNode(prepared.derived)
    names = list(prepared.derived.names)
    if query.where is not None:
        node = FilterNode(node, query.where)
    root = attach_local_tail(node, query, names)
    return PhysicalPlan(root=root, mode=mode, strategy=f"{mode} derived-table")


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
    the probe cardinality ``probe_est``.  No Bloom goes onto the core
    (left / anti joins must see every probe row).  In a pushdown mode the
    keys may go the other way: a semi / anti wrap whose leg the rewrite
    also names as a scan may hash the core instead (:func:`_hashed_core`),
    and the one cost walk keeps whichever orientation is cheaper in
    dollars, the leg's init plan counting on the side that reads it.
    Returns the wrapped node and its output names.
    """
    from repro.engine.operators.hashjoin import join_output_names

    rank = objective_key("cost")
    for sj in prepared.sub_joins:
        if sj.leg is None:
            build: PlanNode = _body_scan(ctx, sj, mode != "baseline", "join-scan")
            build_names = list(build.columns)
        else:
            build = LegNode(sj.leg)
            build_names = list(sj.leg.names)
        core = node
        joins = [HashJoinNode(
            build, core, sj.build_keys, sj.probe_keys,
            stream_probe=True, join_type=sj.kind,
            match_cond=sj.match_cond, provenance=sj.provenance,
        )]
        if sj.leg is not None and sj.table is not None and mode != "baseline":
            joins += _hashed_core(ctx, sj, core)
        for join in joins:
            hashed = output_rows(join.build)
            join.est_rows = probe_est
            join.est_cpu = (
                hashed * SERVER_CPU_PER_ROW["hash_build"]
                + output_rows(join.probe) * SERVER_CPU_PER_ROW["hash_probe"]
                + (hashed * SERVER_CPU_PER_ROW["bloom_insert"] if join.bloom else 0.0)
            )
        node = joins[0]
        if len(joins) > 1:
            # Each priced as it would run: the leg hashed after its init
            # plan, in one phase if no scan waits on a Bloom; ties keep it.
            plans = [
                PhysicalPlan(
                    node, mode, "leg hashed", _phase_policy(node, True), init_plans=[sj.leg]
                ),
                PhysicalPlan(joins[1], mode, "core hashed"),
            ]
            for plan in plans:
                annotate_costs(plan, ctx)
            node = min(plans, key=lambda plan: rank(plan.estimate)).root
            if node is joins[1]:  # the core is drained: its root join may hash its smaller side
                while isinstance(core, (FilterNode, AdaptiveJoinNode)):
                    core = core.child
                if isinstance(core, JoinNode):
                    core.stream_probe = False
        names = join_output_names(build_names, names, sj.kind)
    if prepared.post_filter is not None:
        node = FilterNode(node, prepared.post_filter)
    return node, names


def _phase_policy(root: PlanNode, optimized: bool) -> str | None:
    """The one phase a plan over ``root`` meters, if any
    (:attr:`PhysicalPlan.combined_label`): two or more scans none of
    which waits for a Bloom load in parallel."""
    scans = [n for n, _ in walk_plan(root) if isinstance(n, ScanNode)]
    if len(scans) < 2 or any(n.bloom_attr for n in scans):
        return None
    return "select+join" if optimized else "load+join"


def _body_scan(ctx: CloudContext, sj, pushdown: bool, label: str) -> ScanNode:
    """A scan of a wrap's body table (``sj.table``) under its own WHERE."""
    scan = ScanNode(
        sj.table,
        sj.scan_cols if pushdown else decoded_columns(sj.table, sj.scan_cols, sj.scan_pred),
        sj.scan_pred, pushdown=pushdown, phase_label=f"{label}-{sj.table.name}",
        prune=ctx.prune_partitions,
    )
    scan.est_rows = estimated_rows(ctx, sj.table, sj.scan_pred)
    return scan


def _hashed_core(ctx: CloudContext, sj, core: PlanNode) -> list[HashJoinNode]:
    """The other orientation of a semi / anti wrap: its right semi / anti
    join hashing the ``core``, probed by a fresh pushed scan of the leg's
    body that takes the core's keys on the first key pair (the magic
    set), as the join search prices a Bloom probe
    (:func:`~repro.optimizer.joinorder.bloom_probe`); none when that
    Bloom would reject no row."""
    renames = dict(zip(sj.leg.names, sj.scan_cols))
    scan = _body_scan(ctx, sj, True, "probe-scan")
    join = HashJoinNode(
        core, scan, sj.probe_keys, tuple(renames[k] for k in sj.build_keys),
        stream_probe=True, join_type=f"right_{sj.kind}",
        match_cond=sj.match_cond and ast.rename_columns(sj.match_cond, renames),
        provenance=sj.provenance,
    )
    return [join] if bloom_probe(
        join, sj.owner.stats.distinct_among(sj.probe_keys[0], output_rows(core)),
        sj.table.stats.distinct_among(join.probe_keys[0], scan.est_rows),
    ) else []


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
    :func:`repro.planner.joins.serialize_shape` output, each table as
    the catalog names it.  The fig12 / fig13 sweeps compare the
    optimizer's pick against every such tree.
    """
    if (order is None) == (shape is None):
        raise PlanError("execute_forced_join takes exactly one of order= or shape=")
    query = parse(sql)
    if len(query.from_tables) < 2:
        raise PlanError("execute_forced_join needs a multi-table query")
    plan = build_plan(
        ctx, catalog, query, mode, shape=shape, force_order=order
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
    if prepared is None:
        graph, extra_refs = build_join_graph(bind(query, catalog)), frozenset()
    else:
        graph, extra_refs = build_join_graph(prepared.bound), prepared.extra_refs
    search = JoinOrderSearch(ctx, graph, extra_refs=extra_refs)
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
    predicate and projection are pushed into its S3 Select scan, and a
    probe-side scan carries a Bloom predicate where the search predicts
    it rejects a row — inner probes included, which is what bushy
    snowflake plans profit from.  A lone scan under bare additive
    aggregates becomes one pushed aggregate unless sub-joins wrap it (an
    S3-side aggregate leaves nothing to join against).

    Two or more scans none of which waits for a Bloom load in parallel,
    as one ``load+join`` (GET) or ``select+join`` (pushed: the paper's
    filtered join) phase — never slower in the model: a max of sums is
    at most the sum of maxes, and latency is paid once.
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
    residual = search.graph.residual
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
    root = attach_local_tail(node, query, names)
    combined = _phase_policy(root, optimized)
    if adaptive_node is not None:
        search.blooms = combined is None
    return PhysicalPlan(
        root=root, mode=mode,
        strategy=(
            f"{mode} single-table" if len(leaves) == 1
            else f"{mode} multi-join ({join_tree_label(tree)})"
        ),
        combined_label=combined,
        adaptive_node=adaptive_node,
        join_decision=decision,
    )
