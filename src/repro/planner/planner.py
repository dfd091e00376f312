"""A minimal SQL planner for PushdownDB.

The paper describes PushdownDB's optimizer as "minimal" (Section III);
ours goes one step further: besides choosing between the baseline (GET
everything) and optimized (pushdown) physical strategies, multi-table
queries run through a cost-based join-tree search
(:mod:`repro.optimizer.joinorder`).

Every path **builds an explicit physical plan** — a
:mod:`repro.planner.physical` operator tree — and hands it to the single
recursive executor.  The same tree is what the cost model prices and
what ``db.explain()`` renders.

Supported SQL per query:

* single table — WHERE / GROUP BY / aggregates / ORDER BY / LIMIT;
* two tables (``FROM a, b WHERE a.k = b.k AND ...``) — equi-join plus
  the same local tail (kept on the historical pairwise plan shape so its
  metering is unchanged); pairs *without* an equi-join condition fall
  back to a guarded cross product;
* three or more tables — an equi-join tree (left-deep or bushy) planned
  by the join-order search, with Bloom predicates on probe-side scans
  and cross-product fallbacks for small disconnected FROM lists.

Anything else raises :class:`~repro.common.errors.PlanError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.optimizer.feedback import estimate_selectivity_with_feedback
from repro.planner import physical
from repro.planner.physical import (
    FilterNode,
    HashJoinNode,
    PhysicalPlan,
    PushedAggregateNode,
    ScanNode,
    attach_local_tail,
    execute_plan,
)
from repro.sqlparser import ast
from repro.sqlparser.parser import parse

#: Aggregates whose per-partition partials merge by plain addition.
_ADDITIVE = {"SUM", "COUNT"}


def plan_and_execute(
    ctx: CloudContext, catalog: Catalog, sql: str, mode: str = "optimized"
) -> QueryExecution:
    """Parse, plan, and run ``sql``; returns the finalized execution.

    ``mode="auto"`` asks the cost-based optimizer to pick between the
    baseline and optimized physical plans; the per-candidate estimates
    land in ``execution.details["optimizer"]``.  ``mode="adaptive"``
    executes the optimized plan with mid-flight re-optimization: when a
    completed hash build's cardinality misses its estimate by more than
    the context's ``adaptive_threshold`` Q-error, the remaining join
    tree is re-planned around the observed count (see
    :class:`~repro.planner.physical.AdaptiveJoinNode`); accurate
    estimates execute byte-identically to ``mode="optimized"``.
    """
    return execute_parsed(ctx, catalog, parse(sql), mode)


def execute_parsed(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str
) -> QueryExecution:
    """Plan and run an already-parsed query (see :func:`plan_and_execute`).

    Queries with subqueries, explicit JOINs or derived tables go through
    the decorrelation pass first (:mod:`repro.planner.subquery`); its
    pre-executed legs bill to this query — the cost read-out mark is
    taken before they run and their phases prepend to the plan's own.
    This is also the subquery pass's re-entry point, so nested
    subqueries decorrelate recursively.
    """
    if mode not in ("baseline", "optimized", "auto", "adaptive"):
        raise PlanError(
            f"unknown mode {mode!r}; use 'baseline', 'optimized',"
            " 'auto' or 'adaptive'"
        )
    from repro.planner.subquery import needs_rewrite, prepare_query

    prepared = None
    mark = None
    if needs_rewrite(query):
        mark = ctx.begin_query()
        prepared = prepare_query(ctx, catalog, query, mode)
        query = prepared.query
    summary = None
    if mode == "auto":
        if prepared is not None and prepared.derived_rows is not None:
            # A derived-table core reads no storage; there is nothing
            # for the baseline-vs-pushdown chooser to decide.
            mode = "optimized"
        else:
            from repro.optimizer.chooser import choose_planner_mode

            choice = choose_planner_mode(
                ctx, catalog, query,
                extra_refs=(
                    prepared.extra_refs if prepared is not None else ()
                ),
            )
            mode = choice.picked
            summary = choice.summary()
    # Reuse the tree the auto-mode search already picked rather than
    # running the DP a second time.
    shape = summary.get("join_tree") if summary is not None else None
    plan = build_plan(ctx, catalog, query, mode, shape=shape, prepared=prepared)
    execution = execute_plan(
        ctx, plan, mark=mark,
        pre_phases=prepared.pre_phases if prepared is not None else None,
    )
    if summary is not None:
        execution.details["optimizer"] = summary
    return execution


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

    ``shape`` forces a serialized join-tree shape (the auto-mode reuse
    path); ``force_order`` forces a left-deep order (experiment sweeps).
    ``prepared`` is the decorrelation pass's output
    (:class:`repro.planner.subquery.PreparedQuery`) — its sub-joins
    stack on top of the core join tree, below the local tail.  Plan
    building never touches storage (pre-executed subquery legs already
    ran inside ``prepared``), so ``db.explain()`` can render the tree
    for free.
    """
    forced = shape is not None or force_order is not None
    if prepared is not None and prepared.derived_rows is not None:
        plan = _build_derived_plan(query, mode, prepared)
    elif query.join_table is None:
        plan = _build_single_plan(ctx, catalog, query, mode, prepared=prepared)
    elif (
        not forced
        and len(query.from_tables) == 2
        and _has_equi_join(catalog, query)
    ):
        plan = _build_pairwise_plan(ctx, catalog, query, mode, prepared=prepared)
    else:
        plan = _build_multiway_plan(
            ctx, catalog, query, mode, shape=shape, force_order=force_order,
            prepared=prepared,
        )
    physical.annotate_costs(plan.root, ctx, catalog)
    return plan


def _build_derived_plan(query: ast.Query, mode: str, prepared) -> PhysicalPlan:
    """The outer query of ``FROM (SELECT ...) AS x``: its tail runs over
    the pre-executed derived rows; no storage is touched again."""
    node: physical.PlanNode = physical.MaterializedNode(
        prepared.derived_rows, prepared.derived_names, tables=(query.table,)
    )
    names = list(prepared.derived_names)
    if query.where is not None:
        node = FilterNode(node, query.where)
    root = attach_local_tail(node, query, names)
    return PhysicalPlan(
        root=root, mode=mode, strategy=f"{mode} derived-table",
        scan_tables=[],
    )


def _apply_sub_joins(
    ctx: CloudContext,
    node: physical.PlanNode,
    names: list[str],
    prepared,
    mode: str,
) -> tuple[physical.PlanNode, list[str], list[TableInfo]]:
    """Stack the decorrelated joins on top of the core tree.

    Wraps are pinned: the join-order DP never reorders them.  Pricing
    uses output caps by join kind — semi/anti joins emit at most the
    probe side, a left-outer join emits at least it, and a decorrelated
    scalar join (unique group keys) at most it; all four estimate at
    the probe cardinality.  Bloom predicates are never attached here:
    left/anti joins must see every probe row, and the pre-executed
    build sides never rescan storage anyway.  Returns the wrapped node,
    its output names, and the tables any LEFT JOIN scans added (the
    baseline combined-phase formula must cover them).
    """
    from repro.cloud.perf import SERVER_CPU_PER_ROW
    from repro.engine.operators.hashjoin import join_output_names

    extra_tables: list[TableInfo] = []
    probe_est = getattr(node, "est_rows", None) or 0.0
    for sj in prepared.sub_joins:
        if sj.table is not None:
            optimized = mode != "baseline"
            build: physical.PlanNode = ScanNode(
                sj.table,
                sj.scan_cols if optimized else list(sj.table.schema.names),
                sj.scan_pred, pushdown=optimized,
                phase_label=f"join-scan-{sj.table.name}",
                prune=ctx.prune_partitions,
            )
            build.est_rows = estimate_selectivity_with_feedback(
                ctx.feedback, sj.table.name, sj.scan_pred,
                sj.table.stats_or_default(),
            ) * sj.table.num_rows
            if optimized:
                build.est_terms = float(
                    sj.table.num_rows * len(ast.split_conjuncts(sj.scan_pred))
                )
            build_names = list(build.columns)
            build_rows_est = build.est_rows
            extra_tables.append(sj.table)
        else:
            build = physical.MaterializedNode(
                sj.rows, sj.names, tables=sj.source_tables
            )
            build_names = list(sj.names)
            build_rows_est = float(len(sj.rows))
        join = HashJoinNode(
            build, node, sj.build_key, sj.probe_key,
            stream_probe=True, join_type=sj.kind,
            match_cond=sj.match_cond, provenance=sj.provenance,
        )
        join.est_build_rows = build_rows_est
        join.est_probe_rows = probe_est
        join.est_rows = probe_est
        join.est_cpu = join.est_cpu_plain = (
            build_rows_est * SERVER_CPU_PER_ROW["hash_build"]
            + probe_est * SERVER_CPU_PER_ROW["hash_probe"]
        )
        names = join_output_names(build_names, names, sj.kind)
        node = join
        probe_est = join.est_rows
    if prepared.post_filter is not None:
        node = FilterNode(node, prepared.post_filter)
    return node, names, extra_tables


def _has_equi_join(catalog: Catalog, query: ast.Query) -> bool:
    """Whether a 2-table query carries an equi-join condition."""
    from repro.optimizer.joinorder import build_join_graph

    return bool(build_join_graph(catalog, query).edges)


# ----------------------------------------------------------------------
# single-table plans
# ----------------------------------------------------------------------

def _build_single_plan(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str,
    prepared=None,
) -> PhysicalPlan:
    """A single-table query as one streaming scan + local-tail pipeline.

    The scan issues every partition request up front (so request and
    byte accounting never depend on how far the pipeline is pulled);
    batches flow through the local tail; a LIMIT cuts parsing and
    operator work short without changing what was billed.  Decorrelated
    sub-joins stack between the scan and the tail; the aggregate
    pushdown shortcut is disabled for them (an S3-side aggregate leaves
    nothing to join against).
    """
    table = catalog.get(query.table)
    wrapped = prepared is not None and (
        prepared.sub_joins or prepared.post_filter is not None
    )
    if (
        mode in ("optimized", "adaptive")
        and not wrapped
        and _fully_pushable(query)
    ):
        root = PushedAggregateNode(
            table, query, prune=ctx.prune_partitions
        )
        return PhysicalPlan(
            root=root, mode=mode, strategy="optimized single-table",
            scan_tables=[table],
        )
    stats = table.stats_or_default()
    selectivity = estimate_selectivity_with_feedback(
        ctx.feedback, table.name, query.where, stats
    )
    if mode == "baseline":
        names = list(table.schema.names)
        scan = ScanNode(table, names, query.where, pushdown=False,
                        phase_label="scan")
    else:
        names = _needed_columns(
            query, table,
            extra=prepared.extra_refs if prepared is not None else (),
        )
        scan = ScanNode(table, names, query.where, pushdown=True,
                        phase_label="scan",
                        prune=ctx.prune_partitions)
        scan.est_terms = float(
            table.num_rows * len(ast.split_conjuncts(query.where))
        )
    scan.est_rows = selectivity * table.num_rows
    node: physical.PlanNode = scan
    extra_tables: list[TableInfo] = []
    if wrapped:
        node, names, extra_tables = _apply_sub_joins(
            ctx, node, names, prepared, mode
        )
    root = attach_local_tail(node, query, names)
    # A baseline LEFT JOIN scan materializes via plain GETs whose
    # ingest only the combined-phase formula accounts for; plans
    # without such scans keep their historical per-scan phase.
    combined = "load+join" if mode == "baseline" and extra_tables else None
    return PhysicalPlan(
        root=root, mode=mode, strategy=f"{mode} single-table",
        scan_tables=[table] + extra_tables,
        combined_label=combined,
    )


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
    aggs: list[ast.Aggregate] = []
    for item in query.select_items:
        if isinstance(item.expr, ast.Star) or not ast.contains_aggregate(item.expr):
            return False
        aggs.extend(n for n in ast.walk(item.expr) if isinstance(n, ast.Aggregate))
    return all(a.func in _ADDITIVE and not a.distinct for a in aggs)


def _needed_columns(
    query: ast.Query, table: TableInfo, extra=()
) -> list[str]:
    referenced: set[str] = set()
    star = False
    for item in query.select_items:
        if isinstance(item.expr, ast.Star):
            star = True
        else:
            referenced |= ast.referenced_columns(item.expr)
    for expr in query.group_by:
        referenced |= ast.referenced_columns(expr)
    for order in query.order_by:
        referenced |= ast.referenced_columns(order.expr)
    if query.having is not None:
        referenced |= ast.referenced_columns(query.having)
    if star:
        return list(table.schema.names)
    lowered = {c.lower() for c in referenced} | {c.lower() for c in extra}
    needed = [n for n in table.schema.names if n.lower() in lowered]
    if not needed:
        # A pure-literal select list (``SELECT 1 FROM t WHERE ...``, the
        # shape EXISTS probes take) still needs one projected column so
        # the pushed scan preserves row count.
        needed = [table.schema.names[0]]
    return needed


# ----------------------------------------------------------------------
# two-table join plans (the historical pairwise shape)
# ----------------------------------------------------------------------

@dataclass
class _JoinPlan:
    build: TableInfo
    probe: TableInfo
    build_key: str
    probe_key: str
    build_pred: ast.Expr | None
    probe_pred: ast.Expr | None
    residual: ast.Expr | None


#: Shared WHERE-decomposition primitives (also used by the join-order
#: search); kept as module aliases for the pairwise planner's call sites.
_split_conjuncts = ast.split_conjuncts
_and_join = ast.and_join


def _owner(column: ast.Column, a: TableInfo, b: TableInfo) -> TableInfo | None:
    if column.table:
        if column.table.lower() == a.name.lower():
            return a
        if column.table.lower() == b.name.lower():
            return b
        return None
    in_a = a.schema.has_column(column.name)
    in_b = b.schema.has_column(column.name)
    if in_a and not in_b:
        return a
    if in_b and not in_a:
        return b
    if in_a and in_b:
        raise PlanError(
            f"ambiguous column {column.name!r}: qualify it with a table name"
        )
    return None


def _build_join_plan(
    catalog: Catalog, query: ast.Query
) -> tuple[_JoinPlan, list[ast.Expr]]:
    a = catalog.get(query.table)
    b = catalog.get(query.join_table)
    join_cond: tuple[str, str] | None = None
    side_preds: dict[str, list[ast.Expr]] = {a.name: [], b.name: []}
    residual: list[ast.Expr] = []
    for conjunct in _split_conjuncts(query.where):
        if (
            join_cond is None
            and isinstance(conjunct, ast.Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.Column)
            and isinstance(conjunct.right, ast.Column)
        ):
            lo = _owner(conjunct.left, a, b)
            ro = _owner(conjunct.right, a, b)
            if lo is not None and ro is not None and lo is not ro:
                if lo is a:
                    join_cond = (conjunct.left.name, conjunct.right.name)
                else:
                    join_cond = (conjunct.right.name, conjunct.left.name)
                continue
        owners = set()
        for column in ast.walk(conjunct):
            if isinstance(column, ast.Column):
                owner = _owner(column, a, b)
                if owner is not None:
                    owners.add(owner.name)
        if owners == {a.name}:
            side_preds[a.name].append(conjunct)
        elif owners == {b.name}:
            side_preds[b.name].append(conjunct)
        else:
            residual.append(conjunct)
    if join_cond is None:
        raise PlanError(
            "two-table queries need an equi-join condition like a.k = b.k"
        )
    a_key, b_key = join_cond
    # Build side = smaller table, as in the paper's hash joins.
    if a.num_rows <= b.num_rows:
        plan = _JoinPlan(
            build=a, probe=b, build_key=a_key, probe_key=b_key,
            build_pred=_and_join(side_preds[a.name]),
            probe_pred=_and_join(side_preds[b.name]),
            residual=_and_join(residual),
        )
    else:
        plan = _JoinPlan(
            build=b, probe=a, build_key=b_key, probe_key=a_key,
            build_pred=_and_join(side_preds[b.name]),
            probe_pred=_and_join(side_preds[a.name]),
            residual=_and_join(residual),
        )
    return plan, residual


def _join_needed_columns(
    query: ast.Query, table: TableInfo, key: str, residual: ast.Expr | None,
    extra=(),
) -> list[str]:
    referenced: set[str] = {key.lower()} | {c.lower() for c in extra}
    star = False
    exprs = [i.expr for i in query.select_items]
    exprs += list(query.group_by)
    exprs += [o.expr for o in query.order_by]
    if query.having is not None:
        exprs.append(query.having)
    if residual is not None:
        exprs.append(residual)
    for expr in exprs:
        if isinstance(expr, ast.Star):
            star = True
            continue
        referenced |= {c.lower() for c in ast.referenced_columns(expr)}
    if star:
        return list(table.schema.names)
    return [n for n in table.schema.names if n.lower() in referenced]


def _build_pairwise_plan(
    ctx: CloudContext, catalog: Catalog, query: ast.Query, mode: str,
    prepared=None,
) -> PhysicalPlan:
    """Two-table equi-join as the historical pairwise plan shape.

    The build side is a pipeline breaker (its rows must be hashed before
    probing), so its scan materializes; the probe side streams
    batch-by-batch through the join, the residual filter, and the local
    tail.  Metering is byte-identical to the pre-IR pairwise path.
    Decorrelated sub-joins stack above the residual filter, below the
    tail.
    """
    extra = prepared.extra_refs if prepared is not None else ()
    plan, _ = _build_join_plan(catalog, query)
    build_cols = _join_needed_columns(
        query, plan.build, plan.build_key, plan.residual, extra=extra
    )
    probe_cols = _join_needed_columns(
        query, plan.probe, plan.probe_key, plan.residual, extra=extra
    )
    optimized = mode != "baseline"
    prune = ctx.prune_partitions
    build_scan = ScanNode(
        plan.build,
        build_cols if optimized else list(plan.build.schema.names),
        plan.build_pred, pushdown=optimized, phase_label="build-scan",
        prune=prune,
    )
    probe_scan = ScanNode(
        plan.probe,
        probe_cols if optimized else list(plan.probe.schema.names),
        plan.probe_pred, pushdown=optimized, phase_label="probe-scan",
        prune=prune,
    )
    bloom = optimized and plan.build.schema.column(plan.build_key).type == "int"
    if bloom:
        probe_scan.bloom_attr = plan.probe_key
    join = HashJoinNode(
        build_scan, probe_scan, plan.build_key, plan.probe_key,
        bloom=bloom, stream_probe=True,
    )
    _annotate_pairwise(ctx, catalog, plan, build_scan, probe_scan, join)
    node: physical.PlanNode = join
    if plan.residual is not None:
        node = FilterNode(node, plan.residual)
    names = (
        build_scan.columns + probe_scan.columns
        if optimized
        else list(plan.build.schema.names) + list(plan.probe.schema.names)
    )
    extra_tables: list[TableInfo] = []
    if prepared is not None:
        node, names, extra_tables = _apply_sub_joins(
            ctx, node, names, prepared, mode
        )
    root = attach_local_tail(node, query, names)
    return PhysicalPlan(
        root=root, mode=mode, strategy=f"{mode} join",
        scan_tables=[plan.build, plan.probe] + extra_tables,
        combined_label=None if optimized else "load+join",
    )


def _annotate_pairwise(
    ctx: CloudContext,
    catalog: Catalog,
    plan: _JoinPlan,
    build_scan: ScanNode,
    probe_scan: ScanNode,
    join: HashJoinNode,
) -> None:
    """Containment estimates for the pairwise plan's EXPLAIN annotations."""
    feedback = ctx.feedback
    b_stats = plan.build.stats_or_default()
    p_stats = plan.probe.stats_or_default()
    build_rows = estimate_selectivity_with_feedback(
        feedback, plan.build.name, plan.build_pred, b_stats
    ) * plan.build.num_rows
    probe_rows = estimate_selectivity_with_feedback(
        feedback, plan.probe.name, plan.probe_pred, p_stats
    ) * plan.probe.num_rows
    build_scan.est_rows = build_rows
    build_scan.est_terms = float(
        plan.build.num_rows * len(ast.split_conjuncts(plan.build_pred))
    )
    probe_scan.est_rows = probe_rows
    probe_scan.est_terms = float(
        plan.probe.num_rows * len(ast.split_conjuncts(plan.probe_pred))
    )
    build_key_stats = b_stats.column(plan.build_key)
    probe_key_stats = p_stats.column(plan.probe_key)
    build_distinct = (
        max(build_key_stats.distinct, 1) if build_key_stats
        else max(plan.build.num_rows, 1)
    )
    probe_distinct = (
        max(probe_key_stats.distinct, 1) if probe_key_stats
        else max(plan.probe.num_rows, 1)
    )
    distinct_keys = min(build_rows, build_distinct)
    matched = probe_rows * min(1.0, distinct_keys / probe_distinct)
    if feedback is not None and feedback.has_join_feedback():
        from repro.optimizer.feedback import join_signature

        parts = physical.tree_signature(join)
        if parts is not None:
            measured = feedback.lookup_join(join_signature(*parts))
            if measured is not None:
                matched = measured
    join.est_rows = matched
    join.est_build_rows = min(build_rows, probe_rows)
    join.est_probe_rows = max(build_rows, probe_rows)
    from repro.cloud.perf import SERVER_CPU_PER_ROW

    join.est_cpu_plain = (
        join.est_build_rows * SERVER_CPU_PER_ROW["hash_build"]
        + join.est_probe_rows * SERVER_CPU_PER_ROW["hash_probe"]
    )
    join.est_cpu = join.est_cpu_plain
    if join.bloom:
        # Mirror what the executor meters: the Bloom predicate reduces
        # the probe scan's returned rows to the expected pass-rows and
        # adds its hash evaluations to the scanned-row terms.
        from repro.bloom.filter import optimal_num_bits, optimal_num_hashes
        from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
        from repro.strategies.join import DEFAULT_FPR

        join.est_cpu += build_rows * SERVER_CPU_PER_ROW["bloom_insert"]
        hashes = optimal_num_hashes(DEFAULT_FPR)
        bits = optimal_num_bits(int(max(distinct_keys, 1)), DEFAULT_FPR)
        if hashes * (bits + 60) <= EXPRESSION_LIMIT_BYTES:
            pass_rows = matched + (probe_rows - matched) * DEFAULT_FPR
            probe_scan.est_rows = min(probe_rows, pass_rows)
            probe_scan.est_terms += float(plan.probe.num_rows * hashes)


# ----------------------------------------------------------------------
# N-way (>2 table) and cross-product join plans
# ----------------------------------------------------------------------

def execute_with_join_order(
    ctx: CloudContext,
    catalog: Catalog,
    sql: str,
    order: list[str],
    mode: str = "optimized",
) -> QueryExecution:
    """Run a multi-table query with a caller-forced left-deep join order.

    The fig12/fig13 experiments use this to sweep every connected order
    and compare the optimizer's pick against the measured best.
    """
    query = parse(sql)
    if len(query.from_tables) < 3:
        raise PlanError("execute_with_join_order needs a 3+-table query")
    plan = build_plan(
        ctx, catalog, query, mode, force_order=[t.lower() for t in order]
    )
    return execute_plan(ctx, plan)


def execute_with_join_tree(
    ctx: CloudContext,
    catalog: Catalog,
    sql: str,
    shape,
    mode: str = "optimized",
) -> QueryExecution:
    """Run a multi-table query with a caller-forced join-tree shape.

    ``shape`` is :func:`repro.planner.physical.serialize_shape` output —
    a table name or ``[kind, build, probe]`` nesting — so experiments can
    force genuinely bushy plans the left-deep order API cannot express.
    """
    query = parse(sql)
    if len(query.from_tables) < 2:
        raise PlanError("execute_with_join_tree needs a multi-table query")
    plan = build_plan(ctx, catalog, query, mode, shape=shape)
    return execute_plan(ctx, plan)


def _build_multiway_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: ast.Query,
    mode: str,
    shape=None,
    force_order: list[str] | None = None,
    prepared=None,
) -> PhysicalPlan:
    """N-way equi-join (or guarded cross product) as a physical plan.

    The join-tree search (``optimizer/joinorder.py``) decides the shape
    — left-deep or bushy — unless the caller forces one.  Hash-build
    sides materialize; the spine join streams its probe through the
    residual filter and the local tail.  In optimized mode each table's
    predicate and projection are pushed into its S3 Select scan, and
    *every* probe-side scan whose build key is an integer carries a
    Bloom predicate — inner probes included, which is what bushy
    snowflake plans profit from.
    """
    from repro.optimizer.joinorder import JoinOrderSearch, build_join_graph

    graph = build_join_graph(catalog, query)
    search = JoinOrderSearch(
        ctx, catalog, graph, query,
        extra_refs=frozenset(prepared.extra_refs) if prepared is not None
        else frozenset(),
    )
    if force_order is not None:
        order = list(force_order)
        if sorted(order) != sorted(graph.table_names()):
            raise PlanError(
                f"join order {order} does not cover tables"
                f" {graph.table_names()}"
            )
        for i in range(1, len(order)):
            if not graph.edges_between(order[i], set(order[:i])):
                raise PlanError(
                    f"join order {order} is not connected at {order[i]!r}"
                )
        tree = search.left_deep_tree(order)
    elif shape is not None:
        tree = search.build_tree(shape)
    else:
        tree = search.search().tree

    optimized = mode != "baseline"
    if not optimized:
        tree = _as_baseline_tree(tree)
    _mark_spine(tree)
    label = physical.join_tree_label(tree)

    deferred = [
        edge.to_expr() for edge in _collect_extra_edges(tree)
    ]
    residual = _and_join(deferred + _split_conjuncts(graph.residual))
    node: physical.PlanNode = tree
    adaptive_node = None
    if (
        mode == "adaptive"
        and isinstance(tree, HashJoinNode)
        and _all_hash_joins(tree)
        and len(_leaf_scans(tree)) >= 3
    ):
        # Mid-flight re-optimization needs at least three relations (two
        # leave nothing to reorder) and a pure equi-join tree; the search
        # object rides along so re-plans price through the same
        # calibrated cost model the original plan did.
        adaptive_node = physical.AdaptiveJoinNode(
            tree, search, ctx.adaptive_threshold
        )
        node = adaptive_node
    if residual is not None:
        node = FilterNode(node, residual)
    names = [
        column
        for leaf in _leaf_scans(tree)
        for column in leaf.columns
    ]
    extra_tables: list[TableInfo] = []
    if prepared is not None:
        node, names, extra_tables = _apply_sub_joins(
            ctx, node, names, prepared, mode
        )
    root = attach_local_tail(node, query, names)
    return PhysicalPlan(
        root=root, mode=mode,
        strategy=f"{mode} multi-join ({label})",
        scan_tables=[leaf.table for leaf in _leaf_scans(tree)] + extra_tables,
        combined_label=None if optimized else "load+join",
        adaptive_node=adaptive_node,
    )


def _leaf_scans(tree: physical.PlanNode) -> list[ScanNode]:
    if isinstance(tree, ScanNode):
        return [tree]
    return [leaf for child in tree.children() for leaf in _leaf_scans(child)]


def _all_hash_joins(tree: physical.PlanNode) -> bool:
    """True when ``tree`` is scans composed purely by *inner* hash joins
    (adaptive re-planning may not reorder outer/semi/anti edges)."""
    if isinstance(tree, ScanNode):
        return True
    if isinstance(tree, HashJoinNode):
        return (
            tree.join_type == "inner"
            and tree.match_cond is None
            and _all_hash_joins(tree.build)
            and _all_hash_joins(tree.probe)
        )
    return False


def _collect_extra_edges(tree: physical.PlanNode) -> list:
    if isinstance(tree, ScanNode):
        return []
    extra = list(getattr(tree, "extra_edges", ()))
    for child in tree.children():
        extra.extend(_collect_extra_edges(child))
    return extra


def _as_baseline_tree(tree: physical.PlanNode) -> physical.PlanNode:
    """Rebuild a search tree for baseline mode: GET scans, no Blooms."""
    if isinstance(tree, ScanNode):
        twin = ScanNode(
            tree.table, list(tree.table.schema.names), tree.predicate,
            pushdown=False, phase_label=tree.phase_label,
        )
        # Baseline scans carry no Bloom, so annotate with the pre-Bloom
        # filtered estimate — the optimized tree's est_rows may have
        # been reduced to the Bloom pass-rows.
        twin.est_rows = (
            tree.est_filtered_rows
            if tree.est_filtered_rows is not None
            else tree.est_rows
        )
        return twin
    build = _as_baseline_tree(tree.build)
    probe = _as_baseline_tree(tree.probe)
    if isinstance(tree, HashJoinNode):
        twin = HashJoinNode(
            build, probe, tree.build_key, tree.probe_key, bloom=False
        )
    else:
        twin = physical.CrossProductNode(build, probe)
    twin.est_rows = tree.est_rows
    twin.est_build_rows = tree.est_build_rows
    twin.est_probe_rows = tree.est_probe_rows
    twin.est_cpu = tree.est_cpu_plain
    twin.est_cpu_plain = tree.est_cpu_plain
    twin.extra_edges = list(tree.extra_edges)
    return twin


def _mark_spine(tree: physical.PlanNode) -> None:
    """Stream the root join's probe side; relabel its probe scan."""
    if isinstance(tree, (HashJoinNode, physical.CrossProductNode)):
        tree.stream_probe = True
        probe = tree.probe
        if isinstance(probe, ScanNode):
            probe.phase_label = f"probe-scan-{probe.table.name}"
