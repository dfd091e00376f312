"""The one cost walker: plan tree -> predicted phases -> seconds and dollars.

:func:`predicted_phases` turns a :mod:`repro.planner.physical` subtree
into the :class:`~repro.cloud.metrics.Phase` objects :func:`execute_plan`
would meter for it, from estimates instead of measurements;
:func:`repro.optimizer.cost.price_phases` prices them through the
context's own PerfModel and Pricing.  Everything that predicts the cost
of a plan goes through this pair: the ``auto`` mode chooser and the
paper-strategy chooser (whole plans, via :func:`annotate_costs`), the
join-order DP and the adaptive re-planner (candidate join subtrees) and
EXPLAIN's per-node ``est_cost``.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.optimizer.cost import _phase, price_phases
from repro.planner.physical import (
    MaterializedNode,
    PhysicalPlan,
    PlanNode,
    PushedAggregateNode,
    ScanNode,
)
from repro.sqlparser import ast


def _pruned_scan_profile(
    n: ScanNode | PushedAggregateNode,
) -> tuple[int, float, float]:
    """(streams, scanned bytes, scanned-row fraction) after pruning.

    Exact per-partition sizes and row counts are used when the catalog
    has them; tables registered by hand fall back to a pro-rata split so
    the prediction still shrinks with the partition count.
    """
    keep = n.keep_partitions
    total = max(n.table.partitions, 1)
    if keep is None:
        return n.table.partitions, float(n.table.total_bytes), 1.0
    sizes = n.table.partition_bytes
    if len(sizes) == n.table.partitions:
        scan_bytes = float(sum(sizes[i] for i in keep))
    else:
        scan_bytes = float(n.table.total_bytes) * len(keep) / total
    counts = n.table.partition_rows
    if len(counts) == n.table.partitions and n.table.num_rows:
        row_frac = sum(counts[i] for i in keep) / n.table.num_rows
    else:
        row_frac = len(keep) / total
    return len(keep), scan_bytes, row_frac


def predicted_phases(
    node: PlanNode, ctx: CloudContext, combined_label: str | None = None
) -> list[Phase]:
    """Assemble the predicted phases of a plan subtree, node by node.

    Mirrors what :func:`~repro.planner.physical.execute_plan` meters for
    the same tree: one phase per scan or pushed aggregate (pruned
    request streams; Bloom-reduced returned rows where a parent join
    attached a Bloom predicate), the phases a leaf says its own ``run``
    appends (:meth:`PlanNode.predicted_phases`: the paper strategies'
    index fetch, pushed group-bys and threshold sample), and every
    operator's local CPU (``est_cpu``: filters, joins, the group-by /
    sort / top-K / projection tail) charged to the last phase emitted
    before it completes.

    ``combined_label`` is the plan's phase policy
    (:attr:`PhysicalPlan.combined_label`): baseline join plans and the
    paper's filtered join meter all their scans and all local CPU as
    one phase of that name.

    When ``ctx`` carries a warm semantic cache, pushdown scans and
    aggregates that would answer from it are priced at zero requests
    and bytes — the chooser and the join-order DP therefore *prefer*
    cacheable plans exactly when the cache would fire (never inside a
    combined phase, whose scans do not consult it).
    """
    combined = combined_label is not None
    cache = None if combined else ctx.result_cache
    phases: list[Phase] = []

    def charge(cpu: float) -> None:
        if not cpu:
            return
        if not phases:
            # Every input already materialized (mid-flight replan
            # candidates, derived tables): the CPU is still future work
            # and must not vanish from the ranking — carry it on a
            # zero-IO phase.
            phases.append(_phase("local", 1, requests=0.0))
        phases[-1].server_cpu_seconds += cpu

    def walk(n: PlanNode) -> None:
        if isinstance(n, MaterializedNode):
            # Already executed (and billed): contributes no future work.
            return
        children = n.children()
        if not children:
            phases.extend(n.predicted_phases(ctx))
        if isinstance(n, PushedAggregateNode):
            items = n.query.select_items
            if cache is not None and cache.peek_aggregate(
                n.table.name, n.query.where, n.item_signatures()
            ) is not None:
                phases.append(_phase("pushed-aggregate", 1, requests=0.0))
                return
            streams, scan_bytes, row_frac = _pruned_scan_profile(n)
            phases.append(_phase(
                "pushed-aggregate", streams,
                scan_bytes=scan_bytes,
                returned_bytes=streams * len(items) * 12.0,
                term_evals=n.table.num_rows * row_frac
                * (len(items) + len(ast.split_conjuncts(n.query.where))),
            ))
            return
        if isinstance(n, ScanNode):
            stats = n.table.stats_or_default()
            est = (
                n.est_rows if n.est_rows is not None
                else float(n.table.num_rows)
            )
            if n.pushdown:
                if (
                    cache is not None
                    and n.bloom_attr is None
                    and cache.peek_scan(
                        n.table.name, n.predicate, n.columns
                    ) is not None
                ):
                    # Replay is local: no requests, no scanned bytes,
                    # no server-side ingest.
                    phases.append(_phase(n.phase_label, 1, requests=0.0))
                    return
                streams, scan_bytes, row_frac = _pruned_scan_profile(n)
                phases.append(_phase(
                    n.phase_label, streams,
                    scan_bytes=scan_bytes,
                    returned_bytes=est * stats.projected_row_bytes(n.columns),
                    term_evals=n.est_terms * row_frac,
                    records=est,
                    fields=est * max(len(n.columns), 1),
                ))
            else:
                raw = n.table.num_rows
                # A combined phase ingests whole tables by formula; a
                # lone streaming GET scan ingests what its filter keeps.
                ingested = raw if combined else est
                phases.append(_phase(
                    n.phase_label, n.table.partitions,
                    get_bytes=float(n.table.total_bytes),
                    cpu_seconds=(
                        raw * SERVER_CPU_PER_ROW["filter"]
                        if n.predicate is not None else 0.0
                    ),
                    records=ingested,
                    fields=ingested * len(n.table.schema),
                ))
            return
        for child in children:
            walk(child)
        charge(n.est_cpu)

    walk(node)
    if combined and phases:
        return [_phase(
            combined_label,
            sum(len(p.streams) for p in phases),
            scan_bytes=sum(p.select_scan_bytes for p in phases),
            returned_bytes=sum(p.select_returned_bytes for p in phases),
            get_bytes=sum(p.get_bytes for p in phases),
            term_evals=sum(s.term_evals for p in phases for s in p.streams),
            cpu_seconds=sum(p.server_cpu_seconds for p in phases),
            records=sum(p.server_records for p in phases),
            fields=sum(p.server_fields for p in phases),
        )]
    return phases


def init_phases(plan: PhysicalPlan, ctx: CloudContext) -> list[Phase]:
    """The predicted phases of ``plan``'s init plans, in the order they
    run — each a whole plan under its own phase policy."""
    return [
        phase
        for init in plan.init_plans
        for phase in init_phases(init.plan, ctx)
        + predicted_phases(init.plan.root, ctx, init.plan.combined_label)
    ]


def annotate_costs(
    plan: PhysicalPlan, ctx: CloudContext, name: str | None = None
) -> None:
    """Price ``plan``: ``est_cost`` on every node, ``estimate`` on the plan.

    Each node's ``est_cost`` is the cumulative cost of its subtree under
    the plan's phase policy; the root's also covers the init plans, which
    run before it, so it is the whole query's, and the full profile
    behind it (requests, bytes, runtime) is kept as ``plan.estimate`` —
    the candidate a chooser ranks, called ``name`` (default: the plan's
    strategy; the SQL chooser's candidates are modes).
    """
    name = name or plan.strategy

    def walk(node: PlanNode, before: list[Phase]):
        for child in node.children():
            walk(child, [])
        phases = before + predicted_phases(node, ctx, plan.combined_label)
        if not phases:
            return None
        estimate = price_phases(ctx, name, phases, {"plan": plan.strategy})
        node.est_cost = estimate.total_cost
        return estimate

    plan.estimate = walk(plan.root, init_phases(plan, ctx))
