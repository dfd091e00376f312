"""The one cost walker: plan tree -> predicted phases -> seconds and dollars.

:func:`predicted_phases` turns a plan subtree into the
:class:`~repro.cloud.metrics.Phase` objects :func:`execute_plan` would
meter for it, from estimates instead of measurements;
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
from repro.optimizer.cost import _phase, price_phases
from repro.planner.joins import MaterializedNode
from repro.planner.nodes import PlanNode
from repro.planner.physical import PhysicalPlan


def predicted_phases(
    node: PlanNode, ctx: CloudContext, combined_label: str | None = None
) -> list[Phase]:
    """Assemble the predicted phases of a plan subtree, node by node.

    Mirrors what :func:`~repro.planner.physical.execute_plan` meters for
    the same tree: the phases each leaf says its own ``run`` appends
    (:meth:`~repro.planner.nodes.PlanNode.predicted_phases`: a scan's or
    pushed aggregate's pruned request streams, with Bloom-reduced
    returned rows where a parent join attached a Bloom predicate and
    zero requests where a warm semantic cache would answer; the paper
    strategies' index fetch, pushed group-bys and threshold sample), and
    every operator's local CPU (``est_cpu``: filters, joins, the
    group-by / sort / top-K / projection tail) charged to the last phase
    emitted before it completes.

    ``combined_label`` is the plan's phase policy
    (:attr:`PhysicalPlan.combined_label`): baseline join plans and the
    paper's filtered join meter all their scans and all local CPU as
    one phase of that name (whose scans do not consult the cache).
    """
    combined = combined_label is not None
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
            phases.extend(n.predicted_phases(ctx, combined))
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
