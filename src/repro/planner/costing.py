"""The one cost walk: plan tree -> predicted phases -> seconds and dollars.

:class:`CostWalk` predicts the :class:`~repro.cloud.metrics.Phase` objects
:func:`execute_plan` would meter for a plan subtree and prices them
through :func:`repro.optimizer.cost.price_phases`.  The ``auto`` mode
chooser and the paper-strategy chooser (whole plans, via
:func:`annotate_costs`), the join-order DP and the adaptive re-planner
(one walk per search) and EXPLAIN's ``est_cost`` all price through it.

One memoized bottom-up walk, copy-on-charge: a node's phases are its
children's, concatenated, with its own CPU charged to a *copy* of the
last one, computed once per node object; each phase is timed once.  No
phase changes once made, and totals sum the same phases in the same
order, so every number is bit-identical to pricing each subtree alone.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.optimizer.cost import _phase, price_phases
from repro.planner.joins import MaterializedNode
from repro.planner.nodes import PlanNode
from repro.planner.physical import PhysicalPlan


def _charge(pending: tuple, phases: list[Phase], cpus: tuple) -> tuple[tuple, list[Phase]]:
    """``cpus`` added one at a time to a copy of the last phase, or to
    ``pending`` (charged to whatever phase precedes) while there is none."""
    if not (cpus and phases):
        return pending + cpus, phases
    cpu = phases[-1].server_cpu_seconds
    for c in cpus:
        cpu += c
    return pending, [*phases[:-1], replace(phases[-1], server_cpu_seconds=cpu)]


class CostWalk:
    """Predicted phases of plan subtrees, each node walked once.

    The phases each leaf says its own ``run`` appends
    (:meth:`~repro.planner.nodes.PlanNode.predicted_phases`), and every
    operator's ``est_cpu`` charged to the last phase emitted before it
    completes.  ``combined_label`` is the plan's phase policy
    (:attr:`PhysicalPlan.combined_label`): all scans and local CPU as one
    phase of that name, whose scans do not consult the cache.  A node
    must not change its estimates once priced.
    """

    def __init__(self, ctx: CloudContext, combined_label: str | None = None):
        self.ctx = ctx
        self.combined_label = combined_label
        self._parts: dict[PlanNode, tuple[tuple, list[Phase]]] = {}
        self._times: dict[int, tuple[Phase, float]] = {}

    def _walk(self, node: PlanNode) -> tuple[tuple, list[Phase]]:
        """The CPU the subtree charges before its first phase, and its phases."""
        parts = self._parts.get(node)
        if parts is None:
            pending, phases = (), []
            if not isinstance(node, MaterializedNode):  # else: already billed
                children = node.children()
                if not children:
                    phases = node.predicted_phases(self.ctx, self.combined_label is not None)
                for child in children:
                    cpus, more = self._walk(child)
                    pending, phases = _charge(pending, phases, cpus)
                    phases = phases + more
                cpu = (node.est_cpu,) if node.est_cpu else ()
                pending, phases = _charge(pending, phases, cpu)
            parts = self._parts[node] = pending, phases
        return parts

    def phases(self, node: PlanNode) -> list[Phase]:
        """The predicted phases of ``node``'s subtree, priced on its own."""
        pending, phases = self._walk(node)
        if pending:
            # Every input already materialized (mid-flight replan
            # candidates, derived tables): the CPU is still future work —
            # carry it on a zero-IO phase.
            phases = _charge((), [_phase("local", 1, requests=0.0)], pending)[1] + phases
        if self.combined_label is None or not phases:
            return phases
        return [_phase(
            self.combined_label,
            sum(len(p.streams) for p in phases),
            scan_bytes=sum(p.select_scan_bytes for p in phases),
            returned_bytes=sum(p.select_returned_bytes for p in phases),
            get_bytes=sum(p.get_bytes for p in phases),
            term_evals=sum(s.term_evals for p in phases for s in p.streams),
            cpu_seconds=sum(p.server_cpu_seconds for p in phases),
            records=sum(p.server_records for p in phases),
            fields=sum(p.server_fields for p in phases),
        )]

    def phase_time(self, phase: Phase) -> float:
        """``ctx.perf.phase_time``, once per phase object (the memo holds
        the phase, so its ``id`` is not reused)."""
        hit = self._times.get(id(phase))
        if hit is None:
            hit = self._times[id(phase)] = (phase, self.ctx.perf.phase_time(phase))
        return hit[1]


def init_phases(plan: PhysicalPlan, ctx: CloudContext) -> list[Phase]:
    """The predicted phases of ``plan``'s init plans, in the order they
    run — each a whole plan under its own phase policy."""
    return [
        phase
        for init in plan.init_plans
        for phase in init_phases(init.plan, ctx)
        + CostWalk(ctx, init.plan.combined_label).phases(init.plan.root)
    ]


def annotate_costs(
    plan: PhysicalPlan, ctx: CloudContext, name: str | None = None
) -> None:
    """Price ``plan``: ``est_cost`` on every node, ``estimate`` on the plan.

    Each node's ``est_cost`` is the cumulative cost of its subtree under
    the plan's phase policy (one walk prices them all); the root's also
    covers the init plans, which run before it, so it is the whole
    query's, and the full profile behind it (requests, bytes, runtime) is
    kept as ``plan.estimate`` — the candidate a chooser ranks, called
    ``name`` (default: the plan's strategy; the SQL chooser's candidates
    are modes).
    """
    name = name or plan.strategy
    costs = CostWalk(ctx, plan.combined_label)

    def walk(node: PlanNode, before: list[Phase]):
        for child in node.children():
            walk(child, [])
        phases = before + costs.phases(node)
        if not phases:
            return None
        notes = {"plan": plan.strategy}
        estimate = price_phases(ctx, name, phases, notes, costs.phase_time)
        node.est_cost = estimate.total_cost
        return estimate

    plan.estimate = walk(plan.root, init_phases(plan, ctx))
