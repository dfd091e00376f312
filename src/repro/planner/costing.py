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
from typing import Sequence

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.optimizer.cost import _phase, price_phases
from repro.planner.joins import MaterializedNode
from repro.planner.nodes import PlanNode
from repro.planner.physical import PhysicalPlan, walk_plan


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
    phase of that name, each part keeping its own lanes (the executor
    meters one lane per request, so the slowest lane is the slowest
    part's, not their average); a GET scan ingests its whole table, a
    pushed scan still consults the cache.  ``stored`` are the scans the
    query's earlier legs leave in a session cache (:func:`init_phases`),
    which a scan here replays.  A node must not change its estimates
    once priced.
    """

    def __init__(self, ctx: CloudContext, combined_label: str | None = None, stored=()):
        self.ctx = ctx
        self.combined_label = combined_label
        self.stored = stored
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
                    phases = node.predicted_phases(
                        self.ctx, self.combined_label is not None, self.stored
                    )
                for child in children:
                    cpus, more = self._walk(child)
                    pending, phases = _charge(pending, phases, cpus)
                    phases = phases + more
                cpu = (node.est_cpu,) if node.est_cpu else ()
                pending, phases = _charge(pending, phases, cpu)
            parts = self._parts[node] = pending, phases
        return parts

    def phases(self, node: PlanNode, before: Sequence[Phase] = ()) -> list[Phase]:
        """The predicted phases of ``node``'s subtree, priced on its own
        or — ``before``, its plan's init phases — after them.  CPU spent
        before the subtree's first phase of its own lands where the
        executor bills it: on a copy of the last earlier phase, or, with
        none (every input already materialized, as in a mid-flight
        replan candidate), on a zero-IO ``local`` phase.  A combined
        phase carries all of its plan's CPU itself."""
        pending, phases = self._walk(node)
        if pending and (self.combined_label is not None or not before):
            phases = _charge((), [_phase("local", 1, requests=0.0)], pending)[1] + phases
            pending = ()
        if self.combined_label is not None and phases:
            phases = [Phase(
                self.combined_label,
                tuple(lane for p in phases for lane in p.streams),
                server_cpu_seconds=sum(p.server_cpu_seconds for p in phases),
                server_records=sum(p.server_records for p in phases),
                server_fields=sum(p.server_fields for p in phases),
            )]
        if not before:
            return phases
        return _charge((), list(before), pending)[1] + phases

    def phase_time(self, phase: Phase) -> float:
        """``ctx.perf.phase_time``, once per phase object (the memo holds
        the phase, so its ``id`` is not reused)."""
        hit = self._times.get(id(phase))
        if hit is None:
            hit = self._times[id(phase)] = (phase, self.ctx.perf.phase_time(phase))
        return hit[1]


def init_phases(plan: PhysicalPlan, ctx: CloudContext, stored: list | None = None) -> list[Phase]:
    """The predicted phases of ``plan``'s init plans, in the order they
    run — each a whole plan (:func:`plan_phases`), replaying in a session
    cache what the legs before it store: ``stored`` gains each leg's
    :meth:`~repro.planner.nodes.PlanNode.stores`."""
    stored, phases = [] if stored is None else stored, []
    for init in plan.init_plans:
        phases += plan_phases(init.plan, ctx, stored)[1]
        stored += [key for n, _ in walk_plan(init.plan.root) for key in n.stores()]
    return phases


def plan_phases(
    plan: PhysicalPlan, ctx: CloudContext, stored: list | None = None
) -> tuple[CostWalk, list[Phase]]:
    """The predicted phases of ``plan`` as the executor meters them: its
    init phases, then its root's under its own phase policy
    (:meth:`CostWalk.phases` after them); and the walk that priced the
    root, whose memo prices any of its subtrees."""
    stored = [] if stored is None else stored
    before = init_phases(plan, ctx, stored)
    costs = CostWalk(ctx, plan.combined_label, tuple(stored))
    return costs, costs.phases(plan.root, before)


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
    costs, phases = plan_phases(plan, ctx)

    def walk(node: PlanNode, phases: list[Phase] | None = None):
        for child in node.children():
            walk(child)
        phases = costs.phases(node) if phases is None else phases
        if not phases:
            return None
        notes = {"plan": plan.strategy}
        estimate = price_phases(ctx, name, phases, notes, costs.phase_time)
        node.est_cost = estimate.total_cost
        return estimate

    plan.estimate = walk(plan.root, phases)
