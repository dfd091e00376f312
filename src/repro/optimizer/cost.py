"""Pricing predicted work through the execution layer's own math.

A prediction is a list of :class:`~repro.cloud.metrics.Phase` objects —
the same objects the executor meters, filled with expected instead of
measured requests, scanned / returned / transferred bytes, S3-side term
evaluations, query-node ingest and local CPU (:func:`_phase`).
:func:`price_phases` turns them into seconds and dollars through the
*same* :class:`~repro.cloud.perf.PerfModel` and
:class:`~repro.cloud.pricing.Pricing` the context bills with, so a
calibrated context (paper-scale rates, scaled pricing, weighted ranged
GETs) calibrates every prediction too.  Which phases a plan will meter
is the cost walker's business (:mod:`repro.planner.costing`) and, for
the paper strategies' leaves, the node's own ``predicted_phases``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase, RequestKind, RequestRecord, StreamWork
from repro.cloud.pricing import CostBreakdown, cost_of_query


@dataclass(frozen=True)
class StrategyEstimate:
    """Predicted execution profile of one candidate strategy."""

    strategy: str
    requests: float
    bytes_scanned: float
    bytes_returned: float
    bytes_transferred: float
    runtime_seconds: float
    cost: CostBreakdown
    notes: dict = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.cost.total


def objective_key(objective: str):
    """Sort key ranking estimates under an optimization objective.

    Shared by the strategy chooser and the join-order search so both
    rank (and tie-break) candidates identically.
    """
    if objective == "runtime":
        return lambda e: (e.runtime_seconds, e.total_cost)
    return lambda e: (e.total_cost, e.runtime_seconds)


def _phase(
    name: str,
    streams: int,
    *,
    scan_bytes: float = 0.0,
    returned_bytes: float = 0.0,
    get_bytes: float = 0.0,
    term_evals: float = 0.0,
    requests: float | None = None,
    cpu_seconds: float = 0.0,
    records: float = 0.0,
    fields: float = 0.0,
) -> Phase:
    """A predicted phase: totals spread evenly over ``streams`` lanes.

    The lanes are equal, so the phase holds one :class:`StreamWork`
    repeated ``n`` times (``(lane,) * n``): every total and the slowest
    lane come out exactly as they would over ``n`` separate copies.
    """
    n = max(int(streams), 1)
    if requests is None:
        requests = float(n)
    lane = StreamWork(
        requests=requests / n,
        select_scan_bytes=scan_bytes / n,
        select_returned_bytes=returned_bytes / n,
        get_bytes=get_bytes / n,
        term_evals=term_evals / n,
    )
    return Phase(
        name=name,
        streams=(lane,) * n,
        server_cpu_seconds=cpu_seconds,
        server_records=records,
        server_fields=fields,
    )


def price_phases(
    ctx: CloudContext, strategy: str, phases: list[Phase],
    notes: dict | None = None, phase_time=None,
) -> StrategyEstimate:
    """Price predicted phases through ``ctx``'s PerfModel and Pricing.

    The one place predicted work becomes seconds and dollars: the plan
    cost walker (:mod:`repro.planner.costing`) and the join-order search
    end here, so a calibrated context calibrates every prediction.
    ``phase_time`` (default ``ctx.perf.phase_time``) times one phase.
    """
    runtime = sum(map(phase_time or ctx.perf.phase_time, phases))
    requests = sum(p.requests for p in phases)
    scanned = sum(p.select_scan_bytes for p in phases)
    returned = sum(p.select_returned_bytes for p in phases)
    transferred = sum(p.get_bytes for p in phases)
    synthetic = RequestRecord(
        kind=RequestKind.SELECT,
        bucket="",
        key="",
        bytes_scanned=int(scanned),
        bytes_returned=int(returned),
        bytes_transferred=int(transferred),
        weight=requests,
    )
    cost = cost_of_query([synthetic], runtime, ctx.pricing)
    return StrategyEstimate(
        strategy=strategy,
        requests=requests,
        bytes_scanned=scanned,
        bytes_returned=returned,
        bytes_transferred=transferred,
        runtime_seconds=runtime,
        cost=cost,
        notes=notes or {},
    )
