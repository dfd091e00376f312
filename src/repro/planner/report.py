"""The execution report: what one executed query observed, as one record.

The executor builds one :class:`ExecutionReport` per query from one
pre-order walk of the executed plan (``physical.plan_records``) and hangs
it on ``QueryExecution.report``.  This module renders it (EXPLAIN
ANALYZE, the blocks of ``QueryExecution.explain()``) and builds the
read-only ``details`` mapping that readers outside the package index.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One plan node, as EXPLAIN draws it and as it ran.

    ``prefix`` + ``tag`` (``build: ``, ``probe: `` or an init plan's
    header) + ``node`` (its ``describe()``) + ``annotation`` is its
    EXPLAIN line.  ``seconds`` is what the subtree spent producing its
    output, ``self_seconds`` the node's own share (a tree's self times
    sum to its root's ``seconds``).  A materialized replay reports no
    times; a node whose stream was never pulled (past a LIMIT), no rows.
    """

    prefix: str
    tag: str
    node: str
    annotation: str
    depth: int
    est_rows: float | None = None
    actual_rows: int | None = None
    q_error: float | None = None
    seconds: float | None = None
    self_seconds: float | None = None
    rows_per_sec: int | None = None

    @property
    def line(self) -> str:
        return f"{self.prefix}{self.tag}{self.node}{self.annotation}"


@dataclass(frozen=True, slots=True)
class AdaptiveReport:
    """Mid-flight re-optimization: the Q-error threshold, the re-plans
    that fired, one event per completed pipeline breaker."""

    threshold: float
    replans: int
    events: tuple[dict, ...]


@dataclass(frozen=True, slots=True)
class CacheCounters:
    """This query's semantic-cache outcomes and stores; session totals."""

    hit: int
    subsumed: int
    miss: int
    stores: int
    session: dict


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """Per-node records; the chooser's ``Choice.summary()`` when one
    picked the plan; the adaptive events; the cache counters; and the
    ``extras`` strategy leaves and runners publish."""

    nodes: tuple[NodeRecord, ...] = ()
    optimizer: dict | None = None
    adaptive: AdaptiveReport | None = None
    cache: CacheCounters | None = None
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def plan(self) -> str:
        return "\n".join(record.line for record in self.nodes)

    def with_extras(self, **extras) -> ExecutionReport:
        return replace(self, extras={**self.extras, **extras})

    def as_details(self) -> Mapping[str, object]:
        """The record as one read-only string-keyed mapping: the extras,
        then ``plan``, ``actuals``, ``operator_times``, ``adaptive``,
        ``cache`` and ``optimizer`` when present."""
        view = dict(self.extras)
        if self.nodes:
            view["plan"] = self.plan
            view["actuals"] = [
                {"node": r.node, "depth": r.depth, "est_rows": r.est_rows,
                 "actual_rows": r.actual_rows, "q_error": r.q_error}
                for r in self.nodes
            ]
            view["operator_times"] = [
                {"node": r.node, "depth": r.depth, "seconds": r.seconds,
                 "self_seconds": r.self_seconds, "rows": r.actual_rows,
                 "rows_per_sec": r.rows_per_sec}
                for r in self.nodes
            ]
        if self.adaptive is not None:
            view["adaptive"] = {
                **asdict(self.adaptive), "events": list(self.adaptive.events)
            }
        if self.cache is not None:
            view["cache"] = asdict(self.cache)
        if self.optimizer is not None:
            view["optimizer"] = self.optimizer
        return MappingProxyType(view)

    def explain_lines(self) -> list[str]:
        """What ``QueryExecution.explain()`` prints after the phases (the
        optimizer's candidate table is the chooser's to render)."""
        lines = []
        if self.extras:
            lines.append("  extras: " + ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v!r}"
                for k, v in self.extras.items()
            ))
        adaptive = self.adaptive
        if adaptive is not None:
            lines.append(
                f"  adaptive: threshold={adaptive.threshold:g}"
                f" replans={adaptive.replans}"
            )
            if adaptive.events:
                lines.append(
                    f"    {'materialized':<28} {'est rows':>10} {'actual':>8}"
                    f" {'q-error':>8}  outcome"
                )
            for event in adaptive.events:
                est = event["est_rows"]
                outcome = (
                    f"re-planned: {event['old_tree']} -> {event['new_tree']}"
                    if event["replanned"] else event.get("note", "kept")
                )
                lines.append(
                    f"    {'+'.join(event['tables']):<28}"
                    f" {'-' if est is None else f'{est:.1f}':>10}"
                    f" {event['actual_rows']:>8} {event['q_error']:>8.2f}  {outcome}"
                )
        if self.cache is not None:
            cache = self.cache
            session = " ".join(f"{k}={v}" for k, v in cache.session.items())
            lines.append(
                f"  cache: hit={cache.hit} subsumed={cache.subsumed}"
                f" miss={cache.miss} stores={cache.stores} (session: {session})"
            )
        if self.nodes:
            lines.append("  plan:")
            lines += ["    " + record.line for record in self.nodes]
            lines += ["  " + line for line in _table_lines(self.nodes)]
        return lines


def render_execution_report(execution) -> str:
    """Estimate-vs-actual table for an executed plan (EXPLAIN ANALYZE):
    per node the estimate, the observed rows, their Q-error (what
    ``mode="adaptive"`` re-plans on), its time and rows per second."""
    return "\n".join([
        f"physical plan: {execution.strategy}",
        *_table_lines(execution.report.nodes),
    ])


def _table_lines(nodes: tuple[NodeRecord, ...]) -> list[str]:
    width = min(max(max(len("  " * r.depth + r.node) for r in nodes), 20), 72)
    lines = [
        f"  {'operator':<{width}} {'est rows':>12} {'actual':>10}"
        f" {'q-error':>8} {'time':>9} {'rows/s':>10}"
    ]
    for r in nodes:
        name = ("  " * r.depth + r.node)[:width]
        est = f"{r.est_rows:.1f}" if r.est_rows is not None else "-"
        actual = str(r.actual_rows) if r.actual_rows is not None else "-"
        q_error = f"{r.q_error:.2f}" if r.q_error is not None else "-"
        time_s = f"{r.seconds * 1000:.1f}ms" if r.seconds is not None else "-"
        rate = f"{r.rows_per_sec:,}" if r.rows_per_sec is not None else "-"
        lines.append(
            f"  {name:<{width}} {est:>12} {actual:>10} {q_error:>8}"
            f" {time_s:>9} {rate:>10}"
        )
    return lines
