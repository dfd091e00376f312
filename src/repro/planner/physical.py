"""The executor: one run / observe / drain path for every plan.

A :class:`PhysicalPlan` is a tree of
:class:`~repro.planner.nodes.PlanNode` objects (:mod:`repro.planner.nodes`,
:mod:`repro.planner.joins`, the paper strategies' leaves) plus the init
plans that run before its root.  :func:`execute_plan` runs it under the
execution contract of :mod:`repro.planner.nodes` — every node through
:meth:`ExecState.run`, the one place a node is timed and counted — and
assembles its phases under the plan's policy; :func:`plan_records` walks
it once for EXPLAIN's lines (:func:`render_plan`) and, after the run,
for what each node observed (the execution's
:class:`~repro.planner.report.ExecutionReport`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.metrics import Phase
from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.operators.base import BatchCounter, CpuTally
from repro.planner.joins import AdaptiveJoinNode, JoinNode, MaterializedNode
from repro.planner.nodes import LimitNode, PlanNode, ScanNode, output_rows, q_error
from repro.planner.report import (
    AdaptiveReport,
    CacheCounters,
    ExecutionReport,
    NodeRecord,
)
from repro.sqlparser import ast
from repro.strategies.scans import phase_since

if TYPE_CHECKING:
    from repro.optimizer.cost import StrategyEstimate
    from repro.optimizer.joinorder import JoinOrderDecision


# ----------------------------------------------------------------------
# execution state: the one run / observe / drain path
# ----------------------------------------------------------------------

@dataclass
class ExecState:
    """Mutable state threaded through one plan execution, and the entry
    through which every node runs its children."""

    ctx: CloudContext
    #: True for plans metered as one phase (``load+join``, ``select+join``):
    #: scans skip per-scan phases; the executor builds that one instead.
    combined: bool = False
    tally: CpuTally = field(default_factory=CpuTally)
    phases: list[Phase] = field(default_factory=list)
    #: The streaming scan's phase, built once its stream is drained — at
    #: the root for the spine, at the drain for any other scan.
    pending: Callable[[], Phase] | None = None
    #: ``$n`` -> the value init plan ``n`` produced (see :class:`InitPlan`).
    params: dict[int, ast.Literal] = field(default_factory=dict)
    #: The node :meth:`drain` ran last: a scan that finds itself here is
    #: drained at once, so it keeps its responses' batch boundaries.
    draining: PlanNode | None = None

    def bind(self, expr: ast.Expr | None) -> ast.Expr | None:
        """``expr`` with every ``$n`` bound to init plan ``n``'s value."""
        if expr is None or not self.params:
            return expr
        return ast.map_expr(expr, lambda node: (
            self.params[node.index] if isinstance(node, ast.Param) else None
        ))

    def run(self, node: PlanNode) -> tuple[list[str], Iterator[Batch]]:
        """Run ``node``: the one place a node is timed and counted.

        ``wall_seconds`` covers the :meth:`PlanNode.run` call (the
        requests a leaf issues up front, the drain of a pipeline breaker)
        and every pull of the stream it returns; ``actual_rows`` counts
        the rows that stream yields.  A node's children run inside its
        clock, so its own share is a subtraction (:func:`plan_records`).
        A node past a LIMIT cut-off whose stream is never pulled keeps
        ``actual_rows`` at ``None``.
        """
        start = perf_counter()
        names, stream = node.run(self)
        node.wall_seconds = perf_counter() - start
        return names, _observed(node, stream)

    def drain(self, node: PlanNode) -> tuple[list[str], list[Batch]]:
        """Run a subtree to completion now (hash-build sides, non-spine
        probes); returns (names, batches).  The streaming scan the subtree
        started, if any, ends here: its phase is appended now."""
        outer, self.pending = self.pending, None
        self.draining = node
        names, stream = self.run(node)
        batches = list(stream)
        if self.pending is not None:
            self.phases.append(self.pending())
        self.pending = outer
        return names, batches

    def stream_phase(
        self, mark: int, label: str, streams: int, counter: BatchCounter,
        ncols: int,
    ) -> None:
        """Defer a streaming scan's phase until its ``counter`` has seen
        the stream drained (none inside a combined phase)."""
        if not self.combined:
            self.pending = lambda: phase_since(
                self.ctx, mark, label, streams=streams,
                ingest=(counter.rows, ncols),
            )


def _observed(node: PlanNode, stream: Iterable[Batch]) -> Iterator[Batch]:
    node.actual_rows = 0
    source = iter(stream)
    while True:
        start = perf_counter()
        batch = next(source, None)
        node.wall_seconds += perf_counter() - start
        if batch is None:
            return
        node.actual_rows += len(batch)
        yield batch


def walk_plan(
    node: PlanNode, complete: bool = True
) -> Iterator[tuple[PlanNode, bool]]:
    """Every node of a plan tree, pre-order (a materialized result's
    executed source included), with whether it ran to completion: a
    LIMIT above a node may have cut its stream short, so what it observed
    is a lower bound, not a measurement."""
    yield node, complete
    complete = complete and not isinstance(node, LimitNode)
    for child in node.children():
        yield from walk_plan(child, complete)


# ----------------------------------------------------------------------
# the plan object + the single recursive executor
# ----------------------------------------------------------------------

@dataclass
class PhysicalPlan:
    """A complete physical plan: operator tree + phase-assembly policy."""

    root: PlanNode
    mode: str
    strategy: str
    #: Phase name for plans whose scans load in parallel and meter as
    #: one whole-query phase (a baseline plan with two or more GET
    #: scans; two or more pushed scans with no Bloom, the paper's
    #: filtered join): a GET scan ingests its whole table by formula, a
    #: pushed scan what it returned.  ``None`` = per-scan phases.
    combined_label: str | None = None
    #: The mid-flight re-optimization wrapper, when this is an adaptive
    #: plan (``mode="adaptive"`` over a 3+-way equi-join tree).
    adaptive_node: AdaptiveJoinNode | None = None
    #: The join-order search's outcome, when the search (rather than a
    #: forced shape or order) picked this plan's join tree.
    join_decision: JoinOrderDecision | None = None
    #: Predicted profile of the whole plan, init plans included, filled
    #: by :func:`repro.planner.costing.annotate_costs`; its
    #: ``total_cost`` is the root's ``est_cost``.
    estimate: StrategyEstimate | None = None
    #: Subquery legs, in the order they run — all before the root.
    init_plans: list[InitPlan] = field(default_factory=list)

    def describe(self) -> str:
        return render_plan(self)


@dataclass(eq=False)
class InitPlan:
    """A subquery leg: ``plan`` runs once, before the root of the plan
    listing it at ``index`` (PostgreSQL's InitPlan).  Its result batch
    feeds :class:`LegNode` leaves under ``names``, or — ``value`` being
    ``"scalar"``, ``"exists"`` or ``"not exists"`` — become the value
    bound to ``$index``; ``feeds`` says which, for EXPLAIN."""

    index: int
    plan: PhysicalPlan
    names: list[str]
    feeds: str
    value: str | None = None
    #: What its latest run returned, as one batch (``None`` until it runs).
    batch: Batch | None = None

    def describe(self) -> str:
        return (
            f"init plan {self.index} ({self.plan.mode},"
            f" est_rows={output_rows(self.plan.root):.1f}, feeds {self.feeds})"
        )

    def param(self) -> ast.Literal:
        """The value ``$index`` is bound to, from the result of the run."""
        batch = self.batch
        if self.value == "scalar":
            if len(batch) > 1:
                raise PlanError(
                    "a scalar subquery must produce one column and at most"
                    " one row"
                )
            return ast.Literal(batch.columns[0][0] if len(batch) else None)
        return ast.Literal(bool(len(batch)) != (self.value == "not exists"))


def execute_plan(ctx: CloudContext, plan: PhysicalPlan) -> QueryExecution:
    """Run the plan — its init plans, then its root — meter it, and
    finalize the execution.

    This is the single executor behind every planner path.  Each init plan
    runs first, through the same routine as the root's plan (own state,
    phase policy, CPU tally, harvest), and bills to this execution, its
    phases ahead of the root's.  The root is drained into one batch,
    whose rows are the execution's;
    phases are assembled per the plan's policy; all accumulated local CPU
    lands on the final phase; the execution's ``report`` records what
    each node observed (:func:`plan_records`).
    """
    return _execute(ctx, plan)[0]


def _execute(
    ctx: CloudContext, plan: PhysicalPlan, outer: dict | None = None
) -> tuple[QueryExecution, Batch]:
    # Init plans recurse here, not into ``execute_plan``: tracers wrap
    # that one from outside and count each query once.  An init plan's
    # tree and times are reported under its query's root; it keeps its
    # result as the one batch the root drained into, and binds the
    # ``$n`` of the ones before it (``outer``; a magic set reads them).
    mark = ctx.begin_query()
    phases: list[Phase] = []
    params: dict[int, ast.Literal] = dict(outer or {})
    for init in plan.init_plans:
        leg, init.batch = _execute(ctx, init.plan, outer=params)
        phases += leg.phases
        if init.value is not None:
            params[init.index] = init.param()
    state = ExecState(ctx, combined=plan.combined_label is not None, params=params)
    # The combined phase spans only the root's own requests.
    query_mark = ctx.metrics.mark()
    names, stream = state.run(plan.root)
    result = Batch.concat(list(stream), len(names))
    nodes = [node for node, _ in walk_plan(plan.root)]
    if plan.combined_label is not None:
        # GET scans ingest whole tables whatever the pipeline pulled;
        # pushed scans ingest the rows and columns they returned, and a
        # cache replay nothing.
        scans = [n for n in nodes if isinstance(n, ScanNode)
                 and n.cache_status not in ("hit", "subsumed")]
        ingest = [
            (n.actual_rows or 0, len(n.columns)) if n.pushdown
            else (n.table.num_rows, len(n.table.schema))
            for n in scans
        ]
        n_records = sum(records for records, _ in ingest)
        n_fields = sum(records * width for records, width in ingest)
        phases.append(phase_since(
            ctx, query_mark, plan.combined_label,
            streams=sum(n.table.partitions for n in scans),
            server_cpu_seconds=state.tally.seconds,
            ingest=(n_records, n_fields / max(n_records, 1)),
        ))
    else:
        phases += state.phases
        if state.pending is not None:
            phases.append(state.pending())
        phases[-1].server_cpu_seconds += state.tally.seconds
    execution = ctx.finalize(
        mark, list(result.iter_rows()), names, phases, strategy=plan.strategy
    )
    records = plan_records(plan)
    # Close the loop: every measured cardinality becomes a learned
    # estimate for the rest of the session, for free.
    from repro.optimizer.feedback import harvest_plan

    harvest_plan(ctx.feedback, plan.root)
    cache = None
    result_cache = ctx.result_cache
    if result_cache is not None:
        # Same walk, other direction: fully-drained pushed scans and
        # aggregates become reusable cache entries (LIMIT-cut subtrees
        # excluded), and the per-query outcome counters surface next to
        # the session totals.
        from repro.optimizer.cache import harvest_plan as harvest_cache

        stored = harvest_cache(result_cache, plan.root)
        statuses = Counter(getattr(node, "cache_status", None) for node in nodes)
        cache = CacheCounters(
            statuses["hit"], statuses["subsumed"], statuses["miss"], stored,
            result_cache.stats.summary(),
        )
    adaptive = plan.adaptive_node
    execution.report = ExecutionReport(
        records,
        adaptive=None if adaptive is None else AdaptiveReport(
            adaptive.threshold, adaptive.replans, tuple(adaptive.events)
        ),
        cache=cache,
        extras={k: v for node in nodes for k, v in (node.extras or {}).items()},
    )
    return execution, result


def runner(build_plan: Callable[..., PhysicalPlan]) -> Callable[..., QueryExecution]:
    """A plan constructor's public runner: same arguments, the plan built
    and executed — what it runs is what a chooser would have priced."""

    @wraps(build_plan)
    def run(ctx: CloudContext, *args, **kwargs) -> QueryExecution:
        return execute_plan(ctx, build_plan(ctx, *args, **kwargs))

    return run


# ----------------------------------------------------------------------
# EXPLAIN rendering + estimate-vs-actual feedback
# ----------------------------------------------------------------------

def render_plan(plan: PhysicalPlan) -> str:
    """ASCII tree of the plan with per-node estimate annotations (EXPLAIN):
    the lines of :func:`plan_records`."""
    return "\n".join(record.line for record in plan_records(plan))


def plan_records(plan: PhysicalPlan) -> tuple[NodeRecord, ...]:
    """One :class:`~repro.planner.report.NodeRecord` per node, pre-order,
    from one walk of the plan — EXPLAIN's lines and, once the plan ran,
    what each node observed.

    Each init plan's tree hangs under the root, ahead of the root's
    children, tagged with its mode, output estimate and what it feeds;
    the root's ``est_cost`` covers them (they run first).  A node's
    ``seconds`` is its own clock plus the subtrees of its init plans and
    of its :class:`MaterializedNode` children, whose work ran earlier on
    another node's clock; ``self_seconds`` subtracts its other children's
    ``seconds``.
    """
    records: list[NodeRecord | None] = []

    def visit(node: PlanNode, depth: int, prefix: str, tag: str,
              indent: str, init_plans: Sequence[InitPlan]) -> float:
        """Record the subtree; return its ``seconds``."""
        at = len(records)
        records.append(None)
        tags = ("build: ", "probe: ") if isinstance(node, JoinNode) else ("", "")
        kids = [(f"{init.describe()}: ", init.plan.root, init.plan.init_plans)
                for init in init_plans]
        kids += [(tags[i > 0], child, ()) for i, child in enumerate(node.children())]
        inside = earlier = 0.0
        for i, (kid_tag, child, inits) in enumerate(kids):
            last = i == len(kids) - 1
            seconds = visit(
                child, depth + 1, indent + ("`- " if last else "+- "), kid_tag,
                indent + ("   " if last else "|  "), inits,
            )
            if i < len(init_plans) or isinstance(child, MaterializedNode):
                earlier += seconds
            else:
                inside += seconds
        est, rows, wall = node.est_rows, node.actual_rows, node.wall_seconds
        notes = [] if est is None else [f"est_rows={est:.1f}"]
        if node.est_cost is not None:
            notes.append(f"est_cost=${node.est_cost:.6g}")
        materialized = isinstance(node, MaterializedNode)
        own = None if wall is None or materialized else wall - inside
        records[at] = NodeRecord(
            prefix, tag, node.describe(), f"  ({', '.join(notes)})" if notes else "",
            depth, est_rows=None if est is None else round(est, 1), actual_rows=rows,
            q_error=None if est is None or rows is None else round(q_error(est, rows), 3),
            seconds=None if own is None else wall + earlier, self_seconds=own,
            rows_per_sec=round(rows / own) if rows and (own or 0.0) > 0.0 else None,
        )
        if materialized:
            return inside
        return earlier if wall is None else wall + earlier

    visit(plan.root, 0, "", "", "", plan.init_plans)
    return tuple(records)
