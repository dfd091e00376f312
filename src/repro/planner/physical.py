"""The explicit physical-plan IR: one operator tree for everything.

The plan is a first-class tree of :class:`PlanNode` objects that

* a **single recursive executor** (:func:`execute_plan`) walks, yielding
  ``Batch`` streams bottom-up through the streaming operator functions;
* the **cost walker** prices (:func:`repro.planner.costing.predicted_phases`
  assembles the same :class:`~repro.cloud.metrics.Phase` objects the
  executor meters — the mode chooser, the join-order search and the
  per-node ``est_cost`` annotations all read from it);
* **EXPLAIN** renders (:func:`render_plan`), including per-node
  ``est_rows`` / ``est_cost`` annotations; after execution the same walk
  (:func:`plan_records`) adds observed cardinalities, Q-errors and times
  to the execution's :class:`~repro.planner.report.ExecutionReport`.

Execution contract:

* every node runs through one entry (:func:`_run_node`), which times its
  ``run`` call and every pull of its stream and counts the rows it
  yields — no node keeps a clock of its own;
* a scan issues its requests when it runs and appends its phase once
  its stream is drained: a **drained** scan (hash-build sides, non-spine
  probes) at once, the one **streaming** scan on the pipeline spine when
  the root drains, so its ingest accounting reflects what was actually
  pulled (LIMIT early-exit);
* in ``baseline`` mode for joins, all scans collapse into one
  ``load+join`` phase whose ingest is the whole-table formula;
* all local-operator CPU accumulates into one :class:`CpuTally` charged
  to the final phase;
* a plan's init plans (subquery legs) run first, each as a plan of its
  own; :class:`LegNode` leaves read their rows, ``$n`` their values.

Join trees may be **bushy** (both sides of a join may themselves be
joins), carry Bloom predicates on **inner** (non-outermost) probe scans,
and fall back to **cross products** for small disconnected FROM lists.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.bloom.filter import BloomBuildOutcome, BloomPushdown, membership_clauses
from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.batch import Batch, rechunk_batches
from repro.engine.catalog import TableInfo
from repro.engine.operators.base import BatchCounter, CpuTally, materialize
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import group_by_batches
from repro.engine.operators.hashjoin import hash_join_batches, index_of
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches, projected_names
from repro.engine.operators.sort import sort_batches
from repro.engine.operators.topk import top_k_batches
from repro.planner.report import (
    AdaptiveReport,
    CacheCounters,
    ExecutionReport,
    NodeRecord,
)
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.strategies.scans import (
    iter_scan_batches,
    merge_sum_partials,
    phase_since,
    projection_sql,
    scan_partitions,
    select_aggregate,
)

if TYPE_CHECKING:
    from repro.bloom.filter import PushedClause
    from repro.optimizer.cost import StrategyEstimate
    from repro.optimizer.joinorder import JoinOrderDecision


# ----------------------------------------------------------------------
# execution state
# ----------------------------------------------------------------------

@dataclass
class _PendingScan:
    """A streaming scan's phase, finalized once its stream is drained —
    at the root for the spine, at the drain for any other scan."""

    mark: int
    label: str
    streams: int
    counter: BatchCounter
    ncols: int

    def phase(self, ctx: CloudContext) -> Phase:
        return phase_since(
            ctx, self.mark, self.label, streams=self.streams,
            ingest=(self.counter.rows, self.ncols),
        )


@dataclass
class ExecState:
    """Mutable state threaded through one plan execution."""

    ctx: CloudContext
    #: True for baseline join plans: scans skip per-scan phases; the
    #: executor builds one whole-query ``load+join`` phase instead.
    combined: bool = False
    tally: CpuTally = field(default_factory=CpuTally)
    phases: list[Phase] = field(default_factory=list)
    pending: _PendingScan | None = None
    #: ``$n`` -> the value init plan ``n`` produced (see :class:`InitPlan`).
    params: dict[int, ast.Literal] = field(default_factory=dict)

    def bind(self, expr: ast.Expr | None) -> ast.Expr | None:
        """``expr`` with every ``$n`` bound to init plan ``n``'s value."""
        if expr is None or not self.params:
            return expr
        return ast.map_expr(expr, lambda node: (
            self.params[node.index] if isinstance(node, ast.Param) else None
        ))


def one_batch(rows: list[tuple], names: Sequence[str]) -> Iterator[Batch]:
    """A materialized result handed downstream as a one-batch stream."""
    return iter([Batch.from_rows(rows, len(names))])


# ----------------------------------------------------------------------
# plan nodes
# ----------------------------------------------------------------------

class PlanNode:
    """One operator in the physical plan tree.

    Annotation fields (filled by the plan builder / join-order search):

    * ``est_rows`` — estimated output cardinality;
    * ``est_cost`` — estimated cumulative dollar cost of the subtree,
      priced through the context's PerfModel + Pricing;
    * ``est_cpu`` — estimated local CPU seconds of this operator alone
      (joins, the local tail and the paper strategies' filters; scans
      and leaves price their own phases);
    * ``actual_rows`` — observed output cardinality (estimate-vs-actual
      feedback for EXPLAIN);
    * ``wall_seconds`` — measured wall-clock of the node's :meth:`run`
      call and of every pull of its stream, children included (``None``
      until the node runs);
    * ``extras`` — what a node publishes about its run (matched rows,
      pushed groups, a sampled threshold, ...); :func:`execute_plan`
      merges it into the execution report's ``extras``.

    ``actual_rows`` and ``wall_seconds`` are written by the executor
    (:func:`_run_node`), never by a node: :meth:`run` only returns its
    column names and batch stream.
    """

    est_rows: float | None = None
    est_cost: float | None = None
    est_cpu: float = 0.0
    actual_rows: int | None = None
    wall_seconds: float | None = None
    extras: dict | None = None

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def predicted_phases(self, ctx: CloudContext) -> list[Phase]:
        """A leaf's estimate of the phases its own :meth:`run` appends
        (a scan's own phase excepted: the cost walker prices that)."""
        return []

    def run(self, state: ExecState) -> tuple[list[str], Iterator[Batch]]:
        """Execute this subtree, returning (column names, batch stream)."""
        raise NotImplementedError


class _TableLeaf(PlanNode):
    """A leaf over one table's partitions: zone-map pruning, cache outcome.

    ``keep_partitions`` are the partitions that survive zone-map
    refutation of the leaf's predicate at plan time (``None``: all of
    them); ``cache_status`` is the semantic-cache outcome
    (``hit``/``subsumed``/``miss``), ``None`` when no cache was consulted
    — so EXPLAIN output on cache-free sessions is unchanged.  ``bound``
    is the predicate this run evaluates (:meth:`bind`).
    """

    table: TableInfo
    keep_partitions: list[int] | None = None
    cache_status: str | None = None
    bound: ast.Expr | None = None

    def bind(
        self, state: ExecState, predicate: ast.Expr | None, prune: bool = True
    ) -> None:
        """Bind ``predicate``'s ``$n`` for this run into :attr:`bound` (the
        statements, the GET filter and the cache key read it).  One that
        held a ``$n`` is refuted again with its value, which plan time
        could not know."""
        self.bound = state.bind(predicate)
        if self.bound is not predicate and prune and state.ctx.prune_partitions:
            self._prune(self.bound)

    def _prune(self, predicate: ast.Expr | None) -> None:
        if predicate is not None:
            from repro.optimizer.pruning import keep_partitions

            self.keep_partitions = keep_partitions(self.table, predicate)

    @property
    def pruned_partitions(self) -> int:
        """How many partitions zone-map refutation eliminated."""
        if self.keep_partitions is None:
            return 0
        return self.table.partitions - len(self.keep_partitions)

    def _effective_partitions(self) -> tuple[list[int] | None, int]:
        """(surviving indices or None, request-stream count): decided
        when the plan was built — what the cost walker priced is what the
        leaf requests, whatever the context says by then — unless a
        ``$n``'s value refuted more (:meth:`bind`)."""
        if self.keep_partitions is None:
            return None, self.table.partitions
        return self.keep_partitions, len(self.keep_partitions)

    def _explain_tail(self) -> str:
        text = ""
        if self.pruned_partitions:
            text += (
                f" partitions pruned:"
                f" {self.pruned_partitions}/{self.table.partitions}"
            )
        if self.cache_status is not None:
            text += f" cache: {self.cache_status}"
        return text


class ScanNode(_TableLeaf):
    """Leaf: scan one table, either pushed down or GET + local filter.

    ``columns`` is the scan's output.  A pushed scan projects them
    S3-side, so they are also what is returned and ingested.  A GET scan
    only *decodes* them (what the plan above reads, plus whatever its own
    local predicate reads): the request still transfers whole objects
    and its phase still ingests the full schema width, so the column
    list changes no metered number.
    """

    def __init__(
        self,
        table: TableInfo,
        columns: Sequence[str],
        predicate: ast.Expr | None,
        pushdown: bool,
        phase_label: str | None = None,
        prune: bool = True,
    ):
        self.table = table
        self.columns = list(columns)
        self.predicate = predicate
        self.pushdown = pushdown
        self.phase_label = phase_label or f"scan-{table.name}"
        #: Probe-key attribute a parent join blooms this scan on (the
        #: join builds the clauses at run time from its build rows and
        #: hands them to :meth:`run` as ``pushed``).
        self.bloom_attr: str | None = None
        #: Estimated S3-side term evaluations (WHERE conjuncts per scanned
        #: row; a parent join adds its Bloom hashes), for the cost model.
        self.est_terms: float = (
            float(table.num_rows * len(ast.split_conjuncts(predicate)))
            if pushdown else 0.0
        )
        self.tables: frozenset = frozenset((table.name,))
        # Baseline GET scans never prune (they are the paper's
        # whole-table reference point).
        if prune and pushdown:
            self._prune(predicate)
        self.bound = predicate
        #: The drained stream a cache miss retained, for :meth:`flush_cache`.
        self._cache_batches: list[Batch] | None = None

    def describe(self) -> str:
        """The EXPLAIN line; ``cols=`` is the width a ``select`` scan
        projects or a ``get`` scan decodes (not the width a GET bills)."""
        how = "select" if self.pushdown else "get"
        if self.bloom_attr:
            how += f"+bloom({self.bloom_attr})"
        text = f"scan {self.table.name} [{how}] cols={len(self.columns)}"
        if self.predicate is not None:
            text += f" pred=({self.predicate.to_sql()})"
        return text + self._explain_tail()

    def _cacheable(self, state: ExecState, pushed: Sequence[PushedClause] | None):
        """The session cache, when this scan may consult/populate it.

        Only plain pushdown scans participate: Bloom-annotated scans
        carry run-time-dependent predicates, and combined (baseline
        join) executions are the paper's unmetered-per-scan reference
        point.
        """
        if (
            not self.pushdown
            or self.bloom_attr is not None
            or pushed is not None
            or state.combined
        ):
            return None
        return state.ctx.result_cache

    def _replay(
        self, state: ExecState, reuse
    ) -> Iterator[Batch]:
        """Cached batches, through the delta filter on a subsumed hit."""
        stream: Iterable[Batch] = iter(reuse.batches)
        if reuse.delta is not None:
            stream = filter_batches(
                stream, reuse.names, self.bound, state.tally
            )
        if reuse.extra:
            width = len(self.columns)
            stream = (Batch(b.columns[:width], len(b)) for b in stream)
        return iter(stream)

    def _tee_cache(self, stream: Iterator[Batch], drained: bool) -> Iterator[Batch]:
        """Retain the yielded batches once the stream drains — a drained
        scan's as one batch: entries are sized per batch, and eviction
        order must not depend on partition count."""
        buffer: list[Batch] = []
        for batch in stream:
            buffer.append(batch)
            yield batch
        if drained:
            buffer = [Batch.from_rows(materialize(buffer), len(self.columns))]
        self._cache_batches = buffer

    def flush_cache(self, cache) -> int:
        """Store the teed stream if it fully drained; 1 if stored."""
        if self._cache_batches is None:
            return 0
        batches = self._cache_batches
        self._cache_batches = None
        stored = cache.store_scan(
            self.table.name, self.bound, self.columns, batches
        )
        return 1 if stored else 0

    def scan_sqls(self, pushed: Sequence[PushedClause] | None = None) -> list[str]:
        """The scan's statements: its projection and :attr:`bound`
        predicate, once — or once per ``pushed`` clause a parent join ANDs
        on (a Bloom predicate, or the ``IN`` lists partitioning its key
        set)."""
        own = [self.bound.to_sql()] if self.bound is not None else []
        return [
            projection_sql(self.columns, " AND ".join(own + extra) or None)
            for extra in ([[clause] for clause in pushed] if pushed else [[]])
        ]

    def _statements(self, pushed: Sequence[PushedClause] | None):
        """:meth:`scan_sqls` prepared, each text with the tree it parses to
        (left-deep over ``own AND clause``'s conjuncts) — built, not parsed."""
        own = [self.bound] if self.bound is not None else []
        items = tuple(column_items(self.columns))
        for sql, clause in zip(self.scan_sqls(pushed), pushed or [None]):
            where = ast.and_join(own + ast.split_conjuncts(clause and clause.expr))
            yield PreparedSelect(sql, query=ast.Query(
                items or (ast.SelectItem(ast.Star()),), "S3Object", where
            ))

    def run(
        self,
        state: ExecState,
        pushed: Sequence[PushedClause] | None = None,
        drained: bool = False,
    ):
        """Requests issue now; the phase is finalized once the stream is
        drained — at the root for the pipeline's spine, at the drain for
        a hash-build side or a non-spine probe (``drained``) — so ingest
        reflects the rows actually pulled."""
        ctx = state.ctx
        mark = ctx.metrics.mark()
        names = list(self.columns)
        self.bind(state, self.predicate, prune=self.pushdown)
        cache = self._cacheable(state, pushed)
        if cache is not None:
            reuse = cache.lookup_scan(self.table.name, self.bound, self.columns)
            if reuse is not None:
                self.cache_status = reuse.status
                # Zero metered requests: nothing was issued since the
                # mark, so the phase carries streams but no records.
                state.phases.append(
                    phase_since(ctx, mark, self.phase_label, streams=1)
                )
                return names, self._replay(state, reuse)
            self.cache_status = "miss"
        if self.pushdown:
            keep, streams = self._effective_partitions()
            # Every statement's requests are issued before the first
            # batch.  A streamed scan re-cuts each statement's responses
            # to ``batch_size`` (ingest under LIMIT counts whole
            # batches); a drained one hands them over as they came.
            responses = [
                chain.from_iterable(scan_partitions(
                    ctx, self.table, statement, partitions=keep
                ))
                for statement in self._statements(pushed)
            ]
            if not drained:
                responses = [
                    rechunk_batches(batches, ctx.batch_size)
                    for batches in responses
                ]
            stream = chain.from_iterable(responses)
            width = len(self.columns)
        else:
            stream = filter_batches(
                iter_scan_batches(ctx, self.table, columns=names), names,
                self.bound, state.tally,
            )
            # Billed at the full row width, whatever was decoded.
            streams, width = self.table.partitions, len(self.table.schema)
        counter = BatchCounter(stream)
        if not state.combined:
            state.pending = _PendingScan(
                mark, self.phase_label, streams, counter, width
            )
        if cache is None:
            return names, iter(counter)
        return names, self._tee_cache(iter(counter), drained)


def whole_table_select(
    table: TableInfo,
    columns: Sequence[str] | None = None,
    predicate: ast.Expr | None = None,
    phase_label: str | None = None,
    bloom_attr: str | None = None,
    est_rows: float | None = None,
) -> ScanNode:
    """A pushed scan as the paper's strategies issue it: ``columns``
    (default: all) of every partition — never zone-map pruned, their
    numbers are the whole-table reference.  ``bloom_attr`` lets a join
    above ship its build keys into the WHERE clause; ``est_rows`` is the
    builder's estimate of the rows returned."""
    scan = ScanNode(
        table, table.schema.names if columns is None else columns, predicate,
        pushdown=True, phase_label=phase_label, prune=False,
    )
    scan.bloom_attr = bloom_attr
    scan.est_rows = est_rows
    return scan


class PushedAggregateNode(_TableLeaf):
    """Leaf: a fully-pushable additive aggregate (SUM/COUNT shapes).

    Pruning the WHERE clause's refuted partitions is sound for additive
    aggregates: a refuted partition can only contribute NULL/zero
    partials, which ``merge_sum_partials`` ignores anyway; at least one
    partition always survives so the result row keeps its shape.
    """

    def __init__(
        self,
        table: TableInfo,
        query: ast.Query,
        prune: bool = True,
        phase_label: str = "pushed-aggregate",
    ):
        self.table = table
        self.query = query
        self.phase_label = phase_label
        self.est_rows = 1.0
        self.tables: frozenset = frozenset((table.name,))
        if prune:
            self._prune(query.where)
        self._cache_partials: list[list] | None = None

    def describe(self) -> str:
        items = ", ".join(i.to_sql() for i in self.query.select_items)
        return f"pushed-aggregate {self.table.name} [{items}]" + self._explain_tail()

    def item_signatures(self) -> list[str]:
        """Alias-insensitive signature of each pushed aggregate item."""
        return [item.expr.to_sql() for item in self.query.select_items]

    def flush_cache(self, cache) -> int:
        """Store the retained per-partition partials; 1 if stored."""
        if self._cache_partials is None:
            return 0
        partials = self._cache_partials
        self._cache_partials = None
        stored = cache.store_aggregate(
            self.table.name, self.bound, self.item_signatures(), partials,
        )
        return 1 if stored else 0

    def run(self, state: ExecState):
        ctx = state.ctx
        mark = ctx.metrics.mark()
        out_names = [
            item.output_name(i)
            for i, item in enumerate(self.query.select_items, start=1)
        ]
        self.bind(state, self.query.where)
        cache = ctx.result_cache if not state.combined else None
        reuse = None if cache is None else cache.lookup_aggregate(
            self.table.name, self.bound, self.item_signatures()
        )
        if reuse is not None:
            self.cache_status = reuse.status
            partials, streams = reuse.partials, 1
        else:
            pushed = ast.Query(
                select_items=self.query.select_items, table="S3Object",
                where=self.bound,
            )
            keep, streams = self._effective_partitions()
            partials = select_aggregate(
                ctx, self.table, PreparedSelect(pushed.to_sql(), query=pushed),
                partitions=keep,
            )
            if cache is not None:
                self.cache_status = "miss"
                self._cache_partials = [list(row) for row in partials]
        merged = merge_sum_partials(partials)
        state.phases.append(phase_since(
            ctx, mark, self.phase_label, streams=streams
        ))
        return out_names, one_batch([tuple(merged)], out_names)


class HashJoinNode(PlanNode):
    """Equi hash join: build side materializes, probe side streams.

    ``stream_probe`` marks the plan's spine join (the outermost one):
    its probe child streams batch-by-batch through the rest of the
    pipeline.  Inner joins materialize both children, pick the hash
    build side from the *actual* row counts, as the chained executor
    always did, and probe with the other side as one batch.  ``bloom``
    ships the build keys into the probe scan's WHERE clause when the
    probe child is a pushdown scan annotated with ``bloom_attr`` —
    including inner (non-outermost) probes, which the left-deep chain
    executor could never do.
    """

    def __init__(
        self,
        build: PlanNode,
        probe: PlanNode,
        build_key: str,
        probe_key: str,
        bloom: BloomPushdown | None = None,
        stream_probe: bool = False,
        join_type: str = "inner",
        match_cond: ast.Expr | None = None,
        provenance: str | None = None,
    ):
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.bloom = bloom
        #: What a Bloom join shipped (``None`` until it runs): the
        #: clauses and outcome of :func:`membership_clauses`, and how
        #: many non-NULL build keys went in.
        self.bloom_clauses: list[str] | None = None
        self.bloom_outcome: BloomBuildOutcome | None = None
        self.bloom_keys = 0
        self.stream_probe = stream_probe
        #: inner | left | semi | anti | anti_null (see operators.hashjoin).
        self.join_type = join_type
        #: Residual ON/correlation condition evaluated per candidate
        #: (build_row + probe_row) pair before it counts as a match.
        self.match_cond = match_cond
        #: Where this join came from, for EXPLAIN (e.g. "decorrelated
        #: EXISTS", "LEFT OUTER JOIN").
        self.provenance = provenance
        #: Estimated rows this node itself emits when extra equi edges
        #: are deferred to the plan's residual filter: ``est_rows``
        #: folds every crossing edge's selectivity in (the quantity the
        #: DP ranks with), but the hash join only applies its own edge,
        #: so the materialized count is compared against this instead.
        self.est_out_rows: float | None = None
        #: Equality edges beyond the hash edge, deferred to a residual
        #: filter above the join tree.
        self.extra_edges: list = []
        self.tables: frozenset = getattr(build, "tables", frozenset()) | getattr(
            probe, "tables", frozenset()
        )

    def children(self):
        return (self.build, self.probe)

    def describe(self) -> str:
        tag = " streamed" if self.stream_probe else ""
        kind = "" if self.join_type == "inner" else f"{self.join_type} "
        cond = f" on ({self.match_cond.to_sql()})" if self.match_cond else ""
        src = f" ({self.provenance})" if self.provenance else ""
        return (
            f"{kind}hash-join [{self.build_key} = {self.probe_key}]"
            f"{cond}{tag}{src}"
        )

    def _pushed_membership(
        self, build_names, build: list[Batch], state: ExecState
    ) -> list[PushedClause] | None:
        """The clauses shipping the build keys to the probe scan (one
        scan each; none = the ladder ended unfiltered), or ``None`` when
        this join pushes nothing."""
        if self.join_type not in ("inner", "semi"):
            # Left/anti joins must see every probe row: a Bloom filter on
            # the probe scan would drop exactly the rows they preserve.
            return None
        probe = self.probe
        if not (self.bloom and isinstance(probe, ScanNode)
                and probe.pushdown and probe.bloom_attr):
            return None
        idx = index_of(build_names, self.build_key)
        keys = [
            k for batch in build for k in batch.column(idx) if k is not None
        ]
        if not keys and not self.bloom.when_empty:
            return None
        if self.bloom.insert_cpu:
            # The build scan's phase was appended when it drained.
            state.phases[-1].server_cpu_seconds += (
                len(keys) * self.bloom.insert_cpu
            )
        self.bloom_keys = len(keys)
        probe.bind(state, probe.predicate)
        self.bloom_clauses, self.bloom_outcome = membership_clauses(
            keys, probe.bloom_attr, probe.scan_sqls()[0], self.bloom
        )
        return self.bloom_clauses

    def _match_pred(self, build_names, probe_names, state: ExecState):
        if self.match_cond is None:
            return None
        from repro.expr.compiler import compile_predicate

        combined = [*build_names, *probe_names]
        return compile_predicate(
            state.bind(self.match_cond),
            {name: i for i, name in enumerate(combined)},
        )

    def run(self, state: ExecState):
        build_names, build = _drain_node(self.build, state)
        pushed = self._pushed_membership(build_names, build, state)
        build_key, probe_key = self.build_key, self.probe_key
        if self.stream_probe:
            probe_names, probe = _run_node(self.probe, state, pushed)
        else:
            probe_names, probe = _drain_node(self.probe, state, pushed)
            # Inner joins hash the actually-smaller side, as the chained
            # executor did; Bloom placement stays per the plan's
            # orientation.  Non-inner joins (and residual match
            # conditions) have asymmetric sides, so the planned
            # orientation is kept.
            if self.join_type == "inner" and self.match_cond is None and sum(
                map(len, build)
            ) > sum(map(len, probe)):
                build, probe = probe, build
                build_names, probe_names = probe_names, build_names
                build_key, probe_key = probe_key, build_key
        return hash_join_batches(
            materialize(build), build_names, probe, probe_names,
            build_key, probe_key, state.tally,
            join_type=self.join_type,
            match_pred=self._match_pred(build_names, probe_names, state),
        )


class MaterializedNode(PlanNode):
    """A subtree that already executed: its rows live in memory.

    The adaptive executor replaces each pipeline breaker it finishes
    with one of these, so the *remaining* tree can be re-planned around
    a cardinality that is now a fact rather than an estimate.  Running
    one is free — no requests, no phases, no CPU — because everything
    was metered when the wrapped ``source`` subtree actually ran.
    """

    def __init__(self, rows: list[tuple], names: Sequence[str], source: PlanNode):
        self.rows = rows
        self.names = list(names)
        #: The executed subtree this result came from (reporting +
        #: feedback harvesting descend into it; execution does not).
        self.source = source
        self.tables: frozenset = source.tables
        self.est_rows = float(len(rows))

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def describe(self) -> str:
        label = "+".join(sorted(self.tables))
        return f"materialized[{label}] rows={len(self.rows)}"

    def run(self, state: ExecState):
        return list(self.names), one_batch(self.rows, self.names)


class LegNode(PlanNode):
    """Leaf: the rows of an init plan (a decorrelated build side, a
    derived table), which ran — and metered its work — before the root."""

    def __init__(self, leg: InitPlan):
        self.leg = leg
        self.est_rows = output_rows(leg.plan.root)

    def describe(self) -> str:
        return f"init plan {self.leg.index} [{', '.join(self.leg.names)}]"

    def run(self, state: ExecState):
        return list(self.leg.names), one_batch(self.leg.rows, self.leg.names)


class CrossProductNode(PlanNode):
    """Cartesian product for small disconnected FROM lists.

    The build side materializes; every probe-side batch fans out against
    it.  CPU is charged like a degenerate hash join: one build touch per
    build row, one probe touch per emitted row.
    """

    def __init__(self, build: PlanNode, probe: PlanNode,
                 stream_probe: bool = False):
        self.build = build
        self.probe = probe
        self.stream_probe = stream_probe
        self.extra_edges: list = []
        self.tables: frozenset = getattr(build, "tables", frozenset()) | getattr(
            probe, "tables", frozenset()
        )

    def children(self):
        return (self.build, self.probe)

    def describe(self) -> str:
        tag = " streamed" if self.stream_probe else ""
        return f"cross-product{tag}"

    def run(self, state: ExecState):
        build_names, build_rows = _materialize_node(self.build, state)
        state.tally.add_seconds(
            len(build_rows) * SERVER_CPU_PER_ROW["hash_build"]
        )
        if self.stream_probe:
            probe_names, probe_stream = _run_node(self.probe, state, None)
        else:
            probe_names, probe_stream = _drain_node(self.probe, state)
        out_names = [*build_names, *probe_names]
        if len(set(n.lower() for n in out_names)) != len(out_names):
            raise PlanError(
                f"cross product would produce duplicate column names:"
                f" {out_names}"
            )

        def product() -> Iterator[Batch]:
            per_row = SERVER_CPU_PER_ROW["hash_probe"]
            fan_out = range(len(build_rows))
            build_columns = Batch.from_rows(build_rows, len(build_names)).columns
            for batch in probe_stream:
                # Probe-major order: every build row against each probe row.
                n = len(batch) * len(build_rows)
                state.tally.add_seconds(n * per_row)
                yield Batch(
                    [col * len(batch) for col in build_columns]
                    + [[v for v in col for _ in fan_out] for col in batch.columns],
                    n,
                )

        return out_names, product()


class FilterNode(PlanNode):
    """Local predicate over the stream (residual cross-table filters, the
    paper's server-side filters; only the latter set an ``est_cpu``)."""

    def __init__(self, child: PlanNode, predicate: ast.Expr):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"filter [{self.predicate.to_sql()}]"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        return names, filter_batches(
            stream, names, state.bind(self.predicate), state.tally
        )


class ProjectNode(PlanNode):
    """Evaluate the select list per row (streaming); ``est_input`` rows."""

    def __init__(
        self,
        child: PlanNode,
        items: Sequence[ast.SelectItem],
        est_input: float = 0.0,
    ):
        self.child = child
        self.items = list(items)
        self.est_cpu = est_input * len(self.items) * SERVER_CPU_PER_ROW["filter"]

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(i.to_sql() for i in self.items)
        if len(rendered) > 60:
            rendered = rendered[:57] + "..."
        return f"project [{rendered}]"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        out_names = projected_names(names, self.items)
        return out_names, project_batches(stream, names, self.items, state.tally)


class GroupByNode(PlanNode):
    """Hash aggregation (pipeline breaker)."""

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[ast.Expr],
        agg_items: Sequence[ast.SelectItem],
    ):
        self.child = child
        self.group_exprs = tuple(group_exprs)
        self.agg_items = list(agg_items)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        groups = ", ".join(e.to_sql() for e in self.group_exprs) or "-"
        return f"group-by [{groups}] aggs={len(self.agg_items)}"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        out = state.tally.add(
            group_by_batches(stream, names, self.group_exprs, self.agg_items)
        )
        return out.column_names, one_batch(out.rows, out.column_names)


class SortNode(PlanNode):
    """Full sort (pipeline breaker)."""

    def __init__(self, child: PlanNode, order_by: Sequence[ast.OrderItem]):
        self.child = child
        self.order_by = tuple(order_by)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(o.to_sql() for o in self.order_by)
        return f"sort [{keys}]"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        out = state.tally.add(sort_batches(stream, names, self.order_by))
        return out.column_names, one_batch(out.rows, out.column_names)


class TopKNode(PlanNode):
    """ORDER BY + LIMIT as a bounded heap (pipeline breaker) over an
    estimated ``est_input`` rows."""

    def __init__(
        self,
        child: PlanNode,
        order_by: Sequence[ast.OrderItem],
        k: int,
        est_input: float = 0.0,
    ):
        self.child = child
        self.order_by = tuple(order_by)
        self.k = k
        self.est_cpu = (
            est_input * max(1.0, math.log2(max(k, 2))) * SERVER_CPU_PER_ROW["heap"]
        )

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(o.to_sql() for o in self.order_by)
        return f"top-k [{keys}] k={self.k}"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        out = state.tally.add(
            top_k_batches(stream, names, self.order_by, self.k)
        )
        return out.column_names, one_batch(out.rows, out.column_names)


class LimitNode(PlanNode):
    """Streaming LIMIT: stops pulling upstream once satisfied."""

    def __init__(self, child: PlanNode, n: int):
        self.child = child
        self.n = n

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"limit [{self.n}]"

    def run(self, state: ExecState):
        names, stream = _run_node(self.child, state)
        return names, limit_batches(stream, self.n)


def output_rows(node: PlanNode) -> float:
    """A subtree's estimated output rows: one for an aggregate without
    GROUP BY, else the first estimate down its first-child path (the
    local tail's nodes keep none of their own)."""
    while node.est_rows is None and node.children():
        if isinstance(node, GroupByNode) and not node.group_exprs:
            return 1.0
        node = node.children()[0]
    return node.est_rows or 0.0


def q_error(est: float | None, actual: int | None) -> float:
    """Smoothed quotient error: ``max((est+1)/(act+1), (act+1)/(est+1))``.

    1.0 is a perfect estimate; the +1 keeps empty results finite.  The
    one formula behind both the EXPLAIN-ANALYZE report column
    (:func:`plan_records`) and the adaptive executor's re-planning
    trigger, so the reported number is always the number that decided.
    """
    if est is None or actual is None:
        return 1.0
    e, a = est + 1.0, actual + 1.0
    return max(e / a, a / e)


def _next_adaptive_step(root: "HashJoinNode"):
    """The next materialization the static recursive executor would run.

    Mirrors :meth:`HashJoinNode.run` order exactly — build subtree fully
    first, then the probe subtree — so an adaptive execution in which no
    re-plan fires issues the same requests, in the same order, as the
    static plan.  Returns ``(action, join, parent)`` where ``action`` is
    ``"build_scan"`` (materialize ``join.build``, a leaf scan),
    ``"join"`` (both children ready; run the whole inner join) or
    ``"final"`` (only the streaming spine remains).
    """
    node, parent = root, None
    while True:
        build = node.build
        if isinstance(build, HashJoinNode):
            node, parent = build, node
            continue
        if not isinstance(build, MaterializedNode):
            return ("build_scan", node, parent)
        probe = node.probe
        if isinstance(probe, HashJoinNode):
            node, parent = probe, node
            continue
        if parent is None:
            return ("final", node, None)
        return ("join", node, parent)


class AdaptiveJoinNode(PlanNode):
    """Mid-flight re-optimizing wrapper around a multiway hash-join tree.

    Executes the planned tree on the same materialization schedule the
    recursive executor follows (deepest build first), checking each
    completed pipeline breaker's observed cardinality against its
    estimate.  While every Q-error stays at or under ``threshold`` the
    execution is byte-identical — rows, bytes, requests, runtime, cost —
    to the static plan.  When a build comes out badly misestimated, the
    observed cardinality is fed into the join-order search and the bushy
    DP re-runs over the *remaining* relations (the fresh materialization
    plus every not-yet-started scan); the winning tree is spliced in and
    execution continues.  Already-issued requests and billed bytes are
    never revisited: re-planning only reorders work not yet started.
    """

    def __init__(
        self,
        child: PlanNode,
        search,
        threshold: float,
        objective: str = "cost",
    ):
        self.child = child
        #: The session's :class:`~repro.optimizer.joinorder.JoinOrderSearch`,
        #: re-used for mid-flight DP runs (duck-typed to avoid a planner
        #: import cycle).
        self.search = search
        self.threshold = float(threshold)
        self.objective = objective
        self.events: list[dict] = []
        self.replans = 0
        self.est_rows = child.est_rows
        self.tables: frozenset = getattr(child, "tables", frozenset())
        #: Extra equi edges the *planned* tree deferred — the planner put
        #: them in the residual filter above this node.  A re-planned
        #: tree may defer different edges; the delta is applied here.
        self._known_extras = set(join_extra_edges(child))
        self._missing_residual: list = []

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"adaptive [threshold={self.threshold:g} replans={self.replans}]"

    def run(self, state: ExecState):
        tree = self.child
        if not isinstance(tree, HashJoinNode):
            return _run_node(tree, state)
        while True:
            action, join, parent = _next_adaptive_step(tree)
            if action == "final":
                break
            if action == "build_scan":
                scan = join.build
                names, rows = _materialize_node(scan, state)
                done = MaterializedNode(rows, names, scan)
                join.build = done
                tree = self._check(tree, done, scan.est_rows)
            else:
                names, rows = _materialize_node(join, state)
                done = MaterializedNode(rows, names, join)
                if parent.build is join:
                    parent.build = done
                else:
                    parent.probe = done
                # Joins with deferred extra equi edges emit *pre-residual*
                # rows; compare against the commensurate estimate so an
                # accurately-planned cyclic join never fires.
                est = (
                    join.est_out_rows
                    if join.est_out_rows is not None else join.est_rows
                )
                tree = self._check(tree, done, est)
        self.child = tree
        names, stream = _run_node(tree, state)
        if self._missing_residual:
            residual = ast.and_join(
                [edge.to_expr() for edge in self._missing_residual]
            )
            stream = filter_batches(stream, names, residual, state.tally)
        return names, stream

    def _check(
        self, tree: "HashJoinNode", done: MaterializedNode,
        est_rows: float | None,
    ) -> "HashJoinNode":
        """Record the estimate-vs-actual outcome; re-plan when it is bad."""
        q = q_error(est_rows, len(done.rows))
        event = {
            "tables": sorted(done.tables),
            "est_rows": round(est_rows, 1) if est_rows is not None else None,
            "actual_rows": len(done.rows),
            "q_error": round(q, 3),
            "replanned": False,
        }
        self.events.append(event)
        if q <= self.threshold:
            return tree
        leaves = join_leaves(tree)
        if len(leaves) < 3:
            event["note"] = "no alternative join order remains"
            return tree
        try:
            new_tree = self.search.replan_remaining(leaves, self.objective)
        except PlanError as exc:
            event["note"] = f"replan failed: {exc}"
            return tree
        old_shape, new_shape = serialize_shape(tree), serialize_shape(new_tree)
        if new_shape == old_shape:
            event["note"] = "replan confirmed the current tree"
            return tree
        mark_spine(new_tree)
        covered = self._known_extras | set(self._missing_residual)
        self._missing_residual.extend(
            edge for edge in join_extra_edges(new_tree) if edge not in covered
        )
        self.replans += 1
        event["replanned"] = True
        event["old_tree"] = join_tree_label(tree)
        event["new_tree"] = join_tree_label(new_tree)
        # The labels drop build / probe orientation; the shapes keep it,
        # so an orientation-only re-plan still shows what changed.
        event["old_shape"] = old_shape
        event["new_shape"] = new_shape
        return new_tree


def _run_node(node: PlanNode, state: ExecState, pushed=None, drained=False):
    """Run ``node``: the one place a node is timed and counted.

    ``wall_seconds`` covers the :meth:`PlanNode.run` call (the requests a
    leaf issues up front, the drain of a pipeline breaker) and every pull
    of the stream it returns; ``actual_rows`` counts the rows that stream
    yields.  A node's children run inside its clock, so its own share is
    a subtraction (:func:`plan_records`).  A node past a LIMIT
    cut-off whose stream is never pulled keeps ``actual_rows`` at
    ``None``.  ``pushed`` and ``drained`` (the caller drains the stream
    at once) are for a scan.
    """
    start = perf_counter()
    if isinstance(node, ScanNode):
        names, stream = node.run(state, pushed, drained)
    else:
        names, stream = node.run(state)
    node.wall_seconds = perf_counter() - start
    return names, _observed(node, stream)


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


def _drain_node(node: PlanNode, state: ExecState, pushed=None):
    """Run a subtree to completion now (hash-build sides, non-spine
    probes); returns (names, batches).

    The streaming scan the subtree started, if any, ends here: its phase
    is appended now, not at the root.
    """
    outer, state.pending = state.pending, None
    names, stream = _run_node(node, state, pushed, drained=True)
    batches = list(stream)
    if state.pending is not None:
        state.phases.append(state.pending.phase(state.ctx))
    state.pending = outer
    return names, batches


def _materialize_node(node: PlanNode, state: ExecState):
    """Drain a subtree into a row list (hash-build / cross-build sides)."""
    names, batches = _drain_node(node, state)
    return names, materialize(batches)


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
# the local tail (GROUP BY / ORDER BY / LIMIT), as plan nodes
# ----------------------------------------------------------------------

def agg_items(query: ast.Query) -> list[ast.SelectItem]:
    """Aggregate-bearing select items (group columns come from GROUP BY)."""
    return [
        item
        for item in query.select_items
        if not isinstance(item.expr, ast.Star)
        and ast.contains_aggregate(item.expr)
    ]


def unalias(expr: ast.Expr, select_items) -> ast.Expr:
    """Substitute output-alias references with their select expressions.

    Recurses through the whole expression (``ORDER BY k + l_tax`` with
    ``... AS k`` rewrites the ``k`` inside the sum), matching SQL's rule
    that ORDER BY names resolve against the select list first.
    """
    aliases = {
        item.alias.lower(): item.expr for item in select_items if item.alias
    }

    def substitute(column: ast.Column) -> ast.Expr:
        if column.table is None:
            replacement = aliases.get(column.name.lower())
            if replacement is not None:
                return replacement
        return column

    return ast.map_columns(expr, substitute)


def _rewrite_having(
    query: ast.Query, items: list[ast.SelectItem]
) -> tuple[ast.Expr, list[ast.SelectItem]]:
    """Rewrite HAVING into a predicate over the group-by output schema.

    Aggregates already produced by the select list become references to
    their output columns; aggregates appearing only in HAVING get hidden
    ``__having_N`` items (computed by the GroupByNode, filtered on, then
    projected away).  Group-key columns pass through by name.
    """
    having = unalias(query.having, query.select_items)
    known: list[tuple[ast.Expr, str]] = [
        (item.expr, item.output_name(ordinal))
        for ordinal, item in enumerate(items, start=1)
    ]
    hidden: list[ast.SelectItem] = []

    def rewrite(expr: ast.Expr) -> ast.Expr | None:
        for src, name in known:
            if expr == src:
                return ast.Column(name)
        if isinstance(expr, ast.Aggregate):
            name = f"__having_{len(hidden)}"
            hidden.append(ast.SelectItem(expr, alias=name))
            known.append((expr, name))
            return ast.Column(name)
        return None

    return ast.map_expr(having, rewrite), hidden


def _group_output_projection(
    query: ast.Query, items: list[ast.SelectItem], has_hidden: bool
) -> list[ast.SelectItem] | None:
    """Projection restoring select-list column order over group-by output.

    The GroupByNode always emits group keys first, then aggregate items;
    when the select list interleaves them (TPC-H Q3's ``key, SUM(...),
    date, priority``) — or hidden HAVING aggregates must be dropped — a
    ProjectNode reorders by output-column reference.  Returns ``None``
    when the group-by output already matches (the historical fast path,
    byte-identical to prior releases).
    """
    group_names = [
        g.name if isinstance(g, ast.Column) else f"group_{i}"
        for i, g in enumerate(query.group_by)
    ]
    visible = group_names + [
        item.output_name(ordinal) for ordinal, item in enumerate(items, start=1)
    ]
    proj: list[ast.SelectItem] = []
    for item in query.select_items:
        if not isinstance(item.expr, ast.Star) and ast.contains_aggregate(
            item.expr
        ):
            try:
                j = items.index(item)
            except ValueError:
                return None
            proj.append(ast.SelectItem(ast.Column(item.output_name(j + 1))))
        elif isinstance(item.expr, ast.Column):
            proj.append(ast.SelectItem(ast.Column(item.expr.name)))
        else:
            match = next(
                (i for i, g in enumerate(query.group_by) if g == item.expr),
                None,
            )
            if match is None:
                return None
            proj.append(ast.SelectItem(ast.Column(group_names[match])))
    names = [p.expr.name.lower() for p in proj]
    if not has_hidden and names == [v.lower() for v in visible]:
        return None
    return proj


def attach_local_tail(
    node: PlanNode,
    query: ast.Query,
    input_names: Sequence[str],
    est_rows: float = 0.0,
) -> PlanNode:
    """GROUP BY / aggregate / ORDER BY / LIMIT as plan nodes above ``node``.

    Row-at-a-time operators (projection, LIMIT) stay streaming; pipeline
    breakers (group-by, sort, top-K) drain internally.  ``ORDER BY``
    keys outside the select list defer the projection until after the
    sort so the keys stay in scope; alias references in the deferred
    sort are rewritten to their select expressions.  ``input_names`` are
    the plan-time column names of ``node``'s output (presence only —
    runtime order may differ when an inner join swaps its hash sides).
    ``est_rows`` is the estimated cardinality flowing into the tail;
    each CPU-bearing tail node is annotated with the ``est_cpu`` it
    spends on that many rows, which the cost walker charges like a
    join's.
    """
    deferred_projection = False
    aggregate_cpu = (
        est_rows * max(len(agg_items(query)), 1)
        * SERVER_CPU_PER_ROW["aggregate"]
    )
    if query.group_by:
        items = agg_items(query)
        having_pred, hidden = (None, [])
        if query.having is not None:
            having_pred, hidden = _rewrite_having(query, items)
        node = GroupByNode(node, tuple(query.group_by), items + hidden)
        node.est_cpu = aggregate_cpu
        if having_pred is not None:
            node = FilterNode(node, having_pred)
        reorder = _group_output_projection(query, items, bool(hidden))
        if reorder is not None:
            node = ProjectNode(node, reorder)
    elif any(
        not isinstance(i.expr, ast.Star) and ast.contains_aggregate(i.expr)
        for i in query.select_items
    ):
        items = list(query.select_items)
        having_pred, hidden = (None, [])
        if query.having is not None:
            having_pred, hidden = _rewrite_having(query, items)
        node = GroupByNode(node, (), items + hidden)
        node.est_cpu = aggregate_cpu
        if having_pred is not None:
            node = FilterNode(node, having_pred)
            if hidden:
                node = ProjectNode(node, [
                    ast.SelectItem(ast.Column(item.output_name(i)))
                    for i, item in enumerate(items, start=1)
                ])
    elif not all(isinstance(i.expr, ast.Star) for i in query.select_items):
        out_names = {
            n.lower()
            for n in projected_names(list(input_names), query.select_items)
        }
        deferred_projection = any(
            ref.lower() not in out_names
            for item in query.order_by
            for ref in ast.referenced_columns(item.expr)
        )
        if not deferred_projection:
            node = ProjectNode(node, query.select_items, est_rows)

    order_by = query.order_by
    if deferred_projection:
        order_by = tuple(
            ast.OrderItem(unalias(o.expr, query.select_items), o.descending)
            for o in order_by
        )
    if order_by:
        if query.limit is not None:
            node = TopKNode(node, order_by, query.limit, est_rows)
        else:
            node = SortNode(node, order_by)
            if est_rows > 1:
                node.est_cpu = (
                    est_rows * math.log2(est_rows) * len(order_by)
                    * SERVER_CPU_PER_ROW["sort_per_cmp"]
                )
    elif query.limit is not None:
        node = LimitNode(node, query.limit)
    if deferred_projection:
        node = ProjectNode(node, query.select_items, est_rows)
    return node


def column_items(columns: Sequence[str]) -> list[ast.SelectItem]:
    """A plain column projection as select items."""
    return [ast.SelectItem(ast.Column(c)) for c in columns]


def select_list_node(
    child: PlanNode,
    items: Sequence[ast.SelectItem] | None,
    est_rows: float = 0.0,
) -> PlanNode:
    """A final select list over ``child``: ``None`` passes it through, a
    list holding an aggregate is a one-group aggregation (the micro
    benchmarks' ``SUM(o_totalprice)`` shape), anything else a projection.
    ``est_rows`` is the estimated cardinality flowing in, for ``est_cpu``."""
    if items is None:
        return child
    if any(
        not isinstance(i.expr, ast.Star) and ast.contains_aggregate(i.expr)
        for i in items
    ):
        node = GroupByNode(child, (), items)
        node.est_cpu = est_rows * len(items) * SERVER_CPU_PER_ROW["aggregate"]
        return node
    return ProjectNode(child, items, est_rows)


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
    #: one whole-query phase (baseline joins, the paper's filtered
    #: join): a GET scan ingests its whole table by formula, a pushed
    #: scan what it returned.  ``None`` = per-scan phases.
    combined_label: str | None = None
    #: The mid-flight re-optimization wrapper, when this is an adaptive
    #: plan (``mode="adaptive"`` over a 3+-way equi-join tree).
    adaptive_node: "AdaptiveJoinNode | None" = None
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
    listing it at ``index`` (PostgreSQL's InitPlan).  Its rows feed
    :class:`LegNode` leaves under ``names``, or — ``value`` being
    ``"scalar"``, ``"exists"`` or ``"not exists"`` — become the value
    bound to ``$index``; ``feeds`` says which, for EXPLAIN."""

    index: int
    plan: PhysicalPlan
    names: list[str]
    feeds: str
    value: str | None = None
    #: What its latest run returned (``None`` until it runs).
    rows: list[tuple] | None = None

    def describe(self) -> str:
        return (
            f"init plan {self.index} ({self.plan.mode},"
            f" est_rows={output_rows(self.plan.root):.1f}, feeds {self.feeds})"
        )

    def param(self) -> ast.Literal:
        """The value ``$index`` is bound to, from the rows of the run."""
        rows = self.rows
        if self.value == "scalar":
            if len(rows) > 1:
                raise PlanError(
                    "a scalar subquery must produce one column and at most"
                    " one row"
                )
            return ast.Literal(rows[0][0] if rows else None)
        return ast.Literal(bool(rows) != (self.value == "not exists"))


def execute_plan(ctx: CloudContext, plan: PhysicalPlan) -> QueryExecution:
    """Run the plan — its init plans, then its root — meter it, and
    finalize the execution.

    This is the single executor behind every planner path.  Each init plan
    runs first, through the same routine as the root's plan (own state,
    phase policy, CPU tally, harvest), and bills to this execution, its
    phases ahead of the root's.  The root is drained into a row list;
    phases are assembled per the plan's policy; all accumulated local CPU
    lands on the final phase; the execution's ``report`` records what
    each node observed (:func:`plan_records`).
    """
    return _execute(ctx, plan)


def _execute(ctx: CloudContext, plan: PhysicalPlan) -> QueryExecution:
    # Init plans recurse here, not into ``execute_plan``: tracers wrap
    # that one from outside and count each query once.  An init plan's
    # tree and times are reported under its query's root.
    mark = ctx.begin_query()
    phases: list[Phase] = []
    params: dict[int, ast.Literal] = {}
    for init in plan.init_plans:
        leg = _execute(ctx, init.plan)
        init.rows = leg.rows
        phases += leg.phases
        if init.value is not None:
            params[init.index] = init.param()
    state = ExecState(ctx, combined=plan.combined_label is not None, params=params)
    # The combined baseline phase spans only the root's own requests.
    query_mark = ctx.metrics.mark()
    names, stream = _run_node(plan.root, state)
    rows = materialize(stream)
    nodes = [node for node, _ in walk_plan(plan.root)]
    if plan.combined_label is not None:
        # GET scans ingest whole tables whatever the pipeline pulled;
        # pushed scans ingest the rows and columns they returned.
        scans = [n for n in nodes if isinstance(n, ScanNode)]
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
            phases.append(state.pending.phase(ctx))
        phases[-1].server_cpu_seconds += state.tally.seconds
    execution = ctx.finalize(mark, rows, names, phases, strategy=plan.strategy)
    records = plan_records(plan)
    feedback = ctx.feedback
    if feedback is not None:
        # Close the loop: every measured cardinality becomes a learned
        # estimate for the rest of the session, for free.
        from repro.optimizer.feedback import harvest_plan

        harvest_plan(feedback, plan.root)
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
    return execution


def runner(build_plan: Callable[..., PhysicalPlan]) -> Callable[..., QueryExecution]:
    """A plan constructor's public runner: same arguments, the plan built
    and executed — what it runs is what a chooser would have priced."""

    @wraps(build_plan)
    def run(ctx: CloudContext, *args, **kwargs) -> QueryExecution:
        return execute_plan(ctx, build_plan(ctx, *args, **kwargs))

    return run


# ----------------------------------------------------------------------
# tree utilities: the one walker per question a join tree is asked
# ----------------------------------------------------------------------

_JOINS = (HashJoinNode, CrossProductNode)


def join_leaves(node: PlanNode) -> list[PlanNode]:
    """The relations a join tree joins, left to right: scans and
    materialized results (whose executed source is not descended)."""
    if not isinstance(node, _JOINS):
        return [node]
    return join_leaves(node.build) + join_leaves(node.probe)


def join_extra_edges(node: PlanNode) -> list:
    """The equi edges beyond each join's hash edge, deferred to a
    residual filter above the tree (a materialized result's were covered
    when the tree it came from was planned)."""
    if not isinstance(node, _JOINS):
        return []
    return (
        node.extra_edges
        + join_extra_edges(node.build) + join_extra_edges(node.probe)
    )


def mark_spine(tree: PlanNode) -> None:
    """Stream the root join's probe side; relabel its probe scan."""
    if isinstance(tree, _JOINS):
        tree.stream_probe = True
        probe = tree.probe
        if isinstance(probe, ScanNode):
            probe.phase_label = f"probe-scan-{probe.table.name}"


def tree_signature(node: PlanNode, table_signatures: dict | None = None):
    """The feedback signature of an inner hash-join subtree, or ``None``.

    The semantic identity of a join result: which base tables it joins,
    the single-table predicate pushed into each scan, and the hash edges
    applied inside — each table as ``(name, predicate_signature)``, each
    edge as its sorted key pair, both sorted.  Bloom predicates are
    excluded on purpose — they only pre-drop rows the join drops anyway —
    so Bloom and non-Bloom plans over the same query share feedback.  A
    materialized result is walked through its executed source.  ``None``
    for shapes feedback does not model (cross products, pushed
    aggregates, semi / anti / outer joins or a residual match condition).
    ``table_signatures`` maps a lower-cased table name to its
    precomputed pair (the join-order search's, built once per search).
    """
    from repro.optimizer.feedback import predicate_signature

    tables: list[tuple[str, str]] = []
    edges: list[tuple[str, ...]] = []

    def collect(n: PlanNode) -> bool:
        if isinstance(n, MaterializedNode):
            return collect(n.source)
        if isinstance(n, ScanNode):
            name = n.table.name.lower()
            tables.append(
                table_signatures[name] if table_signatures is not None
                else (name, predicate_signature(n.predicate))
            )
            return True
        if isinstance(n, HashJoinNode):
            if n.join_type != "inner" or n.match_cond is not None:
                return False
            edges.append(tuple(sorted((n.build_key.lower(), n.probe_key.lower()))))
            return collect(n.build) and collect(n.probe)
        return False

    if not collect(node):
        return None
    return tuple(sorted(tables)), tuple(sorted(edges))


def serialize_shape(node: PlanNode):
    """Join-subtree shape as nested lists: ``name`` or ``[kind, b, p]``.

    Orientation (build first) is preserved; estimates are not — they are
    recomputed when the shape is rebuilt against a catalog.
    """
    if isinstance(node, ScanNode):
        return node.table.name
    if isinstance(node, MaterializedNode):
        # Mid-flight shapes are descriptive only — a materialized result
        # cannot be rebuilt from a shape against a fresh catalog.
        return ["materialized", sorted(node.tables)]
    if isinstance(node, HashJoinNode):
        kind = "hash" if node.join_type == "inner" else f"hash-{node.join_type}"
        return [kind, serialize_shape(node.build), serialize_shape(node.probe)]
    if isinstance(node, CrossProductNode):
        return ["cross", serialize_shape(node.build), serialize_shape(node.probe)]
    raise PlanError(f"cannot serialize plan node {type(node).__name__}")


def _leaf_label(node: PlanNode) -> str:
    if isinstance(node, ScanNode):
        return node.table.name
    return "[" + "+".join(sorted(node.tables)) + "]"


def _leaf_order(node: PlanNode) -> tuple[list[str], bool]:
    """:func:`join_leaf_order` and :func:`is_left_deep`, from one walk."""
    if isinstance(node, (ScanNode, MaterializedNode)):
        return [_leaf_label(node)], True
    cross = isinstance(node, CrossProductNode)
    for deep, leaf in ((node.build, node.probe), (node.probe, node.build)):
        if isinstance(leaf, (ScanNode, MaterializedNode)):
            order, left_deep = _leaf_order(deep)
            return order + [_leaf_label(leaf)], left_deep and not cross
    return _leaf_order(node.build)[0] + _leaf_order(node.probe)[0], False


def join_leaf_order(node: PlanNode) -> list[str]:
    """Left-deep-equivalent table order of a join subtree, for display.

    A join with exactly one leaf child maps to 'join the deep side
    first, then that leaf' — the order whose forced left-deep execution
    matches this tree.  Genuinely bushy nodes concatenate build then
    probe (display only; no left-deep equivalent exists).
    """
    return _leaf_order(node)[0]


def is_left_deep(node: PlanNode) -> bool:
    """True when the tree has a left-deep-equivalent execution order."""
    return _leaf_order(node)[1]


def join_tree_label(node: PlanNode) -> str:
    """Compact label: `a >< b >< c` for left-deep, parenthesized for bushy."""
    order, left_deep = _leaf_order(node)
    if left_deep and not _has_cross(node):
        return " >< ".join(order)

    def render(n: PlanNode) -> str:
        if isinstance(n, (ScanNode, MaterializedNode)):
            return _leaf_label(n)
        op = " x " if isinstance(n, CrossProductNode) else " >< "
        return f"({render(n.build)}{op}{render(n.probe)})"

    return render(node)


def _has_cross(node: PlanNode) -> bool:
    if isinstance(node, CrossProductNode):
        return True
    return any(_has_cross(c) for c in node.children())


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
        tags = ("build: ", "probe: ") if isinstance(node, _JOINS) else ("", "")
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
