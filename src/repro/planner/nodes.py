"""Plan nodes: the table leaves and the local operators.

Each node knows its EXPLAIN line, its children and how to run; a leaf
also predicts the phases its run appends (:meth:`PlanNode.predicted_phases`)
beside the code that meters them.  Joins are in :mod:`repro.planner.joins`,
the executor in :mod:`repro.planner.physical`.

Execution contract:

* every node runs through one entry (:meth:`ExecState.run
  <repro.planner.physical.ExecState.run>`), which times its ``run`` call
  and every pull of its stream and counts the rows it yields — no node
  keeps a clock of its own; a node runs its children through the same
  entry (``state.run(child)``), or drains them now
  (``state.drain(child)``, ``state.materialize(child)``);
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
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch, rechunk_batches
from repro.engine.catalog import TableInfo
from repro.engine.operators.base import BatchCounter, materialize
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import group_by_batches
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches, projected_names
from repro.engine.operators.sort import sort_batches
from repro.engine.operators.topk import top_k_batches
from repro.optimizer.cost import _phase
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.strategies.scans import (
    iter_scan_batches,
    merge_sum_partials,
    phase_since,
    scan_partitions,
    select_aggregate,
    select_query,
)

if TYPE_CHECKING:
    from repro.planner.physical import ExecState, InitPlan


def one_batch(rows: list[tuple], names: Sequence[str]) -> Iterator[Batch]:
    """A materialized result handed downstream as a one-batch stream."""
    return iter([Batch.from_rows(rows, len(names))])


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
      pushed groups, a sampled threshold, ...); the executor merges it
      into the execution report's ``extras``.

    ``actual_rows`` and ``wall_seconds`` are written by the executor
    (:meth:`~repro.planner.physical.ExecState.run`), never by a node:
    :meth:`run` only returns its column names and batch stream.
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

    def predicted_phases(self, ctx: CloudContext, combined=False) -> list[Phase]:
        """A leaf's estimate of the phases its own :meth:`run` appends;
        ``combined``: they merge into the plan's one combined phase."""
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

    def _pruned_profile(self) -> tuple[int, float, float]:
        """(streams, scanned bytes, scanned-row fraction) after pruning.

        Exact per-partition sizes and row counts are used when the catalog
        has them; tables registered by hand fall back to a pro-rata split
        so the prediction still shrinks with the partition count.
        """
        keep, table = self.keep_partitions, self.table
        total = max(table.partitions, 1)
        if keep is None:
            return table.partitions, float(table.total_bytes), 1.0
        sizes = table.partition_bytes
        if len(sizes) == table.partitions:
            scan_bytes = float(sum(sizes[i] for i in keep))
        else:
            scan_bytes = float(table.total_bytes) * len(keep) / total
        counts = table.partition_rows
        if len(counts) == table.partitions and table.num_rows:
            row_frac = sum(counts[i] for i in keep) / table.num_rows
        else:
            row_frac = len(keep) / total
        return len(keep), scan_bytes, row_frac

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
        #: hands them over as :attr:`pushed`).
        self.bloom_attr: str | None = None
        #: The clauses the parent join hands this run (consumed by it),
        #: each ANDed onto the predicate in a statement of its own.
        self.pushed: list[ast.Expr] | None = None
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

    def predicted_phases(self, ctx: CloudContext, combined=False) -> list[Phase]:
        """The scan's one phase: pruned request streams, Bloom-reduced
        returned rows (``est_rows``), zero requests on a warm cache."""
        table = self.table
        est = self.est_rows if self.est_rows is not None else float(table.num_rows)
        if not self.pushdown:
            raw = table.num_rows
            # A combined phase ingests whole tables by formula; a lone
            # streaming GET scan ingests what its filter keeps.
            ingested = raw if combined else est
            return [_phase(
                self.phase_label, table.partitions,
                get_bytes=float(table.total_bytes),
                cpu_seconds=(
                    raw * SERVER_CPU_PER_ROW["filter"]
                    if self.predicate is not None else 0.0
                ),
                records=ingested,
                fields=ingested * len(table.schema),
            )]
        cache = None if combined else ctx.result_cache
        if (
            cache is not None
            and self.bloom_attr is None
            and cache.peek_scan(table.name, self.predicate, self.columns) is not None
        ):
            # Replay is local: no requests, no scanned bytes, no
            # server-side ingest.
            return [_phase(self.phase_label, 1, requests=0.0)]
        streams, scan_bytes, row_frac = self._pruned_profile()
        return [_phase(
            self.phase_label, streams,
            scan_bytes=scan_bytes,
            returned_bytes=est * table.stats_or_default().projected_row_bytes(
                self.columns
            ),
            term_evals=self.est_terms * row_frac,
            records=est,
            fields=est * max(len(self.columns), 1),
        )]

    def _cacheable(self, state: ExecState):
        """The session cache, when this scan may consult/populate it.

        Only plain pushdown scans participate: Bloom-annotated scans
        (the only ones a join hands clauses) carry run-time-dependent
        predicates, and combined (baseline join) executions are the
        paper's unmetered-per-scan reference point.
        """
        if not self.pushdown or self.bloom_attr is not None or state.combined:
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

    def statement(self, clause: ast.Expr | None = None) -> ast.Query:
        """The scan's pushed statement: its projection and :attr:`bound`
        predicate, a parent join's Bloom or ``IN``-list ``clause`` ANDed on."""
        own = [self.bound] if self.bound is not None else []
        where = ast.and_join(own + ast.split_conjuncts(clause))
        return select_query(self.columns or [ast.Star()], where)

    def run(self, state: ExecState):
        """Requests issue now; the phase is finalized once the stream is
        drained — at the root for the pipeline's spine, at the drain for
        a hash-build side or a non-spine probe (this scan is the node
        :meth:`~repro.planner.physical.ExecState.drain` runs) — so
        ingest reflects the rows actually pulled."""
        ctx = state.ctx
        mark = ctx.metrics.mark()
        names = list(self.columns)
        pushed, self.pushed = self.pushed, None
        drained = state.draining is self
        self.bind(state, self.predicate, prune=self.pushdown)
        cache = self._cacheable(state)
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
                    ctx, self.table, PreparedSelect(self.statement(clause)),
                    partitions=keep,
                ))
                for clause in pushed or [None]
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
        state.stream_phase(mark, self.phase_label, streams, counter, width)
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
    ``keep_partitions`` are the survivors of the WHERE clause's zone-map
    refutation, as the planner's scan leaf of the table found them.
    """

    def __init__(
        self,
        table: TableInfo,
        query: ast.Query,
        keep_partitions: list[int] | None = None,
        phase_label: str = "pushed-aggregate",
    ):
        self.table = table
        self.query = query
        self.keep_partitions = keep_partitions
        self.phase_label = phase_label
        self.est_rows = 1.0
        self.tables: frozenset = frozenset((table.name,))
        self._cache_partials: list[list] | None = None

    def describe(self) -> str:
        items = ", ".join(i.to_sql() for i in self.query.select_items)
        return f"pushed-aggregate {self.table.name} [{items}]" + self._explain_tail()

    def item_signatures(self) -> list[str]:
        """Alias-insensitive signature of each pushed aggregate item."""
        return [item.expr.to_sql() for item in self.query.select_items]

    def predicted_phases(self, ctx: CloudContext, combined=False) -> list[Phase]:
        """One pushed-aggregate phase: one partial row per pruned stream,
        zero requests on a warm cache."""
        cache = None if combined else ctx.result_cache
        if cache is not None and cache.peek_aggregate(
            self.table.name, self.query.where, self.item_signatures()
        ) is not None:
            return [_phase("pushed-aggregate", 1, requests=0.0)]
        items = self.query.select_items
        streams, scan_bytes, row_frac = self._pruned_profile()
        return [_phase(
            "pushed-aggregate", streams,
            scan_bytes=scan_bytes,
            returned_bytes=streams * len(items) * 12.0,
            term_evals=self.table.num_rows * row_frac
            * (len(items) + len(ast.split_conjuncts(self.query.where))),
        )]

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
            pushed = ast.Query(self.query.select_items, ("S3Object",), self.bound)
            keep, streams = self._effective_partitions()
            partials = select_aggregate(
                ctx, self.table, PreparedSelect(pushed), partitions=keep
            )
            if cache is not None:
                self.cache_status = "miss"
                self._cache_partials = [list(row) for row in partials]
        merged = merge_sum_partials(partials)
        state.phases.append(phase_since(
            ctx, mark, self.phase_label, streams=streams
        ))
        return out_names, one_batch([tuple(merged)], out_names)


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
        names, stream = state.run(self.child)
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
        names, stream = state.run(self.child)
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
        names, stream = state.run(self.child)
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
        names, stream = state.run(self.child)
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
        names, stream = state.run(self.child)
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
        names, stream = state.run(self.child)
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
    (:func:`~repro.planner.physical.plan_records`) and the adaptive
    executor's re-planning trigger, so the reported number is always the
    number that decided.
    """
    if est is None or actual is None:
        return 1.0
    e, a = est + 1.0, actual + 1.0
    return max(e / a, a / e)
