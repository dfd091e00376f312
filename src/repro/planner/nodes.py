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
  (``state.drain(child)``); what a node holds on to is one batch
  (:meth:`Batch.concat <repro.engine.batch.Batch.concat>`);
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
  own; :class:`LegNode` leaves read their result batch, ``$n`` their
  values.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch, rechunk_batches
from repro.engine.catalog import TableInfo
from repro.engine.operators.base import BatchCounter
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import (
    PARTIALS,
    GroupBy,
    aggregate_inputs,
    combine_partials,
    group_by_cpu,
)
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches, projected_names
from repro.engine.operators.sort import sort_batches, sort_cpu
from repro.engine.operators.topk import top_k_batches, top_k_cpu
from repro.optimizer.cost import _phase
from repro.optimizer.feedback import estimated_rows
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.strategies.scans import (
    iter_scan_batches,
    phase_since,
    scan_partitions,
    select_partials,
    select_query,
)

if TYPE_CHECKING:
    from repro.planner.physical import ExecState, InitPlan


class PlanNode:
    """One operator in the physical plan tree.

    Annotation fields (filled by the plan builder / join-order search):

    * ``est_rows`` — estimated output cardinality;
    * ``est_cost`` — estimated cumulative dollar cost of the subtree,
      priced through the context's PerfModel + Pricing;
    * ``est_cpu`` — estimated local CPU seconds of this operator alone.
      A local operator computes it from its child's estimate
      (:func:`output_rows`) with the per-row formula its ``run`` bills;
      a hash join's builder sets it; leaves price their own phases;
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

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        """A leaf's estimate of the phases its own :meth:`run` appends;
        ``combined``: they merge into the plan's one combined phase;
        ``stored``: the scans its query's earlier legs cache."""
        return []

    def stores(self) -> tuple:
        """The scans a run of this node leaves in a session cache."""
        return ()

    def run(self, state: ExecState) -> tuple[list[str], Iterator[Batch]]:
        """Execute this subtree, returning (column names, batch stream)."""
        raise NotImplementedError


#: Predicates whose zone-map survivors a catalog entry memoizes
#: (``TableInfo.kept``) before the memo starts over.
KEPT_PREDICATES = 256


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
        """Refute the zone maps against ``predicate`` once per catalog entry
        (:attr:`TableInfo.kept`): neither changes while the entry lives,
        and a long session's distinct predicates do not pile up past
        :data:`KEPT_PREDICATES`."""
        if predicate is not None:
            from repro.optimizer.pruning import keep_partitions

            kept = self.table.kept
            if predicate not in kept:
                if len(kept) >= KEPT_PREDICATES:
                    kept.clear()
                kept[predicate] = keep_partitions(self.table, predicate)
            self.keep_partitions = kept[predicate]

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
        """(streams, scanned bytes, scanned-row fraction) after pruning,
        from the surviving partitions' exact sizes and row counts (an
        empty table's fraction is 0: it has no rows to scan)."""
        keep, table = self.keep_partitions, self.table
        if keep is None:
            return table.partitions, float(table.total_bytes), 1.0
        scan_bytes = float(sum(table.partition_bytes[i] for i in keep))
        kept_rows = sum(table.partition_rows[i] for i in keep)
        return len(keep), scan_bytes, kept_rows / max(table.num_rows, 1)

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
        #: The clauses a parent join hands this run (consumed by it),
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

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        """The scan's one phase: pruned request streams, Bloom-reduced
        returned rows (``est_rows``), zero requests on a warm cache."""
        table, est = self.table, output_rows(self)
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
        cache = ctx.result_cache
        if (
            cache is not None
            and self.bloom_attr is None
            and cache.peek_scan(table.name, self.predicate, self.columns, stored) is not None
        ):
            # Replay is local: no requests, no lanes, no scanned bytes,
            # no server-side ingest.
            return [Phase(self.phase_label)]
        streams, scan_bytes, row_frac = self._pruned_profile()
        return [_phase(
            self.phase_label, streams,
            scan_bytes=scan_bytes,
            returned_bytes=est * table.stats.projected_row_bytes(
                self.columns
            ),
            term_evals=self.est_terms * row_frac,
            records=est,
            fields=est * max(len(self.columns), 1),
        )]

    def stores(self) -> tuple:
        """``(table, predicate, columns)`` when this scan may consult and
        populate the session cache.

        Only plain pushdown scans participate, alone or inside a combined
        phase: Bloom-annotated scans (the only ones a join hands clauses)
        carry run-time-dependent predicates, and GET scans are the
        paper's whole-table reference point.
        """
        if not self.pushdown or self.bloom_attr is not None:
            return ()
        return ((self.table.name, self.predicate, self.columns),)

    def _cacheable(self, state: ExecState):
        """The session cache, when this scan may use it (:meth:`stores`)."""
        return state.ctx.result_cache if self.stores() else None

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
            buffer = [Batch.concat(buffer, len(self.columns))]
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
    """Leaf: decomposable aggregates pushed to storage, grouped by
    ``query.group_by`` (the paper's Suggestion 4) or not (TPC-H Q6):
    partial aggregates in S3 Select, finalized on the query node.

    ``query`` selects the keys, then bare aggregates; each partition
    returns their :data:`PARTIALS`, a row per group it saw, which
    :func:`combine_partials` finishes.  Pruning to ``keep_partitions``
    (the WHERE clause's zone-map survivors, as the planner's scan leaf
    found them) is sound: a refuted partition contributes no group or
    NULL/zero partials, and one partition always survives so an
    ungrouped result row keeps its shape.
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
        self.keys = query.group_by
        self.aggregates = query.select_items[len(self.keys):]
        #: The pushed columns: the keys, then each aggregate's partials.
        self.pushed = [*self.keys, *(
            ast.Aggregate(partial, item.expr.operand)
            for item in self.aggregates for partial in PARTIALS[item.expr.func]
        )]
        self.est_rows = float(table.stats.groups([key.name for key in self.keys]))
        self.tables: frozenset = frozenset((table.name,))
        self._cache_partials: Batch | None = None

    def describe(self) -> str:
        keys = ", ".join(key.to_sql() for key in self.keys) or "-"
        items = ", ".join(item.to_sql() for item in self.aggregates)
        text = f"pushed-aggregate {self.table.name} [{keys}] [{items}]"
        if self.query.where is not None:
            text += f" pred=({self.query.where.to_sql()})"
        return text + self._explain_tail()

    def signatures(self) -> list[str]:
        """Alias-insensitive signature of each pushed column (the cache
        key: another set of keys misses)."""
        return [column.to_sql() for column in self.pushed]

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        """One phase: one S3-side term per pushed accumulator whatever the
        group count; each pruned stream returns a row per group it saw
        (one when ungrouped); zero requests on a warm cache."""
        table, where = self.table, self.query.where
        cache = None if combined else ctx.result_cache
        if cache is not None and cache.peek_aggregate(
            table.name, where, self.signatures()
        ) is not None:
            return [_phase(self.phase_label, 1, requests=0.0)]
        streams, scan_bytes, row_frac = self._pruned_profile()
        accumulators = len(self.pushed) - len(self.keys)
        rows, width = float(streams), accumulators * 12.0
        if self.keys:
            groups = self.est_rows
            per_stream = estimated_rows(ctx, table, where) / max(streams, 1)
            seen = groups * (1.0 - (1.0 - 1.0 / groups) ** per_stream)
            rows = streams * max(min(seen, per_stream), 0.0)
            width += table.stats.projected_row_bytes([key.name for key in self.keys])
        return [_phase(
            self.phase_label, streams,
            scan_bytes=scan_bytes,
            returned_bytes=rows * width,
            term_evals=table.num_rows * row_frac
            * (accumulators + len(ast.split_conjuncts(where))),
            records=rows,
            fields=rows * len(self.pushed),
        )]

    def flush_cache(self, cache) -> int:
        """Store the retained partials batch; 1 if stored."""
        partials, self._cache_partials = self._cache_partials, None
        return 0 if partials is None else int(cache.store_aggregate(
            self.table.name, self.bound, self.signatures(), partials,
        ))

    def run(self, state: ExecState):
        ctx, table = state.ctx, self.table
        mark = ctx.metrics.mark()
        items = self.query.select_items
        out_names = [item.output_name(i) for i, item in enumerate(items, start=1)]
        self.bind(state, self.query.where)
        cache = ctx.result_cache if not state.combined else None
        partials = None if cache is None else cache.lookup_aggregate(
            table.name, self.bound, self.signatures()
        )
        if partials is not None:
            self.cache_status, streams, ingest = "hit", 1, None
        else:
            statement = PreparedSelect(
                select_query(self.pushed, self.bound, self.keys),
                allow_group_by=bool(self.keys),
            )
            keep, streams = self._effective_partitions()
            partials = select_partials(
                ctx, table, statement, len(self.pushed), partitions=keep
            )
            ingest = (len(partials), len(self.pushed))
            if cache is not None:
                self.cache_status = "miss"
                # A grouped run that saw no row is not kept: it would
                # answer an ungrouped COUNT with NULL, not 0.
                self._cache_partials = partials if len(partials) else None
        out = combine_partials(
            partials, len(self.keys), [item.expr.func for item in self.aggregates]
        )
        state.phases.append(phase_since(
            ctx, mark, self.phase_label, streams=streams, ingest=ingest
        ))
        self.extras = {"groups": len(out), "partial_rows_returned": len(partials)}
        return out_names, iter([out])


class LegNode(PlanNode):
    """Leaf: the result batch of an init plan (a decorrelated build side,
    a derived table), which ran — and metered its work — before the root."""

    def __init__(self, leg: InitPlan):
        self.leg = leg
        self.est_rows = output_rows(leg.plan.root)

    def describe(self) -> str:
        return f"init plan {self.leg.index} [{', '.join(self.leg.names)}]"

    def run(self, state: ExecState):
        return list(self.leg.names), iter([self.leg.batch])


class FilterNode(PlanNode):
    """Local predicate over the stream (residual cross-table filters,
    HAVING, the paper's server-side filters)."""

    def __init__(self, child: PlanNode, predicate: ast.Expr):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"filter [{self.predicate.to_sql()}]"

    @property
    def est_cpu(self) -> float:
        return output_rows(self.child) * SERVER_CPU_PER_ROW["filter"]

    def run(self, state: ExecState):
        names, stream = state.run(self.child)
        return names, filter_batches(
            stream, names, state.bind(self.predicate), state.tally
        )


class ProjectNode(PlanNode):
    """Evaluate the select list per row (streaming)."""

    def __init__(self, child: PlanNode, items: Sequence[ast.SelectItem]):
        self.child = child
        self.items = list(items)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(i.to_sql() for i in self.items)
        if len(rendered) > 60:
            rendered = rendered[:57] + "..."
        return f"project [{rendered}]"

    @property
    def est_cpu(self) -> float:
        """One evaluation per item and input row (``*``, whose width the
        plan does not know, counted as one)."""
        return (
            output_rows(self.child) * len(self.items)
            * SERVER_CPU_PER_ROW["filter"]
        )

    def run(self, state: ExecState):
        names, stream = state.run(self.child)
        out_names = projected_names(names, self.items)
        return out_names, project_batches(stream, names, self.items, state.tally)


class GroupByNode(PlanNode):
    """Hash aggregation (pipeline breaker) emitting exactly its items:
    a key column is output only when an item lists it."""

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[ast.Expr],
        items: Sequence[ast.SelectItem],
    ):
        self.child = child
        self.group_exprs = tuple(group_exprs)
        self.items = list(items)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        groups = ", ".join(e.to_sql() for e in self.group_exprs) or "-"
        aggs = sum(ast.contains_aggregate(item.expr) for item in self.items)
        return f"group-by [{groups}] aggs={aggs}"

    @property
    def est_cpu(self) -> float:
        return group_by_cpu(output_rows(self.child), aggregate_inputs(self.items))

    def run(self, state: ExecState):
        names, stream = state.run(self.child)
        group_by = GroupBy(names, self.group_exprs, self.items)
        return group_by.names, iter([group_by.run(stream, state.tally)])


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

    @property
    def est_cpu(self) -> float:
        return sort_cpu(output_rows(self.child), len(self.order_by))

    def run(self, state: ExecState):
        names, stream = state.run(self.child)
        return names, iter([sort_batches(stream, names, self.order_by, state.tally)])


class TopKNode(PlanNode):
    """ORDER BY + LIMIT as a bounded heap (pipeline breaker)."""

    def __init__(
        self, child: PlanNode, order_by: Sequence[ast.OrderItem], k: int
    ):
        self.child = child
        self.order_by = tuple(order_by)
        self.k = k

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(o.to_sql() for o in self.order_by)
        return f"top-k [{keys}] k={self.k}"

    @property
    def est_cpu(self) -> float:
        return top_k_cpu(output_rows(self.child), self.k)

    def run(self, state: ExecState):
        names, stream = state.run(self.child)
        return names, iter([
            top_k_batches(stream, names, self.order_by, self.k, state.tally)
        ])


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
    local tail's nodes keep none of their own); a table leaf no builder
    gave an estimate yields its table's rows, as its phase predicts."""
    while node.est_rows is None and node.children():
        if isinstance(node, GroupByNode) and not node.group_exprs:
            return 1.0
        node = node.children()[0]
    if node.est_rows is None and isinstance(node, _TableLeaf):
        return float(node.table.num_rows)
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
