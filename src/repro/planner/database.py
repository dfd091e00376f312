"""The PushdownDB facade: the library's front door.

Bundles a cloud context, a catalog, and the planner behind a small API::

    from repro import PushdownDB

    db = PushdownDB()
    db.load_table("lineitem", rows, schema)
    result = db.execute("SELECT SUM(l_extendedprice) FROM lineitem")
    print(result.rows, result.runtime_seconds, result.cost.total)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cloud.context import CloudContext, QueryExecution
from repro.engine.catalog import DEFAULT_PARTITIONS, Catalog, TableInfo, load_table
from repro.planner.planner import plan_and_execute, plan_parsed
from repro.storage.csvcodec import DEFAULT_BATCH_SIZE
from repro.storage.schema import TableSchema


class PushdownDB:
    """An embedded PushdownDB instance over a simulated S3."""

    def __init__(
        self,
        bucket: str = "pushdowndb",
        workers: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        adaptive_threshold: float | None = None,
        prune_partitions: bool = True,
        cache_bytes: int = 0,
    ):
        """Args:
            workers: accepted as ``None`` or ``1`` only: the engine is
                serial (a partition's requests are in-memory calls that
                hold the GIL, so threads only add overhead).
            batch_size: rows per RecordBatch in the streaming executor.
            adaptive_threshold: Q-error bound for ``mode="adaptive"``
                executions — a completed hash build whose observed
                cardinality misses its estimate by more than this factor
                triggers a mid-flight re-plan of the remaining join tree
                (default 2.0).
            prune_partitions: zone-map partition pruning for pushdown
                scans (default on).  Pruned partitions are never
                requested, so request counts and cost drop; results are
                identical with the knob off.
            cache_bytes: byte budget for the session's semantic result
                cache.  ``0`` (the default) disables caching; a positive
                budget lets repeated or subsumed pushed scans and
                aggregates answer from memory with zero metered
                requests.  Reloading a table evicts its entries.
        """
        if workers not in (None, 1):
            raise ValueError(f"the engine is serial: workers must be 1, got {workers}")
        self.ctx = CloudContext(
            batch_size=batch_size,
            adaptive_threshold=adaptive_threshold,
            prune_partitions=prune_partitions,
            cache_bytes=cache_bytes,
        )
        self.catalog = Catalog()
        self.bucket = bucket

    @property
    def feedback(self):
        """The session's learned-selectivity store.

        Populated automatically from every executed plan and every
        metered selectivity probe; consulted by every estimate.  Session
        scoped: two ``PushdownDB`` instances never share feedback.
        """
        return self.ctx.feedback

    def reset_feedback(self) -> None:
        """Forget learned statistics: back to cold-start System-R plans."""
        self.ctx.feedback.reset()

    @property
    def cache(self):
        """The session's semantic result cache, or ``None`` if disabled.

        Enabled with a positive ``cache_bytes``; exposes hit/miss
        counters via ``db.cache.stats`` and the current footprint via
        ``db.cache.current_bytes``.
        """
        return self.ctx.result_cache

    def reset_cache(self) -> None:
        """Drop every cached result: the next execution runs cold."""
        if self.ctx.result_cache is not None:
            self.ctx.result_cache.clear()

    # ------------------------------------------------------------------
    # data loading
    # ------------------------------------------------------------------
    def load_table(
        self,
        name: str,
        rows: Sequence[tuple],
        schema: TableSchema,
        partitions: int = DEFAULT_PARTITIONS,
        data_format: str = "csv",
        index_columns: Iterable[str] = (),
    ) -> TableInfo:
        """Partition ``rows`` into S3 objects and register the table."""
        return load_table(
            self.ctx,
            self.catalog,
            name,
            rows,
            schema,
            bucket=self.bucket,
            partitions=partitions,
            data_format=data_format,
            index_columns=index_columns,
        )

    def table(self, name: str) -> TableInfo:
        return self.catalog.get(name)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def execute(self, sql: str, mode: str = "optimized") -> QueryExecution:
        """Run a SQL query.

        Args:
            sql: a SELECT over one or more tables (see
                :mod:`repro.planner.planner` for the supported subset);
                multi-table queries are equi-join chains whose join
                order the cost-based search picks automatically.
            mode: ``"optimized"`` uses the paper's pushdown strategies;
                ``"baseline"`` loads whole tables with plain GETs;
                ``"auto"`` lets the cost-based optimizer pick whichever
                the statistics predict cheaper (the per-candidate
                estimates land in ``execution.report.optimizer``);
                ``"adaptive"`` runs the optimized plan with mid-flight
                join re-optimization — misestimated hash builds
                (Q-error beyond ``adaptive_threshold``) re-plan the
                remaining tree around the observed cardinality, and
                accurate estimates execute byte-identically to
                ``"optimized"`` (re-plan events land in
                ``execution.report.adaptive``).
        """
        return plan_and_execute(self.ctx, self.catalog, sql, mode)

    def explain(self, sql: str) -> str:
        """The optimizer's EXPLAIN report for ``sql``.

        Lists every candidate plan's predicted requests, bytes, runtime
        and dollar cost, and marks the pick.  For multi-table queries
        the report also carries the join-order search's candidate table
        (each considered tree with its predicted rows, runtime and
        cost).  The picked candidate's physical plan — the object that
        was priced, and what ``mode="auto"`` would run — is rendered
        below the candidate table, annotated with per-node ``est_rows``
        and cumulative ``est_cost``; the root's ``est_cost`` is the
        picked candidate's cost.  Subquery legs render as the root's init
        plans, each with its mode, estimate and what it feeds.  Planning
        never touches storage.  Decorrelated joins render with their
        provenance, e.g. ``semi hash-join [...] (decorrelated EXISTS)``.
        """
        from repro.sqlparser.parser import parse

        plan, choice = plan_parsed(self.ctx, self.catalog, parse(sql), "auto")
        report = f"physical plan ({plan.mode}):\n{plan.describe()}"
        if choice is not None:
            report = f"{choice.explain()}\n{report}"
        return report

    def calibrate_to_paper_scale(self, paper_bytes: float = 10e9) -> float:
        """Re-rate the context as if loaded data were paper-sized."""
        total = sum(
            self.catalog.get(t).total_bytes for t in self.catalog.table_names()
        )
        return self.ctx.calibrate_to_paper_scale(total, paper_bytes)
