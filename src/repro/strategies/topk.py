"""The paper's top-K strategies (Section VII), as plan constructors.

* **server-side top-K** — GET the whole table, heap-select locally;
* **sampling-based top-K** — phase 1 samples ``S`` records (projected to
  the ORDER BY columns) and takes the K-th order statistic as a
  threshold; phase 2 pushes ``WHERE expr <= threshold`` into S3 Select
  and heap-selects the final K from the (much smaller) result.

The optimal sample size minimizing bytes moved is ``S* = sqrt(K*N/alpha)``
where ``alpha`` is the fraction of row bytes the ORDER BY expression
needs (Section VII-B); :func:`optimal_sample_size` implements it and the
Figure 8 experiment sweeps around it.

Both are a scan under a :class:`~repro.planner.nodes.TopKNode`; the
sampling variant's scan first samples its own threshold predicate.  The
chooser prices the very plan a ``*_plan`` constructor's runner executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.metrics import Phase
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.optimizer.cost import _phase
from repro.planner import physical
from repro.planner.nodes import ScanNode, TopKNode
from repro.planner.physical import PhysicalPlan
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.strategies.scans import iter_scan_batches, phase_since, select_query


@dataclass
class TopKQuery:
    """``SELECT * FROM table ORDER BY <expr> [DESC] LIMIT k``."""

    table: str
    order_column: str
    k: int
    descending: bool = False

    def order_items(self) -> list[ast.OrderItem]:
        return [
            ast.OrderItem(
                expr=ast.Column(self.order_column), descending=self.descending
            )
        ]


#: Smallest alpha the sizing formula accepts; anything at or below zero
#: clamps here (the formula then asks for the whole table anyway).
_MIN_ALPHA = 1e-9


def optimal_sample_size(k: int, n_rows: int, alpha: float) -> int:
    """``S* = sqrt(K*N/alpha)`` clamped to ``[max(10K, 1), N]``.

    The lower clamp keeps the threshold estimate stable (the paper's
    smallest swept sample is 10x K); the upper clamp is the table.
    Degenerate inputs clamp rather than raise: ``k > n_rows`` sizes for
    the full table, ``alpha <= 0`` is treated as :data:`_MIN_ALPHA`
    (avoiding the division blow-up), ``alpha > 1`` as 1, and an empty
    table yields a zero-row sample.
    """
    if k <= 0:
        raise PlanError(f"K must be positive, got {k}")
    if n_rows <= 0:
        return 0
    k = min(k, n_rows)
    alpha = min(max(alpha, _MIN_ALPHA), 1.0)
    ideal = math.sqrt(k * n_rows / alpha)
    return max(min(int(ideal), n_rows), min(10 * k, n_rows), 1)


def order_bytes_fraction(table: TableInfo, order_column: str) -> float:
    """Estimate alpha: the ORDER BY column's share of a row's bytes.

    Approximated by column count (1/num_columns), which is within 2x for
    TPC-H's lineitem; callers can override when they know better.
    """
    table.schema.index_of(order_column)  # validate the column exists
    return 1.0 / len(table.schema)


def server_side_top_k_plan(
    ctx: CloudContext, catalog: Catalog, query: TopKQuery
) -> PhysicalPlan:
    """Load everything; heap-select K locally."""
    table = catalog.get(query.table)
    scan = ScanNode(
        table, table.schema.names, None, pushdown=False, phase_label="load+topk"
    )
    root = TopKNode(scan, query.order_items(), query.k, table.num_rows)
    return PhysicalPlan(root, "baseline", "server-side top-k")


server_side_top_k = physical.runner(server_side_top_k_plan)


class SampledThresholdScan(ScanNode):
    """Leaf: a pushed scan (``scan``) of the rows at or past a threshold
    it samples first (``sample``), Section VII-A.

    The sample is the leading fraction of each partition, projected to
    the ORDER BY column.  (The paper assumes either random row order or
    random byte-range sampling; our generators emit rows in random
    order, so a prefix is a uniform sample.)  Its K-th order statistic
    guarantees at least K rows pass the pushed predicate, because the K
    sampled records at or below it are themselves in the table.
    """

    def __init__(
        self, table: TableInfo, query: TopKQuery, sample_size: int, alpha: float
    ):
        super().__init__(
            table, table.schema.names, None, pushdown=True,
            phase_label="scan", prune=False,
        )
        self.query = query
        self.sample_size = sample_size
        self.alpha = alpha
        # The threshold is the K-th order statistic of the sample, so the
        # expected pass fraction is K/S (± sampling noise); the pushed
        # predicate is one term per scanned row.
        n = table.num_rows
        self.est_rows = min(float(n), n * query.k / max(sample_size, 1))
        self.est_terms = float(n)

    def describe(self) -> str:
        return f"sampled[{self.sample_size}] {super().describe()}"

    def predicted_phases(self, ctx: CloudContext, combined=False) -> list[Phase]:
        table, size = self.table, self.sample_size
        width = table.stats_or_default().projected_row_bytes(
            [self.query.order_column]
        )
        fraction = min(1.0, size / table.num_rows) if table.num_rows else 1.0
        return [_phase(
            "sample", table.partitions,
            scan_bytes=float(table.total_bytes) * fraction,
            returned_bytes=size * width,
            cpu_seconds=size * math.log2(max(size, 2)) * 6e-9,
            records=size, fields=size,
        )] + super().predicted_phases(ctx, combined)

    def run(self, state: physical.ExecState):
        ctx, table, query = state.ctx, self.table, self.query
        mark = ctx.metrics.mark()
        sample = [
            value
            for batch in iter_scan_batches(
                ctx, table, PreparedSelect(select_query([query.order_column])),
                scan_range_fraction=min(1.0, self.sample_size / table.num_rows),
            )
            for value in batch.column(0)
        ]
        values = sorted(
            (v for v in sample if v is not None), reverse=query.descending
        )
        # A sample that came up short (tiny tables) keeps everything.
        threshold = values[-1] if values else None
        if len(values) >= query.k:
            threshold = values[query.k - 1]
            self.predicate = self._at_or_past(threshold)
        state.phases.append(phase_since(
            ctx, mark, "sample", streams=table.partitions,
            server_cpu_seconds=len(sample) * math.log2(max(len(sample), 2)) * 6e-9,
            ingest=(len(sample), 1),
        ))
        self.extras = {
            "sample_size": self.sample_size, "threshold": threshold,
            "alpha": self.alpha,
        }
        return super().run(state)

    def _at_or_past(self, threshold) -> ast.Expr:
        """The pushed range predicate.  Inclusive in both directions, so
        duplicates *at* the K-th order statistic survive the pushdown — a
        strict comparison could return fewer than K rows when the
        threshold value is tied.  Ascending order additionally keeps
        NULL keys: the local top-K operator sorts NULLs first, so they
        are part of the true result and must not be dropped by the
        pushed predicate (NULL compares as unknown and would be filtered
        out).  Descending order sorts NULLs last; they can only matter
        when the sample came up short, which scans unfiltered."""
        column = ast.Column(self.query.order_column)
        if self.query.descending:
            return ast.Binary(">=", column, ast.Literal(threshold))
        return ast.Binary(
            "OR", ast.Binary("<=", column, ast.Literal(threshold)),
            ast.IsNull(column),
        )


def sampling_top_k_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: TopKQuery,
    sample_size: int | None = None,
    alpha: float | None = None,
) -> PhysicalPlan:
    """Two-phase sampling top-K (Section VII-A).

    Args:
        sample_size: rows to sample in phase 1; defaults to the analytic
            optimum ``sqrt(K*N/alpha)``.
        alpha: ORDER BY bytes fraction; defaults to a column-count
            estimate.
    """
    table = catalog.get(query.table)
    if query.k > table.num_rows:
        raise PlanError(
            f"K={query.k} exceeds table rows ({table.num_rows});"
            " use server-side top-k"
        )
    if alpha is None:
        alpha = order_bytes_fraction(table, query.order_column)
    if sample_size is None:
        sample_size = optimal_sample_size(query.k, table.num_rows, alpha)
    sample_size = max(min(sample_size, table.num_rows), min(query.k, table.num_rows))
    scan = SampledThresholdScan(table, query, sample_size, alpha)
    root = TopKNode(scan, query.order_items(), query.k, scan.est_rows)
    return PhysicalPlan(root, "optimized", "sampling top-k")


def sampling_top_k(
    ctx: CloudContext, catalog: Catalog, query: TopKQuery, **options
) -> QueryExecution:
    """Run :func:`sampling_top_k_plan` (same ``options``); the report
    splits the runtime by phase."""
    plan = sampling_top_k_plan(ctx, catalog, query, **options)
    execution = physical.execute_plan(ctx, plan)
    sample_phase, scan_phase = execution.phases
    execution.report = execution.report.with_extras(
        phase2_rows=plan.root.child.actual_rows,
        sample_seconds=ctx.perf.phase_time(sample_phase),
        scan_seconds=ctx.perf.phase_time(scan_phase),
    )
    return execution
