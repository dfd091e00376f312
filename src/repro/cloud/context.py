"""The CloudContext: everything a query needs in one bundle.

A context pairs the storage service with the pricing sheet and the
performance calibration.  Strategies receive a context, do their work
through ``ctx.client``, and finalize into a :class:`QueryExecution`
(rows + simulated runtime + dollar cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.cloud.client import S3Client
from repro.cloud.metrics import MetricsCollector, Phase
from repro.cloud.perf import PAPER_PERF, PerfModel
from repro.cloud.pricing import PAPER_PRICING, CostBreakdown, Pricing, cost_of_query
from repro.storage.csvcodec import DEFAULT_BATCH_SIZE
from repro.storage.object_store import ObjectStore

@dataclass
class QueryExecution:
    """The result of running one query through a strategy."""

    rows: list[tuple]
    column_names: list[str]
    phases: list[Phase]
    runtime_seconds: float
    cost: CostBreakdown
    num_requests: int
    bytes_scanned: int
    bytes_returned: int
    bytes_transferred: int
    strategy: str = ""
    #: What the executor observed: a
    #: :class:`repro.planner.report.ExecutionReport` (per-node estimates,
    #: rows and times; optimizer choice; adaptive events; cache counters;
    #: strategy extras).
    report: ExecutionReport | None = None

    @property
    def details(self) -> Mapping[str, object]:
        """Read-only string-keyed view of :attr:`report`
        (``ExecutionReport.as_details``), built on each access."""
        if self.report is None:
            return MappingProxyType({})
        return self.report.as_details()

    @property
    def total_cost(self) -> float:
        return self.cost.total

    def explain(self, perf=None) -> str:
        """Human-readable execution report: phases, work, time, cost.

        Pass the context's :class:`~repro.cloud.perf.PerfModel` to get
        per-phase durations; without it only counts are shown.
        """
        from repro.common.units import human_bytes, human_dollars, human_seconds

        lines = [f"strategy: {self.strategy or '(unnamed)'}"]
        lines.append(
            f"runtime {human_seconds(self.runtime_seconds)}"
            f"   cost {human_dollars(self.cost.total)}"
            f" (compute {human_dollars(self.cost.compute)},"
            f" request {human_dollars(self.cost.request)},"
            f" scan {human_dollars(self.cost.scan)},"
            f" transfer {human_dollars(self.cost.transfer)})"
        )
        for phase in self.phases:
            duration = f" {human_seconds(perf.phase_time(phase)):>9}" if perf else ""
            lines.append(
                f"  phase {phase.name!r}:{duration}"
                f"  streams={len(phase.streams)}"
                f" requests={phase.requests:g}"
                f" scanned={human_bytes(phase.select_scan_bytes)}"
                f" returned={human_bytes(phase.select_returned_bytes)}"
                f" get={human_bytes(phase.get_bytes)}"
            )
        if self.report is not None:
            lines.extend(self.report.explain_lines())
        lines.append(
            f"  result: {len(self.rows)} row(s), columns {self.column_names}"
        )
        return "\n".join(lines)


class CloudContext:
    """Storage + metering + pricing + performance calibration."""

    #: Default Q-error (max(est/actual, actual/est)) a completed hash
    #: build may reach before adaptive execution re-plans the remaining
    #: join tree.  ~2x matches the classic mid-query re-optimization
    #: literature: below it, reordering rarely pays for itself.
    DEFAULT_ADAPTIVE_THRESHOLD = 2.0

    def __init__(
        self,
        perf: PerfModel | None = None,
        pricing: Pricing | None = None,
        store: ObjectStore | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        adaptive_threshold: float | None = None,
        prune_partitions: bool = True,
        cache_bytes: int = 0,
    ):
        """Args:
            batch_size: rows per RecordBatch in the streaming pipeline.
            adaptive_threshold: build-cardinality Q-error above which
                ``mode="adaptive"`` executions re-plan the un-executed
                part of a join tree (default 2.0).
            prune_partitions: let pushdown scans skip partitions whose
                zone map statically refutes the pushed predicate (fewer
                metered requests).  Results are identical either way —
                the knob exists for A/B measurement and debugging.
            cache_bytes: byte budget for the session's semantic result
                cache (:class:`repro.optimizer.cache.SemanticCache`).
                ``0`` (the default) disables caching entirely —
                ``result_cache`` stays ``None`` and every execution is
                cold, byte-identical to a cache-free build.
        """
        from repro.optimizer.feedback import FeedbackStore

        self.store = store if store is not None else ObjectStore()
        self.metrics = MetricsCollector()
        self.client = S3Client(self.store, self.metrics)
        self.perf = perf if perf is not None else PAPER_PERF
        self.pricing = pricing if pricing is not None else PAPER_PRICING
        #: Session-scoped measured-selectivity/cardinality store; every
        #: executed plan feeds it, every estimate consults it.
        self.feedback = FeedbackStore()
        self.adaptive_threshold = (
            float(adaptive_threshold) if adaptive_threshold is not None
            else self.DEFAULT_ADAPTIVE_THRESHOLD
        )
        if self.adaptive_threshold < 1.0:
            raise ValueError(
                "adaptive_threshold is a Q-error bound and must be >= 1.0,"
                f" got {self.adaptive_threshold}"
            )
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        self.prune_partitions = bool(prune_partitions)
        self.cache_bytes = int(cache_bytes)
        if self.cache_bytes < 0:
            raise ValueError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}"
            )
        #: Session-scoped semantic result cache; ``None`` when disabled
        #: (``cache_bytes=0``) so the cold path never consults it.
        if self.cache_bytes > 0:
            from repro.optimizer.cache import SemanticCache

            self.result_cache = SemanticCache(self.cache_bytes)
        else:
            self.result_cache = None

    def calibrate_to_paper_scale(self, data_bytes: int, paper_bytes: float) -> float:
        """Re-rate the context so ``data_bytes`` behaves like paper scale.

        The paper ran against a 10 GB dataset; ours are orders of
        magnitude smaller.  Scaling every throughput rate by
        ``data_bytes / paper_bytes`` makes simulated runtimes land in the
        paper's absolute ranges (and keeps fixed per-request latency from
        dominating), while :func:`~repro.cloud.pricing.scaled_pricing`
        does the same for dollar costs.  Returns the scale factor.
        """
        from repro.cloud.pricing import scaled_pricing

        scale = data_bytes / paper_bytes
        if scale <= 0:
            raise ValueError("data_bytes and paper_bytes must be positive")
        self.perf = self.perf.scaled(scale)
        self.pricing = scaled_pricing(self.pricing, scale)
        # Per-row ranged GETs stand in for 1/scale paper-scale requests.
        self.client.range_request_weight = 1.0 / scale
        return scale

    def begin_query(self) -> int:
        """Mark the start of a query; returns a metrics position token."""
        return self.metrics.mark()

    def finalize(
        self,
        mark: int,
        rows: list[tuple],
        column_names: Sequence[str],
        phases: list[Phase],
        strategy: str = "",
    ) -> QueryExecution:
        """Price and time the records accumulated since ``mark``."""
        records = self.metrics.records_since(mark)
        runtime = self.perf.runtime(phases)
        cost = cost_of_query(records, runtime, self.pricing)
        return QueryExecution(
            rows=rows,
            column_names=list(column_names),
            phases=phases,
            runtime_seconds=runtime,
            cost=cost,
            num_requests=len(records),
            bytes_scanned=sum(r.bytes_scanned for r in records),
            bytes_returned=sum(r.bytes_returned for r in records),
            bytes_transferred=sum(r.bytes_transferred for r in records),
            strategy=strategy,
        )
