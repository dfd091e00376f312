"""Per-strategy cost prediction built on the execution layer's own math.

Every estimator mirrors what its strategy actually meters: it predicts
the requests, scanned/returned/transferred bytes, S3-side term
evaluations, query-node ingest and local CPU of each phase, assembles
them into the same :class:`~repro.cloud.metrics.Phase` objects the
executor produces, and prices them through the *same*
:class:`~repro.cloud.perf.PerfModel` and
:class:`~repro.cloud.pricing.Pricing` the context bills with.  Nothing
about timing or pricing is duplicated here — only the work counts are
predicted instead of measured, so a calibrated context (paper-scale
rates, scaled pricing, weighted ranged GETs) automatically calibrates
the predictions too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bloom.filter import optimal_num_bits, optimal_num_hashes
from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase, RequestKind, RequestRecord, StreamWork
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.cloud.pricing import CostBreakdown, cost_of_query
from repro.engine.catalog import Catalog, TableInfo
from repro.optimizer.feedback import estimate_selectivity_with_feedback
from repro.optimizer.stats import TableStats
from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
from repro.sqlparser import ast
from repro.strategies.filter import REQUEST_WORKERS, FilterQuery
from repro.strategies.groupby import (
    _SQL_BUDGET_BYTES,
    DEFAULT_S3_GROUPS,
    DEFAULT_SAMPLE_FRACTION,
    GroupByQuery,
    _agg_column_sql,
    _group_match_sql,
)
from repro.strategies.join import DEFAULT_FPR, JoinQuery
from repro.strategies.topk import (
    TopKQuery,
    optimal_sample_size,
    order_bytes_fraction,
)


#: Candidate hybrid group-by split points (head groups pushed to S3);
#: the estimator prices each and keeps the cheapest (ROADMAP "optimizer
#: coverage": the split used to be priced at the default only).
HYBRID_SPLIT_CANDIDATES = (4, 6, 8, 12, 16)


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


def _conjuncts(expr: ast.Expr | None) -> int:
    """Top-level WHERE conjuncts — the validator's term unit."""
    if expr is None:
        return 0
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return 1


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
    """A predicted phase: totals spread evenly over ``streams`` lanes."""
    n = max(int(streams), 1)
    if requests is None:
        requests = float(n)
    work = [
        StreamWork(
            requests=requests / n,
            select_scan_bytes=scan_bytes / n,
            select_returned_bytes=returned_bytes / n,
            get_bytes=get_bytes / n,
            term_evals=term_evals / n,
        )
        for _ in range(n)
    ]
    return Phase(
        name=name,
        streams=work,
        server_cpu_seconds=cpu_seconds,
        server_records=records,
        server_fields=fields,
    )


def price_phases(
    ctx: CloudContext, strategy: str, phases: list[Phase],
    notes: dict | None = None,
) -> StrategyEstimate:
    """Price predicted phases through ``ctx``'s PerfModel and Pricing.

    The one place predicted work becomes seconds and dollars: every
    strategy estimator and the plan cost walker
    (:mod:`repro.planner.costing`) end here, so a calibrated context
    calibrates every prediction.
    """
    runtime = ctx.perf.runtime(phases)
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


class CostModel:
    """Predicts :class:`StrategyEstimate` profiles for candidate plans."""

    def __init__(self, ctx: CloudContext, catalog: Catalog):
        self.ctx = ctx
        self.catalog = catalog

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _finalize(
        self, strategy: str, phases: list[Phase], notes: dict | None = None
    ) -> StrategyEstimate:
        return price_phases(self.ctx, strategy, phases, notes)

    def _table(self, name: str) -> tuple[TableInfo, TableStats]:
        info = self.catalog.get(name)
        return info, info.stats_or_default()

    def _selectivity(
        self, table: str, predicate: ast.Expr | None, stats: TableStats
    ) -> float:
        """Session-feedback-first selectivity (System-R when cold)."""
        return estimate_selectivity_with_feedback(
            self.ctx.feedback, table, predicate, stats
        )

    @staticmethod
    def _output_cpu(n_rows: float, output_items) -> float:
        """Local cost of a final select list (aggregation or projection)."""
        if not output_items:
            return 0.0
        has_aggregate = any(
            not isinstance(i.expr, ast.Star) and ast.contains_aggregate(i.expr)
            for i in output_items
        )
        rate = (
            SERVER_CPU_PER_ROW["aggregate"]
            if has_aggregate
            else SERVER_CPU_PER_ROW["filter"]
        )
        return n_rows * len(output_items) * rate

    # ------------------------------------------------------------------
    # filters (paper Section IV, Figure 1)
    # ------------------------------------------------------------------
    def estimate_filter(
        self,
        query: FilterQuery,
        selectivity: float | None = None,
        include_extensions: bool = False,
    ) -> list[StrategyEstimate]:
        """Candidates: server-side filter, S3-side filter, S3-side indexing.

        ``include_extensions=True`` adds the multi-range-GET indexed
        filter (paper Suggestion 1) — an extension real S3 does not
        offer, so it is opt-in rather than a default candidate.
        """
        table, stats = self._table(query.table)
        if selectivity is None:
            selectivity = self._selectivity(query.table, query.predicate, stats)
        n = table.num_rows
        matched = selectivity * n
        columns = (
            query.projection if query.projection is not None
            else list(table.schema.names)
        )
        out_width = stats.projected_row_bytes(columns)
        notes = {"selectivity": selectivity, "matched_rows": matched}
        estimates = []

        # server-side: GET everything, filter (and project) locally.
        cpu = n * SERVER_CPU_PER_ROW["filter"]
        if query.projection is not None:
            cpu += matched * len(columns) * SERVER_CPU_PER_ROW["filter"]
        cpu += self._output_cpu(matched, query.output)
        estimates.append(self._finalize(
            "server-side filter",
            [_phase(
                "load+filter", table.partitions,
                get_bytes=float(table.total_bytes),
                cpu_seconds=cpu,
                records=n, fields=n * len(table.schema),
            )],
            notes,
        ))

        # s3-side: push selection + projection into one scan.
        estimates.append(self._finalize(
            "s3-side filter",
            [_phase(
                "s3-filter", table.partitions,
                scan_bytes=float(table.total_bytes),
                returned_bytes=matched * out_width,
                term_evals=n * _conjuncts(query.predicate),
                cpu_seconds=self._output_cpu(matched, query.output),
                records=matched, fields=matched * len(columns),
            )],
            notes,
        ))

        # indexing: only when a single-column predicate has an index.
        referenced = ast.referenced_columns(query.predicate)
        if len(referenced) == 1 and next(iter(referenced)).lower() in table.indexes:
            index = table.indexes[next(iter(referenced)).lower()]
            index_row = index.total_bytes / max(n, 1)
            phase1 = _phase(
                "index-lookup", len(index.keys),
                scan_bytes=float(index.total_bytes),
                returned_bytes=matched * (index_row * 0.8),  # offsets only
                term_evals=n * _conjuncts(query.predicate),
                records=matched, fields=matched * 2,
            )
            cpu = self._output_cpu(matched, query.output)
            if query.projection is not None:
                cpu += matched * len(columns) * SERVER_CPU_PER_ROW["filter"]
            phase2 = _phase(
                "record-fetch", REQUEST_WORKERS,
                get_bytes=matched * stats.avg_row_bytes,
                requests=matched * self.ctx.client.range_request_weight,
                cpu_seconds=cpu,
                records=matched, fields=matched * len(table.schema),
            )
            estimates.append(
                self._finalize("s3-side indexing", [phase1, phase2], notes)
            )
            if include_extensions:
                from repro.strategies.extensions import MAX_RANGES_PER_REQUEST

                # Suggestion 1: the same index lookup, but phase 2
                # batches matched extents into multi-range GETs, so the
                # per-record request flood collapses to ~one request per
                # partition per MAX_RANGES batch.
                row_weight = self.ctx.client.range_request_weight
                requests = max(
                    float(table.partitions),
                    matched * row_weight / MAX_RANGES_PER_REQUEST,
                )
                # Same local work as the indexing candidate's phase 2
                # (`cpu` above); only the fetch requests change.
                fetch = _phase(
                    "multirange-fetch", table.partitions,
                    get_bytes=matched * stats.avg_row_bytes,
                    requests=requests,
                    cpu_seconds=cpu,
                    records=matched, fields=matched * len(table.schema),
                )
                estimates.append(self._finalize(
                    "multirange indexed filter", [phase1, fetch], notes
                ))
        return estimates

    # ------------------------------------------------------------------
    # group-by (paper Section VI, Figures 5-7)
    # ------------------------------------------------------------------
    def _groupby_shape(self, query: GroupByQuery, stats: TableStats):
        table = self.catalog.get(query.table)
        sel = self._selectivity(query.table, query.predicate, stats)
        needed = query.needed_columns(table)
        groups = 1
        for col in query.group_columns:
            col_stats = stats.column(col)
            groups *= max(col_stats.distinct, 1) if col_stats else 32
        groups = min(groups, max(stats.row_count, 1))
        accumulators = sum(
            2 if a.func.upper() == "AVG" else 1 for a in query.aggregates
        )
        return table, sel, needed, groups, accumulators

    def _case_chunks(self, query: GroupByQuery, groups: int, stats: TableStats):
        """(num chunk-queries, case columns) of the pushed aggregation."""
        group_cols = query.group_columns
        rep_values = tuple(
            (stats.column(c).max_value if stats.column(c) else 999)
            for c in group_cols
        )
        match = _group_match_sql(list(group_cols), rep_values)
        per_group_bytes = 0
        case_cols_per_group = 0
        for agg in query.aggregates:
            cols = _agg_column_sql(agg, match)
            case_cols_per_group += len(cols)
            per_group_bytes += sum(len(c.encode()) + 2 for c in cols)
        total_bytes = groups * per_group_bytes
        chunks = max(1, math.ceil(total_bytes / _SQL_BUDGET_BYTES))
        return chunks, groups * case_cols_per_group

    def estimate_group_by(
        self,
        query: GroupByQuery,
        s3_groups: int = DEFAULT_S3_GROUPS,
        sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
        include_hybrid: bool = True,
        objective: str = "cost",
        include_extensions: bool = False,
    ) -> list[StrategyEstimate]:
        """Candidates: server-side, filtered, S3-side, hybrid group-by.

        ``include_extensions=True`` adds the Suggestion-4 partial
        group-by pushdown — a capability real S3 does not offer, so it
        is opt-in rather than a default candidate.
        """
        _, stats = self._table(query.table)
        table, sel, needed, groups, accumulators = self._groupby_shape(query, stats)
        n = table.num_rows
        kept = sel * n
        agg_cpu_rate = SERVER_CPU_PER_ROW["aggregate"]
        notes = {"groups": groups, "selectivity": sel}
        estimates = []

        # server-side: GET everything, aggregate locally.
        cpu = kept * accumulators * agg_cpu_rate
        if query.predicate is not None:
            cpu += n * SERVER_CPU_PER_ROW["filter"]
        estimates.append(self._finalize(
            "server-side group-by",
            [_phase(
                "load+groupby", table.partitions,
                get_bytes=float(table.total_bytes),
                cpu_seconds=cpu,
                records=n, fields=n * len(table.schema),
            )],
            notes,
        ))

        # filtered: project group + aggregate columns, aggregate locally.
        estimates.append(self._finalize(
            "filtered group-by",
            [_phase(
                "select+groupby", table.partitions,
                scan_bytes=float(table.total_bytes),
                returned_bytes=kept * stats.projected_row_bytes(needed),
                term_evals=n * _conjuncts(query.predicate),
                cpu_seconds=kept * accumulators * agg_cpu_rate,
                records=kept, fields=kept * len(needed),
            )],
            notes,
        ))

        # s3-side: distinct groups locally, then CASE-encoded aggregation.
        chunks, case_columns = self._case_chunks(query, groups, stats)
        phase1 = _phase(
            "collect-groups", table.partitions,
            scan_bytes=float(table.total_bytes),
            returned_bytes=kept * stats.projected_row_bytes(query.group_columns),
            term_evals=n * _conjuncts(query.predicate),
            cpu_seconds=kept * agg_cpu_rate,
            records=kept, fields=kept * len(query.group_columns),
        )
        # Every chunk query re-scans all rows: its own CASE columns plus
        # the WHERE conjuncts are evaluated per scanned row per chunk.
        phase2 = _phase(
            "s3-aggregate", table.partitions,
            scan_bytes=float(table.total_bytes) * chunks,
            returned_bytes=case_columns * table.partitions * 12.0,
            term_evals=n * case_columns
            + n * chunks * _conjuncts(query.predicate),
            requests=float(table.partitions * chunks),
        )
        estimates.append(self._finalize(
            "s3-side group-by", [phase1, phase2],
            {**notes, "case_columns": case_columns, "chunks": chunks},
        ))

        if include_extensions:
            # Suggestion 4: a real GROUP BY pushed to storage — one scan
            # per partition returning per-group partial aggregates,
            # merged locally.  Per-row S3 work is one term per pushed
            # accumulator (AVG decomposes into SUM + COUNT), independent
            # of the group count — the whole point of the suggestion.
            per_partition = kept / max(table.partitions, 1)
            seen = (
                groups * (1.0 - (1.0 - 1.0 / groups) ** per_partition)
                if groups > 0 else 0.0
            )
            partial_rows = table.partitions * max(
                min(seen, per_partition), 0.0
            )
            pushed_width = (
                stats.projected_row_bytes(query.group_columns)
                + accumulators * 12.0
            )
            estimates.append(self._finalize(
                "partial group-by pushdown",
                [_phase(
                    "partial-groupby", table.partitions,
                    scan_bytes=float(table.total_bytes),
                    returned_bytes=partial_rows * pushed_width,
                    term_evals=n * (accumulators + _conjuncts(query.predicate)),
                    records=partial_rows,
                    fields=partial_rows
                    * (len(query.group_columns) + accumulators),
                )],
                {**notes, "partial_rows": partial_rows},
            ))

        if not (include_hybrid and len(query.group_columns) == 1):
            return estimates

        # hybrid: sample for the head groups, push those, pull the tail.
        # The split point (how many head groups go to S3) is priced as a
        # swept parameter: every candidate split is estimated and the
        # best under the caller's objective becomes the hybrid
        # candidate, carrying its split in ``notes["s3_groups"]`` so
        # `run_auto` can execute it.
        splits = list(dict.fromkeys(
            [*HYBRID_SPLIT_CANDIDATES, s3_groups]
        ))
        swept = [
            self._estimate_hybrid(
                query, stats, table, sel, needed, groups, accumulators,
                notes, split, sample_fraction,
            )
            for split in splits
        ]
        best = min(swept, key=objective_key(objective))
        best.notes["split_candidates"] = {
            e.notes["s3_groups"]: round(e.total_cost, 9) for e in swept
        }
        estimates.append(best)
        return estimates

    def _estimate_hybrid(
        self,
        query: GroupByQuery,
        stats: TableStats,
        table: TableInfo,
        sel: float,
        needed: list[str],
        groups: int,
        accumulators: int,
        notes: dict,
        s3_groups: int,
        sample_fraction: float,
    ) -> StrategyEstimate:
        """Price hybrid group-by for one head-group split point."""
        n = table.num_rows
        kept = sel * n
        agg_cpu_rate = SERVER_CPU_PER_ROW["aggregate"]
        group_stats = stats.column(query.group_columns[0])
        head_groups = min(s3_groups, groups)
        head_fraction = (
            group_stats.mcv_fraction(stats.row_count, head_groups)
            if group_stats is not None
            else head_groups / max(groups, 1)
        )
        if head_fraction <= 0.0:
            head_fraction = head_groups / max(groups, 1)
        sampled = n * sample_fraction
        tail_rows = kept * (1.0 - head_fraction)
        h_chunks, h_case_columns = self._case_chunks(
            query, head_groups, stats
        )
        sample_phase = _phase(
            "sample-groups", table.partitions,
            scan_bytes=float(table.total_bytes) * sample_fraction,
            returned_bytes=sampled * sel
            * stats.projected_row_bytes(query.group_columns),
            term_evals=sampled * _conjuncts(query.predicate),
            cpu_seconds=sampled * sel * agg_cpu_rate,
            records=sampled * sel, fields=sampled * sel,
        )
        q1_scan = float(table.total_bytes) * h_chunks
        q2_terms = n * (_conjuncts(query.predicate) + 1)
        split_phase = _phase(
            "s3-agg+tail", 2 * table.partitions,
            scan_bytes=q1_scan + float(table.total_bytes),
            returned_bytes=h_case_columns * table.partitions * 12.0
            + tail_rows * stats.projected_row_bytes(needed),
            term_evals=n * h_case_columns + q2_terms,
            requests=float(table.partitions * (h_chunks + 1)),
            cpu_seconds=tail_rows * accumulators * agg_cpu_rate,
            records=tail_rows, fields=tail_rows * len(needed),
        )
        return self._finalize(
            "hybrid group-by", [sample_phase, split_phase],
            {**notes, "head_groups": head_groups,
             "head_fraction": head_fraction, "s3_groups": s3_groups},
        )

    # ------------------------------------------------------------------
    # top-K (paper Section VII, Figures 8-9)
    # ------------------------------------------------------------------
    def estimate_top_k(
        self,
        query: TopKQuery,
        sample_size: int | None = None,
        alpha: float | None = None,
    ) -> list[StrategyEstimate]:
        """Candidates: server-side top-K, sampling-based top-K."""
        table, stats = self._table(query.table)
        n = table.num_rows
        k = query.k
        heap_rate = SERVER_CPU_PER_ROW["heap"]
        log_k = max(1.0, math.log2(max(k, 2)))
        estimates = [self._finalize(
            "server-side top-k",
            [_phase(
                "load+topk", table.partitions,
                get_bytes=float(table.total_bytes),
                cpu_seconds=n * log_k * heap_rate,
                records=n, fields=n * len(table.schema),
            )],
            {"k": k},
        )]
        if k > n:
            return estimates

        if alpha is None:
            alpha = order_bytes_fraction(table, query.order_column)
        if sample_size is None:
            sample_size = optimal_sample_size(k, n, alpha)
        sample_size = max(min(sample_size, n), min(k, n))
        fraction = min(1.0, sample_size / n) if n else 1.0
        # The threshold is the K-th order statistic of the sample, so the
        # expected pass fraction of phase 2 is K/S (±sampling noise).
        pass_rows = min(float(n), n * k / max(sample_size, 1))
        sample_cpu = sample_size * math.log2(max(sample_size, 2)) * 6e-9
        phase1 = _phase(
            "sample", table.partitions,
            scan_bytes=float(table.total_bytes) * fraction,
            returned_bytes=sample_size
            * stats.projected_row_bytes([query.order_column]),
            cpu_seconds=sample_cpu,
            records=sample_size, fields=sample_size,
        )
        phase2 = _phase(
            "scan", table.partitions,
            scan_bytes=float(table.total_bytes),
            returned_bytes=pass_rows * stats.avg_row_bytes,
            term_evals=float(n),
            cpu_seconds=pass_rows * log_k * heap_rate,
            records=pass_rows, fields=pass_rows * len(table.schema),
        )
        estimates.append(self._finalize(
            "sampling top-k", [phase1, phase2],
            {"k": k, "sample_size": sample_size, "expected_pass": pass_rows},
        ))
        return estimates

    # ------------------------------------------------------------------
    # joins (paper Section V, Figures 2-4)
    # ------------------------------------------------------------------
    def _side(self, name: str, projection, predicate):
        info, stats = self._table(name)
        sel = self._selectivity(name, predicate, stats)
        columns = projection if projection is not None else list(info.schema.names)
        return info, stats, sel, columns

    def estimate_join(
        self, query: JoinQuery, fpr: float = DEFAULT_FPR
    ) -> list[StrategyEstimate]:
        """Candidates: baseline join, filtered join, Bloom join."""
        build, b_stats, b_sel, b_cols = self._side(
            query.build_table, query.build_projection, query.build_predicate
        )
        probe, p_stats, p_sel, p_cols = self._side(
            query.probe_table, query.probe_projection, query.probe_predicate
        )
        nb, np_ = build.num_rows, probe.num_rows
        build_rows = b_sel * nb
        probe_rows = p_sel * np_
        # Containment assumption: every (distinct) build key appears in
        # the probe at the probe's mean per-key multiplicity.
        probe_key_stats = p_stats.column(query.probe_key)
        probe_distinct = (
            max(probe_key_stats.distinct, 1) if probe_key_stats else max(np_, 1)
        )
        build_key_stats = b_stats.column(query.build_key)
        build_distinct = (
            max(build_key_stats.distinct, 1) if build_key_stats else max(nb, 1)
        )
        distinct_keys = min(build_rows, build_distinct)
        match_fraction = min(1.0, distinct_keys / probe_distinct)
        matched_probe = probe_rows * match_fraction
        out_rows = matched_probe
        output_cpu = self._output_cpu(out_rows, query.output)
        notes = {
            "build_rows": build_rows,
            "probe_rows": probe_rows,
            "matched_probe_rows": matched_probe,
        }
        estimates = []

        # baseline: GET both tables whole.
        cpu = (
            nb * SERVER_CPU_PER_ROW["filter"] * (query.build_predicate is not None)
            + np_ * SERVER_CPU_PER_ROW["filter"] * (query.probe_predicate is not None)
            + build_rows * SERVER_CPU_PER_ROW["hash_build"]
            + np_ * p_sel * SERVER_CPU_PER_ROW["hash_probe"]
            + output_cpu
        )
        estimates.append(self._finalize(
            "baseline join",
            [_phase(
                "load+join", build.partitions + probe.partitions,
                get_bytes=float(build.total_bytes + probe.total_bytes),
                cpu_seconds=cpu,
                records=nb + np_,
                fields=nb * len(build.schema) + np_ * len(probe.schema),
            )],
            notes,
        ))

        # filtered: push both selections/projections, one parallel phase.
        cpu = (
            build_rows * SERVER_CPU_PER_ROW["hash_build"]
            + probe_rows * SERVER_CPU_PER_ROW["hash_probe"]
            + output_cpu
        )
        estimates.append(self._finalize(
            "filtered join",
            [_phase(
                "select+join", build.partitions + probe.partitions,
                scan_bytes=float(build.total_bytes + probe.total_bytes),
                returned_bytes=build_rows * b_stats.projected_row_bytes(b_cols)
                + probe_rows * p_stats.projected_row_bytes(p_cols),
                term_evals=nb * _conjuncts(query.build_predicate)
                + np_ * _conjuncts(query.probe_predicate),
                cpu_seconds=cpu,
                records=build_rows + probe_rows,
                fields=build_rows * len(b_cols) + probe_rows * len(p_cols),
            )],
            notes,
        ))

        # Bloom: serial build scan, then Bloom-filtered probe scan.
        if build.schema.column(query.build_key).type == "int":
            hashes = optimal_num_hashes(fpr)
            bits = optimal_num_bits(int(max(distinct_keys, 1)), fpr)
            predicate_bytes = hashes * (bits + 60)
            degraded = predicate_bytes > EXPRESSION_LIMIT_BYTES
            bloom_pass = (
                probe_rows
                if degraded
                else matched_probe + (probe_rows - matched_probe) * fpr
            )
            phase1 = _phase(
                "build+bloom", build.partitions,
                scan_bytes=float(build.total_bytes),
                returned_bytes=build_rows * b_stats.projected_row_bytes(b_cols),
                term_evals=nb * _conjuncts(query.build_predicate),
                cpu_seconds=distinct_keys * SERVER_CPU_PER_ROW["bloom_insert"],
                records=build_rows, fields=build_rows * len(b_cols),
            )
            phase2 = _phase(
                "probe+join", probe.partitions,
                scan_bytes=float(probe.total_bytes),
                returned_bytes=bloom_pass * p_stats.projected_row_bytes(p_cols),
                term_evals=np_
                * (_conjuncts(query.probe_predicate) + (0 if degraded else hashes)),
                cpu_seconds=build_rows * SERVER_CPU_PER_ROW["hash_build"]
                + bloom_pass * SERVER_CPU_PER_ROW["hash_probe"]
                + output_cpu,
                records=bloom_pass, fields=bloom_pass * len(p_cols),
            )
            estimates.append(self._finalize(
                "bloom join", [phase1, phase2],
                {**notes, "bloom_bits": bits, "bloom_hashes": hashes,
                 "degraded": degraded},
            ))
        return estimates
