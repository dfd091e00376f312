"""Working implementations of the paper's Section X suggestions.

The paper closes with a list of S3 Select interface changes that would
improve PushdownDB.  Two of them are concrete enough to build and
measure against the unmodified strategies:

* **Suggestion 1 — multi-range GETs**: the indexing strategy collapses
  at moderate selectivity because every matched record costs one HTTP
  request (Figure 1).  :func:`multirange_indexed_filter` batches up to
  :data:`MAX_RANGES_PER_REQUEST` byte ranges into one request, cutting
  both the dispatch time and the request bill by three orders.
* **Suggestion 4 — partial group-by in S3**:
  :func:`partial_pushdown_group_by` pushes a real ``GROUP BY`` to the
  (extended) storage engine, one scan instead of the CASE-encoded two
  scans of S3-side group-by, with per-row cost independent of the group
  count.

Both require capabilities the real S3 does not offer; the benchmarks in
``benchmarks/test_ext_suggestions.py`` quantify what AWS users are
leaving on the table.  Both are plan constructors: the first is the
index-fetch leaf of :mod:`repro.strategies.filter` with a range batch
size, the second a leaf node of its own.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.engine.catalog import Catalog
from repro.optimizer.cost import _phase
from repro.planner import physical
from repro.planner.physical import PhysicalPlan
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.strategies.filter import FilterQuery, indexed_filter_plan
from repro.strategies.groupby import (
    GroupByQuery,
    PushedGroupByNode,
    assemble_group_rows,
)
from repro.strategies.scans import merge_partial, phase_since, select_query

#: Ranges batched into one extended GET request.
MAX_RANGES_PER_REQUEST = 1000


def multirange_indexed_filter_plan(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> PhysicalPlan:
    """Indexed filtering with Suggestion 1's multi-range GETs.

    Phase 1 is identical to :func:`repro.strategies.filter.indexed_filter`;
    phase 2 fetches all matched extents of a partition with one request
    per :data:`MAX_RANGES_PER_REQUEST` ranges.
    """
    return indexed_filter_plan(
        ctx, catalog, query, "indexing + multirange GET (suggestion 1)",
        ranges_per_request=MAX_RANGES_PER_REQUEST,
    )


multirange_indexed_filter = physical.runner(multirange_indexed_filter_plan)


class PartialGroupByNode(PushedGroupByNode):
    """Suggestion 4's partial GROUP BY pushed to storage.

    One scan (``partial-groupby``): each partition returns per-group
    partial aggregates, merged on the query node.  AVG is decomposed
    into SUM and COUNT so partials merge exactly.
    """

    kind = "partial-group-by"

    def predicted_phases(self, ctx: CloudContext, combined=False) -> list[Phase]:
        """One scan, one S3-side term per pushed accumulator whatever the
        group count (the point of the suggestion); each partition returns
        a row per group it saw."""
        table, query, groups = self.table, self.query, self.est_rows
        per_partition = self.est_kept / max(table.partitions, 1)
        seen = groups * (1.0 - (1.0 - 1.0 / groups) ** per_partition)
        partial_rows = table.partitions * max(min(seen, per_partition), 0.0)
        accumulators = query.accumulators()
        width = (
            table.stats_or_default().projected_row_bytes(query.group_columns)
            + accumulators * 12.0
        )
        return [_phase(
            "partial-groupby", table.partitions,
            scan_bytes=float(table.total_bytes),
            returned_bytes=partial_rows * width,
            term_evals=table.num_rows
            * (accumulators + len(ast.split_conjuncts(query.predicate))),
            records=partial_rows,
            fields=partial_rows * (len(query.group_columns) + accumulators),
        )]

    def group_rows(self, ctx: CloudContext, phases: list[Phase]) -> list[tuple]:
        table, query = self.table, self.query
        # One pushed column per partial, and how each merges.
        pushed = [
            (agg.func.upper(), ast.Aggregate(partial, agg.parsed_expr))
            for agg in query.aggregates for partial in agg.partial_funcs
        ]
        statement = PreparedSelect(select_query(
            [*query.group_columns, *(column for _, column in pushed)],
            query.predicate, query.group_columns,
        ), allow_group_by=True)

        mark = ctx.metrics.mark()
        n_group = len(query.group_columns)
        merged: dict[tuple, list] = {}
        rows_returned = 0
        for key in table.keys:
            result = ctx.client.select_object_content(table.bucket, key, statement)
            rows_returned += len(result.rows)
            for row in result.rows:
                partials = merged.get(row[:n_group])
                if partials is None:
                    merged[row[:n_group]] = list(row[n_group:])
                    continue
                for i, (func, _) in enumerate(pushed):
                    partials[i] = merge_partial(func, partials[i], row[n_group + i])
        phases.append(phase_since(
            ctx, mark, "partial-groupby", streams=table.partitions,
            ingest=(rows_returned, n_group + len(pushed)),
        ))
        self.extras = {
            "groups": len(merged), "partial_rows_returned": rows_returned,
        }
        return assemble_group_rows(query, merged)


def partial_pushdown_group_by_plan(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> PhysicalPlan:
    """Group-by with Suggestion 4's partial GROUP BY pushed to storage."""
    root = PartialGroupByNode(ctx, catalog.get(query.table), query)
    return PhysicalPlan(
        root, "optimized", "partial group-by pushdown (suggestion 4)"
    )


partial_pushdown_group_by = physical.runner(partial_pushdown_group_by_plan)

