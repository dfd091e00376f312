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
leaving on the table.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.engine.operators.project import project_columns
from repro.s3select.engine import PreparedSelect
from repro.strategies.base import finish_output
from repro.strategies.filter import FilterQuery, index_lookup
from repro.strategies.groupby import GroupByQuery, _output_names
from repro.strategies.scans import phase_since, projection_sql
from repro.storage.csvcodec import iter_records

#: Ranges batched into one extended GET request.
MAX_RANGES_PER_REQUEST = 1000


def multirange_indexed_filter(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> QueryExecution:
    """Indexed filtering with Suggestion 1's multi-range GETs.

    Phase 1 is identical to :func:`repro.strategies.filter.indexed_filter`;
    phase 2 fetches all matched extents of a partition with one request
    per :data:`MAX_RANGES_PER_REQUEST` ranges.
    """
    table = catalog.get(query.table)
    mark, extents_per_partition, matched, phase1 = index_lookup(ctx, table, query)

    mark2 = ctx.metrics.mark()
    rows: list[tuple] = []
    # One of our multi-range requests stands for the number of requests
    # the same batch size would need at paper scale.
    row_weight = ctx.client.range_request_weight
    for data_key, extents in zip(table.keys, extents_per_partition):
        for start in range(0, len(extents), MAX_RANGES_PER_REQUEST):
            batch = extents[start : start + MAX_RANGES_PER_REQUEST]
            weight = max(1.0, len(batch) * row_weight / MAX_RANGES_PER_REQUEST)
            payloads = ctx.client.get_object_ranges(
                table.bucket, data_key, batch, weight=weight
            )
            for payload in payloads:
                for record in iter_records(payload):
                    rows.append(table.schema.parse_row(record))
    names = list(table.schema.names)
    cpu = 0.0
    if query.projection is not None:
        projected = project_columns(rows, names, query.projection)
        cpu += projected.cpu_seconds
        rows, names = projected.rows, projected.column_names
    out = finish_output(rows, names, query.output)
    cpu += out.cpu_seconds
    phase2 = phase_since(
        ctx, mark2, "multirange-fetch", streams=table.partitions,
        server_cpu_seconds=cpu, ingest=(matched, len(table.schema)),
    )
    return ctx.finalize(
        mark, out.rows, out.column_names, [phase1, phase2],
        strategy="indexing + multirange GET (suggestion 1)",
        details={"matched_rows": matched},
    )


def partial_pushdown_group_by(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> QueryExecution:
    """Group-by with Suggestion 4's partial GROUP BY pushed to storage.

    One scan: each partition returns per-group partial aggregates, merged
    on the query node.  AVG is decomposed into SUM and COUNT so partials
    merge exactly.
    """
    table = catalog.get(query.table)
    pushed_cols: list[str] = list(query.group_columns)
    merge_plan: list[tuple[str, list[int]]] = []  # (func, pushed col positions)
    position = len(query.group_columns)
    for agg in query.aggregates:
        func = agg.func.upper()
        if func == "AVG":
            pushed_cols.append(f"SUM({agg.column})")
            pushed_cols.append(f"COUNT({agg.column})")
            merge_plan.append(("AVG", [position, position + 1]))
            position += 2
        else:
            pushed_cols.append(f"{func}({agg.column})")
            merge_plan.append((func, [position]))
            position += 1

    where_sql = query.predicate.to_sql() if query.predicate is not None else None
    sql = projection_sql(pushed_cols, where_sql)
    sql += " GROUP BY " + ", ".join(query.group_columns)

    mark = ctx.begin_query()
    n_group = len(query.group_columns)
    merged: dict[tuple, list] = {}
    rows_returned = 0
    statement = PreparedSelect(sql, allow_group_by=True)
    for key in table.keys:
        result = ctx.client.select_object_content(table.bucket, key, statement)
        rows_returned += len(result.rows)
        for row in result.rows:
            group = row[:n_group]
            state = merged.get(group)
            if state is None:
                merged[group] = list(row[n_group:])
                continue
            for func, positions in merge_plan:
                for pos in positions:
                    i = pos - n_group
                    state[i] = _merge(func, state[i], row[pos])

    out_rows = []
    for group, state in merged.items():
        values = list(group)
        for func, positions in merge_plan:
            if func == "AVG":
                total, count = (state[p - n_group] for p in positions)
                values.append(None if not count else total / count)
            else:
                values.append(state[positions[0] - n_group])
        out_rows.append(tuple(values))

    phase = phase_since(
        ctx, mark, "partial-groupby", streams=table.partitions,
        ingest=(rows_returned, len(pushed_cols)),
    )
    return ctx.finalize(
        mark, out_rows, _output_names(query), [phase],
        strategy="partial group-by pushdown (suggestion 4)",
        details={"groups": len(merged), "partial_rows_returned": rows_returned},
    )


def _merge(func: str, a, b):
    if a is None:
        return b
    if b is None:
        return a
    if func in ("SUM", "COUNT", "AVG"):
        return a + b
    if func == "MIN":
        return min(a, b)
    if func == "MAX":
        return max(a, b)
    raise PlanError(f"cannot merge partials for {func!r}")
