"""The paper's four group-by strategies (Section VI).

* **server-side** — GET everything, hash-aggregate locally;
* **filtered** — push projection (group + aggregate columns) into S3
  Select, aggregate locally;
* **S3-side** — phase 1 projects the group column and finds distinct
  values locally; phase 2 pushes one ``SUM(CASE WHEN ...)`` column per
  (group, aggregate) so only final aggregates cross the network;
* **hybrid** — sample a prefix of the table to find the populous groups,
  push aggregation for those to S3 (phase-2 query Q1), and pull the
  long-tail rows for local aggregation (query Q2).

S3 Select has no GROUP BY, which is what forces the CASE encoding — and
what the paper's Suggestion 4 (partial group-by) would fix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.engine.operators.groupby import group_by_aggregate
from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
from repro.sqlparser import ast
from repro.strategies.scans import (
    get_table,
    phase_since,
    projection_sql,
    select_aggregate,
    select_table,
)

#: Keep pushed aggregation queries comfortably under the 256 KB limit.
_SQL_BUDGET_BYTES = 200 * 1024

#: Fraction of the table the hybrid strategy samples (paper: "the first
#: 1% of data").
DEFAULT_SAMPLE_FRACTION = 0.01

#: Number of groups hybrid pushes to S3; the paper's Figure 6 finds 6-8
#: optimal for its Zipfian workload.
DEFAULT_S3_GROUPS = 8

_MERGEABLE = {"SUM", "COUNT", "MIN", "MAX", "AVG"}


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: function name plus input expression.

    ``column`` is usually a bare column name but may be any SQL scalar
    expression (``"l_extendedprice * (1 - l_discount)"``) — TPC-H Q1's
    pushdown needs that.
    """

    func: str
    column: str
    name: str | None = None

    def __post_init__(self):
        if self.func.upper() not in _MERGEABLE:
            raise PlanError(f"unsupported aggregate {self.func!r}")

    @property
    def output_name(self) -> str:
        if self.name:
            return self.name
        safe = "".join(c if c.isalnum() else "_" for c in self.column)
        return f"{self.func.lower()}_{safe}"

    def parsed_expr(self) -> ast.Expr:
        from repro.sqlparser.parser import parse_expression

        return parse_expression(self.column)

    def referenced_columns(self) -> set[str]:
        return ast.referenced_columns(self.parsed_expr())

    def to_select_item(self) -> ast.SelectItem:
        return ast.SelectItem(
            expr=ast.Aggregate(func=self.func.upper(), operand=self.parsed_expr()),
            alias=self.output_name,
        )


@dataclass
class GroupByQuery:
    """A group-by micro-query over one table."""

    table: str
    group_columns: list[str]
    aggregates: list[AggSpec]
    predicate: ast.Expr | None = None


def _output_names(query: GroupByQuery) -> list[str]:
    return [*query.group_columns, *(a.output_name for a in query.aggregates)]


def _local_group_by(rows, names, query: GroupByQuery):
    return group_by_aggregate(
        rows,
        names,
        [ast.Column(c) for c in query.group_columns],
        [a.to_select_item() for a in query.aggregates],
    )


def server_side_group_by(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> QueryExecution:
    """GET all columns of all rows; aggregate on the query node."""
    table = catalog.get(query.table)
    mark = ctx.begin_query()
    rows = get_table(ctx, table)
    names = list(table.schema.names)
    cpu = 0.0
    if query.predicate is not None:
        from repro.engine.operators.filter import filter_rows

        filtered = filter_rows(rows, names, query.predicate)
        rows, cpu = filtered.rows, filtered.cpu_seconds
    grouped = _local_group_by(rows, names, query)
    phase = phase_since(
        ctx, mark, "load+groupby",
        streams=table.partitions, server_cpu_seconds=cpu + grouped.cpu_seconds,
        ingest=(len(rows), len(table.schema)),
    )
    return ctx.finalize(
        mark, grouped.rows, grouped.column_names, [phase],
        strategy="server-side group-by",
    )


def filtered_group_by(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> QueryExecution:
    """Push projection (and any predicate) to S3; aggregate locally.

    Loads only the group + aggregate columns — the paper credits this
    with a 64% speedup over server-side on its 20-column table.
    """
    table = catalog.get(query.table)
    agg_columns: list[str] = []
    for agg in query.aggregates:
        agg_columns.extend(
            n for n in table.schema.names if n.lower() in
            {c.lower() for c in agg.referenced_columns()}
        )
    needed = list(dict.fromkeys([*query.group_columns, *agg_columns]))
    sql = projection_sql(
        needed, query.predicate.to_sql() if query.predicate is not None else None
    )
    mark = ctx.begin_query()
    rows, _ = select_table(ctx, table, sql)
    grouped = _local_group_by(rows, needed, query)
    phase = phase_since(
        ctx, mark, "select+groupby",
        streams=table.partitions, server_cpu_seconds=grouped.cpu_seconds,
        ingest=(len(rows), len(needed)),
    )
    return ctx.finalize(
        mark, grouped.rows, grouped.column_names, [phase],
        strategy="filtered group-by",
    )


def s3_side_group_by(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> QueryExecution:
    """Push the whole aggregation to S3 via CASE encoding (Section VI-A)."""
    table = catalog.get(query.table)

    # Phase 1: project group columns, find distinct values locally.
    mark = ctx.begin_query()
    group_rows, _ = select_table(
        ctx, table, projection_sql(query.group_columns, _predicate_sql(query))
    )
    groups = list(dict.fromkeys(group_rows))  # distinct, first-seen order
    cpu1 = len(group_rows) * SERVER_CPU_PER_ROW["aggregate"]
    phase1 = phase_since(
        ctx, mark, "collect-groups", streams=table.partitions,
        server_cpu_seconds=cpu1, ingest=(len(group_rows), len(query.group_columns)),
    )

    # Phase 2: one aggregate column per (group, aggregate), chunked to
    # stay under the expression limit.
    mark2 = ctx.metrics.mark()
    merged = _pushdown_group_aggregates(ctx, table, query, groups)
    phase2 = phase_since(ctx, mark2, "s3-aggregate", streams=table.partitions)

    out_rows = _assemble_group_rows(query, groups, merged)
    return ctx.finalize(
        mark, out_rows, _output_names(query), [phase1, phase2],
        strategy="s3-side group-by", details={"num_groups": len(groups)},
    )


def hybrid_group_by(
    ctx: CloudContext,
    catalog: Catalog,
    query: GroupByQuery,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    s3_groups: int = DEFAULT_S3_GROUPS,
    expression_limit_bytes: int = EXPRESSION_LIMIT_BYTES,
) -> QueryExecution:
    """Hybrid group-by (Section VI-B): big groups at S3, tail locally.

    The pushed-group count is clamped so Q2's ``NOT IN`` tail predicate
    stays within the service's expression limit — a ``NOT IN`` over all
    pushed groups must travel in *one* request (its conjuncts cannot be
    unioned across requests), so groups that do not fit are moved back
    to the local tail instead of failing the query.
    ``expression_limit_bytes`` is a test seam; real S3 is 256 KB.
    """
    table = catalog.get(query.table)
    if len(query.group_columns) != 1:
        raise PlanError("hybrid group-by supports a single group column")
    group_col = query.group_columns[0]

    agg_columns: list[str] = []
    for agg in query.aggregates:
        agg_columns.extend(
            n for n in table.schema.names if n.lower() in
            {c.lower() for c in agg.referenced_columns()}
        )
    needed = list(dict.fromkeys([group_col, *agg_columns]))

    # Phase 1: sample the leading fraction of each partition to find the
    # populous groups.
    mark = ctx.begin_query()
    sample_rows, _ = select_table(
        ctx,
        table,
        projection_sql([group_col], _predicate_sql(query)),
        scan_range_fraction=sample_fraction,
    )
    counts = Counter(row[0] for row in sample_rows)
    large_groups = [(value,) for value, _ in counts.most_common(s3_groups)]

    def q2_sql_for(groups: list[tuple]) -> str:
        tail_predicate = _not_in_sql(group_col, [g[0] for g in groups])
        where_parts = [p for p in (_predicate_sql(query), tail_predicate) if p]
        return projection_sql(needed, " AND ".join(where_parts) or None)

    # Drop the smallest pushed groups until the tail query fits the
    # expression limit; every dropped group is aggregated locally instead.
    while large_groups and len(q2_sql_for(large_groups).encode()) > expression_limit_bytes:
        large_groups.pop()

    cpu1 = len(sample_rows) * SERVER_CPU_PER_ROW["aggregate"]
    phase1 = phase_since(
        ctx, mark, "sample-groups", streams=table.partitions,
        server_cpu_seconds=cpu1, ingest=(len(sample_rows), 1),
    )

    # Phase 2: Q1 pushes aggregation for the large groups; Q2 pulls the
    # remaining rows for local aggregation.  Both run in parallel; the
    # phase model takes the max (cf. Figure 6's two bars).
    mark2 = ctx.metrics.mark()
    merged = _pushdown_group_aggregates(ctx, table, query, large_groups)
    q1_records = ctx.metrics.records_since(mark2)

    mark_q2 = ctx.metrics.mark()
    q2_sql = q2_sql_for(large_groups)
    tail_rows, _ = select_table(ctx, table, q2_sql)
    q2_records = ctx.metrics.records_since(mark_q2)

    tail_grouped = _local_group_by(tail_rows, needed, query)
    phase2 = Phase.from_records(
        "s3-agg+tail",
        q1_records + q2_records,
        streams=2 * table.partitions,
        server_cpu_seconds=tail_grouped.cpu_seconds,
        server_records=len(tail_rows),
        server_fields=len(tail_rows) * len(needed),
    )

    out_rows = _assemble_group_rows(query, large_groups, merged)
    out_rows += tail_grouped.rows
    q1_phase = Phase.from_records("q1", q1_records, streams=table.partitions)
    q2_phase = Phase.from_records(
        "q2", q2_records, streams=table.partitions,
        server_cpu_seconds=tail_grouped.cpu_seconds,
        server_records=len(tail_rows),
        server_fields=len(tail_rows) * len(needed),
    )
    details = {
        "large_groups": len(large_groups),
        "s3_side_seconds": ctx.perf.phase_time(q1_phase),
        "server_side_seconds": ctx.perf.phase_time(q2_phase),
        "tail_rows": len(tail_rows),
        "bytes_returned_phase2": sum(
            r.bytes_returned for r in q1_records + q2_records
        ),
    }
    return ctx.finalize(
        mark, out_rows, _output_names(query), [phase1, phase2],
        strategy="hybrid group-by", details=details,
    )


# ----------------------------------------------------------------------
# pushdown helpers
# ----------------------------------------------------------------------

def _predicate_sql(query: GroupByQuery) -> str | None:
    return query.predicate.to_sql() if query.predicate is not None else None


def _group_match_sql(group_columns: list[str], values: tuple) -> str:
    conjuncts = [
        f"{col} = {ast.Literal(v).to_sql()}" for col, v in zip(group_columns, values)
    ]
    return " AND ".join(conjuncts)


def _not_in_sql(column: str, values: list) -> str | None:
    if not values:
        return None
    rendered = ", ".join(ast.Literal(v).to_sql() for v in values)
    return f"{column} NOT IN ({rendered})"


def _agg_column_sql(agg: AggSpec, match: str) -> list[str]:
    """Pushed S3 Select column(s) computing ``agg`` for one group."""
    func = agg.func.upper()
    if func == "SUM":
        return [f"SUM(CASE WHEN {match} THEN {agg.column} ELSE 0 END)"]
    if func == "COUNT":
        return [f"SUM(CASE WHEN {match} THEN 1 ELSE 0 END)"]
    if func in ("MIN", "MAX"):
        return [f"{func}(CASE WHEN {match} THEN {agg.column} END)"]
    # AVG = SUM / COUNT, merged after partials are combined.
    return [
        f"SUM(CASE WHEN {match} THEN {agg.column} ELSE 0 END)",
        f"SUM(CASE WHEN {match} THEN 1 ELSE 0 END)",
    ]


def _merge_partial(func: str, a, b):
    if a is None:
        return b
    if b is None:
        return a
    if func in ("SUM", "COUNT", "AVG"):
        return a + b
    if func == "MIN":
        return min(a, b)
    return max(a, b)


def _pushdown_group_aggregates(
    ctx: CloudContext,
    table: TableInfo,
    query: GroupByQuery,
    groups: list[tuple],
) -> dict[tuple[int, int], list]:
    """Run the CASE-encoded aggregation queries for ``groups``.

    Returns ``(group_index, agg_index) -> list of merged partial values``
    (one value for most aggregates, two — sum and count — for AVG).

    Queries are chunked so each stays under the expression-size budget;
    every chunk is sent to every partition and partials are merged
    according to the aggregate function.
    """
    # Build the per-(group, agg) column lists with bookkeeping.
    jobs: list[tuple[int, int, list[str]]] = []
    where_sql = _predicate_sql(query)
    for g_idx, values in enumerate(groups):
        match = _group_match_sql(query.group_columns, values)
        for a_idx, agg in enumerate(query.aggregates):
            jobs.append((g_idx, a_idx, _agg_column_sql(agg, match)))

    merged: dict[tuple[int, int], list] = {}
    chunk: list[tuple[int, int, list[str]]] = []
    chunk_bytes = 0
    base_bytes = len(projection_sql(["x"], where_sql).encode()) + 64

    def run_chunk() -> None:
        nonlocal chunk, chunk_bytes
        if not chunk:
            return
        columns = [col for _, _, cols in chunk for col in cols]
        partial_rows, _ = select_aggregate(
            ctx, table, projection_sql(columns, where_sql)
        )
        col_pos = 0
        for g_idx, a_idx, cols in chunk:
            func = query.aggregates[a_idx].func.upper()
            values: list = [None] * len(cols)
            for row in partial_rows:
                for j in range(len(cols)):
                    values[j] = _merge_partial(func, values[j], row[col_pos + j])
            merged[(g_idx, a_idx)] = values
            col_pos += len(cols)
        chunk, chunk_bytes = [], 0

    for job in jobs:
        job_bytes = sum(len(c.encode()) + 2 for c in job[2])
        if chunk and base_bytes + chunk_bytes + job_bytes > _SQL_BUDGET_BYTES:
            run_chunk()
        chunk.append(job)
        chunk_bytes += job_bytes
    run_chunk()
    return merged


def _assemble_group_rows(
    query: GroupByQuery,
    groups: list[tuple],
    merged: dict[tuple[int, int], list],
) -> list[tuple]:
    rows = []
    for g_idx, values in enumerate(groups):
        out: list = list(values)
        for a_idx, agg in enumerate(query.aggregates):
            partials = merged.get((g_idx, a_idx), [None])
            if agg.func.upper() == "AVG":
                total, count = partials
                out.append(None if not count else total / count)
            else:
                value = partials[0]
                if agg.func.upper() == "COUNT" and value is None:
                    value = 0
                out.append(value)
        rows.append(tuple(out))
    return rows
