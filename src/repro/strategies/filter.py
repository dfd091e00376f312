"""The paper's three filtering strategies (Section IV).

* **server-side filter** — GET the whole table, filter on the query node;
* **S3-side filter** — push the WHERE clause into an S3 Select request;
* **S3-side indexing** — query an index table via S3 Select (phase 1),
  then fetch each matching record with its own byte-range GET (phase 2).

Figure 1 compares them across selectivities: S3-side filter wins broadly,
indexing wins only when very few rows match (each match costs one HTTP
request), and server-side is ~10x slower than S3-side throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.engine.operators.filter import filter_rows
from repro.engine.operators.project import project_columns
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.storage.csvcodec import iter_records
from repro.strategies.base import finish_output
from repro.strategies.scans import (
    get_table,
    phase_since,
    projection_sql,
    select_table,
)


#: Parallel workers issuing the indexing strategy's byte-range GETs
#: (PushdownDB "spawns multiple processes"; one per core of r4.8xlarge).
REQUEST_WORKERS = 32


@dataclass
class FilterQuery:
    """A filter micro-query: predicate plus optional projection/output."""

    table: str
    predicate: ast.Expr
    projection: list[str] | None = None
    #: Optional final select list (aggregates allowed), applied locally.
    output: list[ast.SelectItem] | None = None


def server_side_filter(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> QueryExecution:
    """Load the entire table from S3 and filter on the compute node."""
    table = catalog.get(query.table)
    mark = ctx.begin_query()
    rows = get_table(ctx, table)
    loaded = (len(rows), len(table.schema))
    filtered = filter_rows(rows, table.schema.names, query.predicate)
    cpu = filtered.cpu_seconds
    rows_out, names = filtered.rows, filtered.column_names
    if query.projection is not None:
        projected = project_columns(rows_out, names, query.projection)
        cpu += projected.cpu_seconds
        rows_out, names = projected.rows, projected.column_names
    out = finish_output(rows_out, names, query.output)
    cpu += out.cpu_seconds
    phase = phase_since(
        ctx, mark, "load+filter", streams=table.partitions,
        server_cpu_seconds=cpu, ingest=loaded,
    )
    return ctx.finalize(
        mark, out.rows, out.column_names, [phase], strategy="server-side filter"
    )


def s3_side_filter(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> QueryExecution:
    """Push selection (and projection) into S3 Select."""
    table = catalog.get(query.table)
    mark = ctx.begin_query()
    columns = query.projection if query.projection is not None else list(table.schema.names)
    sql = projection_sql(columns, query.predicate.to_sql())
    rows, names = select_table(ctx, table, sql)
    out = finish_output(rows, names, query.output)
    phase = phase_since(
        ctx, mark, "s3-filter", streams=table.partitions,
        server_cpu_seconds=out.cpu_seconds, ingest=(len(rows), len(names)),
    )
    return ctx.finalize(
        mark, out.rows, out.column_names, [phase], strategy="s3-side filter"
    )


def index_lookup(ctx: CloudContext, table, query: FilterQuery):
    """Phase 1 of the index strategies: push the predicate to the index
    table's ``value`` column, one prepared statement for every index object.

    Returns the query's metrics mark, the matched ``(first_byte,
    last_byte)`` extents per data partition, their count and the phase.
    """
    index_column = _single_indexed_column(table, query.predicate)
    index = table.index_for(index_column)
    index_predicate = ast.rename_columns(query.predicate, {index_column: "value"})
    statement = PreparedSelect(
        projection_sql(["first_byte", "last_byte"], index_predicate.to_sql())
    )
    mark = ctx.begin_query()
    extents_per_partition: list[list[tuple[int, int]]] = []
    for key in index.keys:
        result = ctx.client.select_object_content(table.bucket, key, statement)
        extents_per_partition.append([(int(a), int(b)) for a, b in result.rows])
    matched = sum(len(e) for e in extents_per_partition)
    phase = phase_since(
        ctx, mark, "index-lookup", streams=len(index.keys), ingest=(matched, 2)
    )
    return mark, extents_per_partition, matched, phase


def indexed_filter(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> QueryExecution:
    """Two-phase index access (Section IV-A).

    Phase 1 pushes the predicate to the index table; phase 2 issues one
    byte-range GET per matching record — which is exactly why this
    strategy degrades at higher selectivities (Figure 1) and why the
    paper's Suggestion 1 asks for multi-range GETs.
    """
    table = catalog.get(query.table)
    mark, extents_per_partition, matched, phase1 = index_lookup(ctx, table, query)

    # Phase 2: one ranged GET per matched record (no S3 Select involved,
    # hence no scan/return charges — only request cost).
    mark2 = ctx.metrics.mark()
    rows: list[tuple] = []
    for data_key, extents in zip(table.keys, extents_per_partition):
        for first_byte, last_byte in extents:
            payload = ctx.client.get_object_range(
                table.bucket, data_key, first_byte, last_byte
            )
            for record in iter_records(payload):
                rows.append(table.schema.parse_row(record))
    names: list[str] = list(table.schema.names)
    cpu = 0.0
    if query.projection is not None:
        projected = project_columns(rows, names, query.projection)
        cpu += projected.cpu_seconds
        rows, names = projected.rows, projected.column_names
    out = finish_output(rows, names, query.output)
    cpu += out.cpu_seconds
    # The per-record GETs are issued by a bounded pool of workers; the
    # dispatch term of the performance model charges every request beyond
    # one per worker stream.
    phase2 = phase_since(
        ctx, mark2, "record-fetch", streams=REQUEST_WORKERS,
        server_cpu_seconds=cpu, ingest=(matched, len(table.schema)),
    )
    return ctx.finalize(
        mark,
        out.rows,
        out.column_names,
        [phase1, phase2],
        strategy="s3-side indexing",
        details={"matched_rows": matched},
    )


def _single_indexed_column(table, predicate: ast.Expr) -> str:
    """The one column the predicate touches (index access requirement)."""
    columns = ast.referenced_columns(predicate)
    if len(columns) != 1:
        raise PlanError(
            "indexed filtering requires a predicate over exactly one column,"
            f" got {sorted(columns)}"
        )
    (column,) = columns
    if column.lower() not in table.indexes:
        raise PlanError(
            f"no index on {column!r} for table {table.name!r};"
            f" indexed columns: {sorted(table.indexes)}"
        )
    return column
