"""The paper's three filtering strategies (Section IV), as plan constructors.

* **server-side filter** — GET the whole table, filter on the query node;
* **S3-side filter** — push the WHERE clause into an S3 Select request;
* **S3-side indexing** — query an index table via S3 Select (phase 1),
  then fetch each matching record with its own byte-range GET (phase 2).

Figure 1 compares them across selectivities: S3-side filter wins broadly,
indexing wins only when very few rows match (each match costs one HTTP
request), and server-side is ~10x slower than S3-side throughout.

Each ``*_plan`` constructor builds a :mod:`repro.planner.nodes` tree
annotated with its estimates: the chooser prices the very plan the
runner of the same name executes.  The index access is a leaf of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.optimizer.cost import _phase
from repro.optimizer.feedback import estimated_rows
from repro.planner import physical
from repro.planner.nodes import (
    FilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    whole_table_select,
)
from repro.planner.physical import PhysicalPlan
from repro.planner.tail import column_items, select_list_node
from repro.s3select.engine import PreparedSelect
from repro.sqlparser import ast
from repro.storage.csvcodec import iter_decode_column_batches
from repro.strategies.scans import decoded_columns, phase_since, select_query


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

    def reads(self, table: TableInfo) -> list[str]:
        """The table columns the query-node side of the plan computes its
        result from (all of them for a bare ``SELECT *`` shape)."""
        if self.projection is not None:
            return list(self.projection)
        if self.output is None or any(
            isinstance(item.expr, ast.Star) for item in self.output
        ):
            return list(table.schema.names)
        return decoded_columns(table, set().union(
            *(ast.referenced_columns(item.expr) for item in self.output)
        ))

    def local_tail(self, node: PlanNode) -> PlanNode:
        """The projection and select list applied on the query node."""
        if self.projection is not None:
            node = ProjectNode(node, column_items(self.projection))
        return select_list_node(node, self.output)


def server_side_filter_node(
    ctx: CloudContext,
    table: TableInfo,
    query: FilterQuery,
    phase_label: str = "load+filter",
) -> PlanNode:
    """GET scan, local filter, local projection and select list.  The
    filter sits above the scan, not in it: the phase ingests every
    loaded row, as the paper's server-side baseline does."""
    scan = ScanNode(
        table, decoded_columns(table, query.reads(table), query.predicate),
        None, pushdown=False, phase_label=phase_label,
    )
    node = FilterNode(scan, query.predicate)
    node.est_rows = estimated_rows(ctx, table, query.predicate)
    return query.local_tail(node)


def server_side_filter_plan(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> PhysicalPlan:
    """Load the entire table from S3 and filter on the compute node."""
    root = server_side_filter_node(ctx, catalog.get(query.table), query)
    return PhysicalPlan(root, "baseline", "server-side filter")


server_side_filter = physical.runner(server_side_filter_plan)


def s3_side_filter_plan(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> PhysicalPlan:
    """Push selection (and projection) into S3 Select."""
    table = catalog.get(query.table)
    matched = estimated_rows(ctx, table, query.predicate)
    scan = whole_table_select(
        table, query.projection, query.predicate, "s3-filter", est_rows=matched
    )
    return PhysicalPlan(
        select_list_node(scan, query.output), "optimized", "s3-side filter"
    )


s3_side_filter = physical.runner(s3_side_filter_plan)


class IndexFetchNode(PlanNode):
    """Leaf: two-phase index access (Section IV-A).

    Phase 1 (``index-lookup``) pushes the predicate to the index table's
    ``value`` column, one prepared statement for every index object, and
    gets back the matching records' byte extents.  Phase 2 fetches them:
    one ranged GET per record from a pool of :data:`REQUEST_WORKERS`
    (``record-fetch``) — which is exactly why this strategy degrades at
    higher selectivities (Figure 1) — or, with the paper's Suggestion 1,
    ``ranges_per_request`` extents per multi-range GET
    (``multirange-fetch``).  Every request is issued before the first
    batch; the fetched records decode lazily, ``columns`` only.
    """

    def __init__(
        self,
        table: TableInfo,
        predicate: ast.Expr,
        columns: list[str],
        ranges_per_request: int | None = None,
        est_rows: float | None = None,
    ):
        column = _single_indexed_column(table, predicate)
        self.table = table
        self.columns = list(columns)
        self.index = table.index_for(column)
        self.index_predicate = ast.rename_columns(predicate, {column: "value"})
        self.ranges_per_request = ranges_per_request
        self.est_rows = est_rows

    def describe(self) -> str:
        per_get = self.ranges_per_request or 1
        return (
            f"index-fetch {self.table.name} [{per_get} range(s) per get]"
            f" cols={len(self.columns)} pred=({self.index_predicate.to_sql()})"
        )

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        table, matched = self.table, self.est_rows
        index_row = self.index.total_bytes / max(table.num_rows, 1)
        lookup = _phase(
            "index-lookup", len(self.index.keys),
            scan_bytes=float(self.index.total_bytes),
            returned_bytes=matched * (index_row * 0.8),  # offsets only
            term_evals=table.num_rows
            * len(ast.split_conjuncts(self.index_predicate)),
            records=matched, fields=matched * 2,
        )
        # One request per record — or, batched, per `ranges_per_request`
        # of them and at least one per partition.
        requests = matched * ctx.client.range_request_weight
        label, streams = "record-fetch", REQUEST_WORKERS
        if self.ranges_per_request is not None:
            label, streams = "multirange-fetch", table.partitions
            requests = max(float(streams), requests / self.ranges_per_request)
        fetch = _phase(
            label, streams,
            get_bytes=matched * table.stats.avg_row_bytes,
            requests=requests,
            records=matched, fields=matched * len(table.schema),
        )
        return [lookup, fetch]

    def run(self, state: physical.ExecState):
        ctx, table = state.ctx, self.table
        mark = ctx.metrics.mark()
        statement = PreparedSelect(select_query(["first_byte", "last_byte"], self.index_predicate))
        extents_per_partition = [
            [
                (int(first), int(last))
                for batch in ctx.client.select_object_content(
                    table.bucket, key, statement
                ).batches
                for first, last in batch
            ]
            for key in self.index.keys
        ]
        matched = sum(map(len, extents_per_partition))
        state.phases.append(phase_since(
            ctx, mark, "index-lookup", streams=len(self.index.keys),
            ingest=(matched, 2),
        ))

        # No S3 Select involved, hence no scan/return charges — only
        # request cost.
        mark = ctx.metrics.mark()
        per_request = self.ranges_per_request
        if per_request is None:
            payloads = [
                ctx.client.get_object_range(table.bucket, key, first, last)
                for key, extents in zip(table.keys, extents_per_partition)
                for first, last in extents
            ]
            # The per-record GETs are issued by a bounded pool of workers;
            # the dispatch term of the performance model charges every
            # request beyond one per worker stream.
            label, streams = "record-fetch", REQUEST_WORKERS
        else:
            # One multi-range request stands for the number of requests
            # the same batch size would need at paper scale.
            row_weight = ctx.client.range_request_weight
            payloads = []
            for key, extents in zip(table.keys, extents_per_partition):
                for at in range(0, len(extents), per_request):
                    ranges = extents[at : at + per_request]
                    payloads += ctx.client.get_object_ranges(
                        table.bucket, key, ranges,
                        weight=max(1.0, len(ranges) * row_weight / per_request),
                    )
            label, streams = "multirange-fetch", table.partitions
        state.phases.append(phase_since(
            ctx, mark, label, streams=streams,
            ingest=(matched, len(table.schema)),
        ))
        self.extras = {"matched_rows": matched}
        # An extent spans its record's delimiter: the payloads are lines
        # (index tables exist for CSV data only).
        return list(self.columns), iter_decode_column_batches(
            b"".join(payloads), table.schema, batch_size=ctx.batch_size,
            has_header=False, columns=self.columns,
        )


def indexed_filter_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: FilterQuery,
    strategy: str = "s3-side indexing",
    ranges_per_request: int | None = None,
) -> PhysicalPlan:
    """Two-phase index access plus the query's local projection and
    select list: one byte-range GET per matching record (why the paper's
    Suggestion 1 asks for multi-range GETs), or ``ranges_per_request``
    extents per GET."""
    table = catalog.get(query.table)
    matched = estimated_rows(ctx, table, query.predicate)
    fetch = IndexFetchNode(
        table, query.predicate, query.reads(table), ranges_per_request, matched
    )
    return PhysicalPlan(query.local_tail(fetch), "optimized", strategy)


indexed_filter = physical.runner(indexed_filter_plan)


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
