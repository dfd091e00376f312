"""Table-scan helpers under the plan nodes.

Two ways to get table data onto the query node, matching the paper's two
baselines: plain GETs of every partition object, decoded locally
("server-side" processing), or one S3 Select request per partition with
a statement ("S3-side" processing).  :func:`iter_scan_batches` streams
either as RecordBatches; :func:`scan_partitions` hands back the pushed
scan's responses partition by partition, and :func:`select_partials` an
aggregating statement's partials as one batch.  A statement is a tree
(:func:`select_query`) prepared as a ``PreparedSelect``: nothing here is
parsed.  The caller wraps the metered requests into a
:class:`~repro.cloud.metrics.Phase` via :func:`phase_since`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.engine.catalog import TableInfo
from repro.s3select.engine import PreparedSelect, ScanRange
from repro.engine.batch import Batch, rechunk_batches
from repro.sqlparser import ast
from repro.storage.csvcodec import iter_decode_column_batches
from repro.storage.parquet import ParquetFile


def _decode_partition(
    table: TableInfo,
    data: bytes,
    batch_size: int,
    columns: Sequence[str] | None = None,
    memo: dict | None = None,
) -> Iterator[Batch]:
    """Lazily decode one GET'd partition object into batches of
    ``columns`` (default: the whole schema); ``memo`` is the decoded
    slot of the stored object ``data`` came from, if it still is it."""
    if table.format == "csv":
        return iter_decode_column_batches(
            data, table.schema, batch_size=batch_size, has_header=False,
            columns=columns, memo=memo,
        )
    return ParquetFile(data).iter_batches(columns, batch_size=batch_size)


def decoded_columns(
    table: TableInfo, needed: Sequence[str], predicate: ast.Expr | None = None
) -> list[str]:
    """What a GET scan decodes, in schema order: the columns the plan
    above it reads (``needed``, its pushdown twin's projection) plus
    those a local ``predicate`` reads."""
    wanted = set(needed)
    if predicate is not None:
        wanted |= ast.referenced_columns(predicate)
    return table.schema.subset(wanted)


def _partition_keys(table: TableInfo, partitions: Sequence[int] | None) -> list[str]:
    if partitions is None:
        return list(table.keys)
    return [table.keys[i] for i in partitions]


def scan_partitions(
    ctx: CloudContext,
    table: TableInfo,
    statement: PreparedSelect,
    *,
    scan_range_fraction: float | None = None,
    partitions: Sequence[int] | None = None,
) -> list[list[Batch]]:
    """Push ``statement`` to ``table``'s partitions; each response's
    batches, in partition order.

    Args:
        scan_range_fraction: scan only the leading fraction of each
            partition (sampling phases; S3 bills just the range).
        partitions: partition indices to scan; ``None`` scans them all.
            Zone-map pruning passes the surviving subset here — skipped
            partitions issue *no* request, so pruning cuts the metered
            request count, not just bytes.
    """
    def select(key: str) -> list[Batch]:
        scan_range = None
        if scan_range_fraction is not None:
            size = ctx.store.object_size(table.bucket, key)
            scan_range = ScanRange(start=0, end=max(1, int(size * scan_range_fraction)))
        return ctx.client.select_object_content(
            table.bucket, key, statement, scan_range=scan_range
        ).batches

    return [select(key) for key in _partition_keys(table, partitions)]


def iter_scan_batches(
    ctx: CloudContext,
    table: TableInfo,
    statement: PreparedSelect | None = None,
    *,
    batch_size: int | None = None,
    scan_range_fraction: float | None = None,
    partitions: Sequence[int] | None = None,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Stream a table scan as batches, in partition order.

    The per-partition requests are issued eagerly (so request/byte
    accounting is independent of how far the stream is consumed); for
    plain GETs (``statement=None``) the *decoding* is lazy, so a
    downstream LIMIT that stops pulling never parses the remaining bytes,
    and only ``columns`` (default: the whole schema) are decoded — a GET
    still transfers every byte.  A pushed scan's projection is its
    ``statement``'s.
    """
    if batch_size is None:
        batch_size = ctx.batch_size
    if statement is None:
        def get(key: str) -> tuple[bytes, dict | None]:
            # The object's decoded columns go with the payload only if the
            # GET returned that object's very bytes (no overwrite in between).
            obj = ctx.store.get_object(table.bucket, key)
            data = ctx.client.get_object(table.bucket, key)
            return data, obj.decoded if obj.data is data else None

        payloads = [get(key) for key in _partition_keys(table, partitions)]
        return (
            batch
            for data, memo in payloads
            for batch in _decode_partition(table, data, batch_size, columns, memo)
        )
    responses = scan_partitions(
        ctx, table, statement, scan_range_fraction=scan_range_fraction,
        partitions=partitions,
    )
    # Only the batch boundaries of the responses are re-cut (ingest
    # accounting under LIMIT counts whole batches).
    return rechunk_batches(chain.from_iterable(responses), batch_size)


def select_partials(
    ctx: CloudContext,
    table: TableInfo,
    statement: PreparedSelect,
    width: int,
    **scan,
) -> Batch:
    """Push an aggregating ``statement`` (``width`` output columns) to
    ``table``'s partitions (``scan`` as for :func:`scan_partitions`); its
    partials as one batch, a row per partition — or per (partition,
    group) — in partition order."""
    responses = scan_partitions(ctx, table, statement, **scan)
    return Batch.concat(list(chain.from_iterable(responses)), width)


def phase_since(
    ctx: CloudContext,
    mark: int,
    name: str,
    streams: int | None = None,
    server_cpu_seconds: float = 0.0,
    ingest: tuple[int, int] | None = None,
) -> Phase:
    """Bundle all requests issued since ``mark`` into one phase.

    Args:
        ingest: ``(records, columns)`` the query node materializes from
            this phase's responses; the performance model charges
            per-record and per-field parse time for them.
    """
    records, columns = ingest if ingest is not None else (0, 0)
    return Phase.from_records(
        name,
        ctx.metrics.records_since(mark),
        streams=streams,
        server_cpu_seconds=server_cpu_seconds,
        server_records=records,
        server_fields=records * columns,
    )


def select_query(
    items: Sequence[str | ast.Expr],
    where: ast.Expr | None = None,
    group_by: Sequence[str] = (),
) -> ast.Query:
    """``SELECT items FROM S3Object [WHERE where] [GROUP BY group_by]`` as
    a tree, a ``str`` item naming a column: the statements the paper's
    strategies push."""
    return ast.Query(
        tuple(ast.SelectItem(ast.Column(i) if isinstance(i, str) else i) for i in items),
        ("S3Object",), where, tuple(map(ast.Column, group_by)),
    )

