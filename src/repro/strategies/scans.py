"""Shared table-scan helpers for the pushdown strategies.

Two ways to get table data onto the query node, matching the paper's two
baselines:

* :func:`get_table` — plain GETs of every partition object, parsed
  locally ("server-side" processing);
* :func:`select_table` — one S3 Select request per partition with a SQL
  string ("S3-side" processing).

Both are built on :func:`scan_partitions`, which fans the per-partition
requests out over a worker pool (``workers`` knob, default serial) and
hands back per-partition results.  :func:`iter_scan_batches` exposes the
same scan as a stream of RecordBatches for the planner's streaming
pipeline.  The caller wraps the metered requests into a
:class:`~repro.cloud.metrics.Phase` via :func:`phase_since`.

Concurrency never changes *what* is metered: every partition request is
issued regardless of how results are consumed, so rows, bytes and cost
are identical for any ``workers`` setting — only wall-clock changes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.common.errors import ReproError
from repro.engine.catalog import TableInfo
from repro.s3select.engine import PreparedSelect, ScanRange
from repro.engine.batch import Batch, rechunk_batches
from repro.engine.operators.base import materialize
from repro.storage.csvcodec import iter_decode_column_batches
from repro.storage.parquet import ParquetFile


@dataclass(frozen=True)
class PartitionScan:
    """Result of scanning one table partition (GET + parse, or S3 Select)."""

    index: int
    key: str
    #: The partition's data as pipeline batches: a raw GET decoded
    #: locally, or the batches of an S3 Select response.
    batches: list[Batch]
    #: Column names of an S3 Select response; ``None`` for raw GETs
    #: (the table schema applies unchanged).
    column_names: list[str] | None

    @cached_property
    def rows(self) -> list[tuple]:
        """The partition's row tuples (materialized on first use)."""
        return materialize(self.batches)


def _decode_partition(
    table: TableInfo,
    data: bytes,
    batch_size: int,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Lazily decode one GET'd partition object into batches of
    ``columns`` (default: the whole schema)."""
    if table.format == "csv":
        return iter_decode_column_batches(
            data, table.schema, batch_size=batch_size, has_header=False,
            columns=columns,
        )
    return ParquetFile(data).iter_batches(columns, batch_size=batch_size)


def _resolve_workers(ctx: CloudContext, workers: int | None) -> int:
    if workers is None:
        workers = ctx.workers
    if workers is None:
        return 1
    return max(1, int(workers))


def scan_partitions(
    ctx: CloudContext,
    table: TableInfo,
    sql: str | None = None,
    *,
    workers: int | None = None,
    scan_range_fraction: float | None = None,
    ordered: bool = True,
    partitions: Sequence[int] | None = None,
) -> Iterator[PartitionScan]:
    """Scan ``table``'s partitions, optionally concurrently.

    Args:
        sql: S3 Select SQL to push per partition; ``None`` issues plain
            GETs and parses locally.
        workers: concurrent partition requests.  ``None`` falls back to
            ``ctx.workers`` (default serial).  Concurrency affects
            wall-clock only, never the metered requests, rows, or cost.
        scan_range_fraction: scan only the leading fraction of each
            partition (sampling phases; S3 bills just the range).
        ordered: yield results in partition order (deterministic row
            order for callers that concatenate).  ``False`` yields in
            completion order.
        partitions: partition indices to scan; ``None`` scans them all.
            Zone-map pruning passes the surviving subset here — skipped
            partitions issue *no* request, so pruning cuts the metered
            request count, not just bytes.
    """
    workers = _resolve_workers(ctx, workers)
    if partitions is None:
        items = list(enumerate(table.keys))
    else:
        items = [(i, table.keys[i]) for i in partitions]
    # One statement for the whole scan, prepared only if a partition is
    # actually requested: bad SQL raises before any request is metered,
    # and a fully pruned scan never looks at its SQL.
    statement = PreparedSelect(sql) if sql is not None and items else None

    def scan_one(index: int, key: str) -> PartitionScan:
        if statement is None:
            data = ctx.client.get_object(table.bucket, key)
            batches = list(_decode_partition(table, data, ctx.batch_size))
            return PartitionScan(
                index=index, key=key, batches=batches, column_names=None
            )
        scan_range = None
        if scan_range_fraction is not None:
            size = ctx.store.object_size(table.bucket, key)
            end = max(1, int(size * scan_range_fraction))
            scan_range = ScanRange(start=0, end=end)
        result = ctx.client.select_object_content(
            table.bucket, key, statement, scan_range=scan_range
        )
        return PartitionScan(
            index=index,
            key=key,
            batches=result.batches,
            column_names=result.column_names,
        )

    if workers <= 1 or len(items) <= 1:
        return iter([scan_one(i, k) for i, k in items])
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [pool.submit(scan_one, i, k) for i, k in items]
        ordering = futures if ordered else as_completed(futures)
        results = [f.result() for f in ordering]
    return iter(results)


def iter_scan_batches(
    ctx: CloudContext,
    table: TableInfo,
    sql: str | None = None,
    *,
    workers: int | None = None,
    batch_size: int | None = None,
    scan_range_fraction: float | None = None,
    partitions: Sequence[int] | None = None,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Stream a table scan as batches, in partition order.

    The per-partition requests are issued eagerly (so request/byte
    accounting is independent of how far the stream is consumed); for
    plain GETs the *decoding* is lazy, so a downstream LIMIT that stops
    pulling never parses the remaining bytes, and only ``columns``
    (default: the whole schema) are decoded — a GET still transfers
    every byte.  A pushed scan's projection is its ``sql``.
    """
    if batch_size is None:
        batch_size = ctx.batch_size
    if sql is None:
        return _iter_get_batches(
            ctx, table, workers=workers, batch_size=batch_size,
            partitions=partitions, columns=columns,
        )
    scans = scan_partitions(
        ctx, table, sql, workers=workers, scan_range_fraction=scan_range_fraction,
        partitions=partitions,
    )
    # Only the batch boundaries of the responses are re-cut (ingest
    # accounting under LIMIT counts whole batches).
    return rechunk_batches(
        (batch for scan in scans for batch in scan.batches), batch_size
    )


def _iter_get_batches(
    ctx: CloudContext,
    table: TableInfo,
    workers: int | None,
    batch_size: int,
    partitions: Sequence[int] | None = None,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """GET the partitions (metered, possibly concurrent), decode lazily."""
    workers = _resolve_workers(ctx, workers)
    if partitions is None:
        keys = list(table.keys)
    else:
        keys = [table.keys[i] for i in partitions]
    if workers <= 1 or len(keys) <= 1:
        payloads = [ctx.client.get_object(table.bucket, k) for k in keys]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(keys))) as pool:
            payloads = list(
                pool.map(lambda k: ctx.client.get_object(table.bucket, k), keys)
            )

    return (
        batch
        for data in payloads
        for batch in _decode_partition(table, data, batch_size, columns)
    )


def get_table(
    ctx: CloudContext, table: TableInfo, workers: int | None = None
) -> list[tuple]:
    """Load every partition with plain GETs and parse locally."""
    rows: list[tuple] = []
    for scan in scan_partitions(ctx, table, workers=workers):
        rows.extend(scan.rows)
    return rows


def _merge_names(names: list[str], scan: PartitionScan) -> list[str]:
    """Adopt the first partition's column names; insist the rest agree."""
    if not scan.column_names:
        return names
    if not names:
        return scan.column_names
    if scan.column_names != names:
        raise ReproError(
            f"partition {scan.key!r} returned columns {scan.column_names},"
            f" expected {names}"
        )
    return names


def select_table(
    ctx: CloudContext,
    table: TableInfo,
    sql: str,
    scan_range_fraction: float | None = None,
    workers: int | None = None,
    partitions: Sequence[int] | None = None,
) -> tuple[list[tuple], list[str]]:
    """Run one S3 Select per (surviving) partition; concatenate results.

    Column names come from the first partition's response (they are a
    function of the query and schema, so an empty trailing partition can
    no longer blank them out) and are asserted consistent across
    partitions.

    Args:
        scan_range_fraction: if given, scan only the leading fraction of
            each partition (used by sampling phases; S3 bills just the
            range scanned).
        workers: concurrent partition requests (default ``ctx.workers``).
        partitions: partition indices to request (zone-map pruning's
            surviving subset); ``None`` selects every partition.
    """
    rows: list[tuple] = []
    names: list[str] = []
    for scan in scan_partitions(
        ctx, table, sql, workers=workers, scan_range_fraction=scan_range_fraction,
        partitions=partitions,
    ):
        rows.extend(scan.rows)
        names = _merge_names(names, scan)
    return rows, names


def select_aggregate(
    ctx: CloudContext,
    table: TableInfo,
    sql: str,
    workers: int | None = None,
    partitions: Sequence[int] | None = None,
) -> tuple[list[list[object]], list[str]]:
    """Run an aggregate-only select per partition, keeping partials apart.

    Each partition returns exactly one row of partial aggregates; the
    caller merges them (SUM/COUNT add, MIN/MAX compare).  Returned as a
    list of per-partition rows, in partition order.  A pruned-away
    partition contributes no partial — sound for SUM/COUNT/MIN/MAX
    because its refuted rows would only have produced NULL/zero
    partials.
    """
    partials: list[list[object]] = []
    names: list[str] = []
    for scan in scan_partitions(ctx, table, sql, workers=workers,
                                partitions=partitions):
        if scan.rows:
            partials.append(list(scan.rows[0]))
        names = _merge_names(names, scan)
    return partials, names


def merge_sum_partials(partials: list[list[object]]) -> list[object]:
    """Merge per-partition SUM/COUNT rows by element-wise addition.

    NULL partials (empty partitions) are skipped, matching SQL SUM
    semantics.
    """
    if not partials:
        return []
    merged: list[object] = list(partials[0])
    for row in partials[1:]:
        for i, value in enumerate(row):
            if value is None:
                continue
            merged[i] = value if merged[i] is None else merged[i] + value
    return merged


def phase_since(
    ctx: CloudContext,
    mark: int,
    name: str,
    streams: int | None = None,
    server_cpu_seconds: float = 0.0,
    ingest: tuple[int, int] | None = None,
    workers: int | None = None,
) -> Phase:
    """Bundle all requests issued since ``mark`` into one phase.

    Args:
        ingest: ``(records, columns)`` the query node materializes from
            this phase's responses; the performance model charges
            per-record and per-field parse time for them.
        workers: bound the modeled stream concurrency of the phase
            (see :class:`~repro.cloud.metrics.Phase`).  ``None`` keeps
            the fully overlapped model.
    """
    records, columns = ingest if ingest is not None else (0, 0)
    return Phase.from_records(
        name,
        ctx.metrics.records_since(mark),
        streams=streams,
        server_cpu_seconds=server_cpu_seconds,
        server_records=records,
        server_fields=records * columns,
        workers=workers,
    )


def projection_sql(columns: Sequence[str], where_sql: str | None = None) -> str:
    """Build the simple pushdown SQL used all over the strategies."""
    select_list = ", ".join(columns) if columns else "*"
    sql = f"SELECT {select_list} FROM S3Object"
    if where_sql:
        sql += f" WHERE {where_sql}"
    return sql
