"""Table catalog and table loader.

PushdownDB addresses tables as sets of S3 objects: each table is
partitioned into multiple objects so partitions can be scanned in
parallel (Section III, "each table is partitioned into multiple objects
in S3").  The catalog records where each table's partitions live, its
schema, and any index tables built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Sequence

from repro.cloud.context import CloudContext
from repro.common.errors import CatalogError
from repro.storage.csvcodec import encode_columns, encoded_size
from repro.storage.parquet import DEFAULT_ROW_GROUP_ROWS, write_parquet
from repro.storage.schema import TableSchema

#: Default number of partition objects per table.  The paper does not fix
#: a count ("the techniques ... do not make any assumptions about how the
#: data is partitioned"); 16 matches the
#: parallelism our performance calibration assumes for the paper's
#: testbed (32 cores, streams per table).
DEFAULT_PARTITIONS = 16


@dataclass
class IndexInfo:
    """One index table (Section IV-A): per data partition, an index object."""

    column: str
    #: index object key for each data partition, parallel to
    #: ``TableInfo.keys``.
    keys: list[str]
    schema: TableSchema
    #: Total encoded size of the index objects; the cost model scans
    #: these in the indexing strategy's phase 1.
    total_bytes: int = 0


@dataclass
class TableInfo:
    """Catalog entry for one table, as :func:`load_table` leaves it: its
    statistics, and per partition (parallel to ``keys``) a row count, an
    encoded size and a zone map."""

    name: str
    bucket: str
    keys: list[str]
    schema: TableSchema
    format: str
    num_rows: int
    total_bytes: int
    partition_rows: list[int]
    #: Encoded size of each partition object; lets the cost model price
    #: a pruned scan by the bytes it actually touches.
    partition_bytes: list[int]
    indexes: dict[str, IndexInfo]
    #: Optimizer statistics collected at load time.
    stats: "TableStats"
    #: Per-partition zone maps (min/max/null-count per column).  Pushdown
    #: scans refute these against the pushed predicate to skip whole
    #: partition requests.
    zone_maps: "list[PartitionZoneMap]"
    #: Zone-map survivors per planned predicate (the join search's memo).
    kept: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def partitions(self) -> int:
        return len(self.keys)

    def index_for(self, column: str) -> IndexInfo:
        key = column.lower()
        if key not in self.indexes:
            raise CatalogError(
                f"table {self.name!r} has no index on {column!r};"
                f" available: {sorted(self.indexes)}"
            )
        return self.indexes[key]


class Catalog:
    """Name -> :class:`TableInfo` registry."""

    def __init__(self):
        self._tables: dict[str, TableInfo] = {}

    def register(self, info: TableInfo) -> None:
        self._tables[info.name.lower()] = info

    def get(self, name: str) -> TableInfo:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(
                f"unknown table {name!r}; registered: {self.table_names()}"
            )
        return self._tables[key]

    def table_names(self) -> list[str]:
        """The registered tables, sorted, each spelled as it was first
        loaded (as EXPLAIN and the binder spell it)."""
        return sorted(info.name for info in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables


def _partition_slices(n_rows: int, partitions: int) -> list[slice]:
    """Split ``n_rows`` into contiguous, near-equal slices."""
    partitions = max(1, min(partitions, n_rows) if n_rows else 1)
    base, extra = divmod(n_rows, partitions)
    slices = []
    start = 0
    for i in range(partitions):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def load_table(
    ctx: CloudContext,
    catalog: Catalog,
    name: str,
    rows: Sequence[tuple],
    schema: TableSchema,
    bucket: str = "tpch",
    partitions: int = DEFAULT_PARTITIONS,
    data_format: str = "csv",
    index_columns: Iterable[str] = (),
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    compression: str = "zlib",
) -> TableInfo:
    """Write ``rows`` to partitioned objects and register the table.

    Data objects carry no header row (the schema travels as object
    metadata), so index-table byte offsets address records directly.
    Loading is a setup step and is deliberately unmetered, matching the
    paper's exclusion of load cost from query cost.  Loading a name again,
    in any spelling, replaces the table under the name the catalog
    registered first: every object under ``{name}/`` that this load did
    not write (data and index objects alike) is deleted, and an object it
    would write byte for byte again is kept, warm (:func:`_put`).

    Every row must be exactly as wide as ``schema``: wider, narrower or
    ragged input raises :class:`CatalogError` before anything changes (a
    previous load's objects, catalog entry, cached results and feedback
    stay).  Each partition is then transposed once; its bytes, index
    entries, zone map and column widths all come from those columns, and
    the table's statistics (row / column counts, min / max, distinct
    counts, widths, MCVs, histograms) from them and the rows.  Every
    table the optimizer sees was loaded here, so every one has them.

    Args:
        index_columns: columns to build Section IV-A index tables for.
            Index objects live under ``{name}/index/{column}/``.
    """
    if data_format not in ("csv", "parquet"):
        raise CatalogError(f"unknown format {data_format!r}")
    if name in catalog:
        # A reload keeps the name the catalog registered, whatever its
        # spelling here: plans, cached results and feedback key on it.
        name = catalog.get(name).name
    found = set(map(len, rows)) - {len(schema)}
    if found:
        raise CatalogError(
            f"cannot load table {name!r}: rows have {sorted(found)} fields,"
            f" schema has {len(schema)}"
        )
    indexes = {
        key: IndexInfo(
            column=key,
            keys=[],
            schema=TableSchema.of(
                f"value:{schema.column(key).type}", "first_byte:int", "last_byte:int"
            ),
        )
        for key in (column.lower() for column in index_columns)
    }
    if indexes and data_format != "csv":
        raise CatalogError("index tables are only supported for CSV data")
    # (Re)loading invalidates every measurement taken against the
    # table's previous contents — stale "facts" must not outlive the
    # data they were measured on.
    ctx.feedback.forget_table(name)
    result_cache = ctx.result_cache
    if result_cache is not None:
        # Same rule for cached results: a reloaded name bumps the
        # table's content version and drops every derived entry, so the
        # semantic cache can never serve rows from the old contents.
        result_cache.invalidate_table(name)
    from repro.optimizer.stats import collect_table_stats, zone_map

    ctx.store.create_bucket(bucket)
    keys, partition_rows, partition_bytes, zone_maps = [], [], [], []
    widths = [0] * len(schema)
    for i, sl in enumerate(_partition_slices(len(rows), partitions)):
        chunk = rows[sl]
        columns = list(zip(*chunk)) or [()] * len(schema)
        if data_format == "csv":
            data, offsets, sizes = encode_columns(columns)
            key = f"{name}/part-{i:04d}.csv"
        else:
            data = write_parquet(
                chunk, schema, row_group_rows=row_group_rows, compression=compression
            )
            # No CSV is stored, but the width statistic is the CSV field's.
            sizes = [encoded_size([c], 0) for c in columns]
            key = f"{name}/part-{i:04d}.spq"
        _put(ctx, bucket, key, data, _metadata(data_format, schema))
        keys.append(key)
        partition_rows.append(len(chunk))
        partition_bytes.append(len(data))
        zone_maps.append(zone_map(columns, schema))
        widths = list(map(add, widths, sizes))
        if indexes:  # CSV only: |value|first_byte|last_byte| per record
            extents = offsets[:-1], [start - 1 for start in offsets[1:]]
        for column, index in indexes.items():
            data, _, _ = encode_columns([columns[schema.index_of(column)], *extents])
            key = f"{name}/index/{column}/part-{i:04d}.csv"
            _put(ctx, bucket, key, data, _metadata("csv", index.schema))
            index.keys.append(key)
            index.total_bytes += len(data)

    info = TableInfo(
        name=name,
        bucket=bucket,
        keys=keys,
        schema=schema,
        format=data_format,
        num_rows=len(rows),
        total_bytes=sum(partition_bytes),
        partition_rows=partition_rows,
        partition_bytes=partition_bytes,
        indexes=indexes,
        stats=collect_table_stats(rows, schema, zone_maps=zone_maps, widths=widths),
        zone_maps=zone_maps,
    )

    # A reload under another layout (fewer partitions, another format, no
    # index) must not leave the previous load's objects in the store.
    written = {*info.keys, *(k for index in indexes.values() for k in index.keys)}
    for key in ctx.store.list_keys(bucket, f"{name}/"):
        if key not in written:
            ctx.store.delete_object(bucket, key)

    catalog.register(info)
    return info


def _put(ctx: CloudContext, bucket: str, key: str, data: bytes, metadata: dict) -> None:
    """Store an object, unless ``key`` already holds these very bytes and
    metadata: that object stays, and with it the columns its memo decoded
    (which depend on ``data`` alone), so a reload of the same rows is warm."""
    store = ctx.store
    if store.object_exists(bucket, key):
        old = store.get_object(bucket, key)
        if old.data == data and old.metadata == metadata:
            return
    store.put_object(bucket, key, data, metadata)


def _metadata(data_format: str, schema: TableSchema) -> dict:
    """Metadata of a headerless object holding ``schema``'s columns."""
    spec = [f"{c.name}:{c.type}" for c in schema.columns]
    return {"format": data_format, "schema": spec, "header": False}
