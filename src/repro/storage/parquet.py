"""A simplified Parquet-like columnar format ("SPQ1").

The paper's Section IX studies S3 Select over Parquet.  What matters for
that experiment is structural, not byte-exact Parquet compatibility:

* data is split into **row groups**;
* inside a row group every column is a separately addressable,
  individually compressed **chunk**;
* a **footer** describes chunk locations, so a scan touching only some
  columns only reads (and is only billed for) those chunks;
* compression shrinks objects to roughly 70 % of CSV (paper's figure).

Layout::

    SPQ1 | chunk chunk chunk ... | footer(JSON) | footer_len(u32 LE) | SPQ1

zlib stands in for Snappy (not installed in this environment); both are
byte-oriented general-purpose codecs, and the experiment only depends on
the compression *ratio*, not the codec identity.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.common.errors import ReproError
from repro.engine.batch import Batch, rechunk_batches
from repro.storage.csvcodec import format_column
from repro.storage.schema import ColumnDef, TableSchema

MAGIC = b"SPQ1"
#: Default row-group size used by the paper's Parquet experiment (100 MB
#: of raw data per group at 10 GB scale); ours is row-count based.
DEFAULT_ROW_GROUP_ROWS = 100_000

_CODECS = ("none", "zlib")


class ParquetFormatError(ReproError):
    """The object is not a valid SPQ1 file."""


@dataclass(frozen=True)
class ChunkMeta:
    """Location of one column chunk inside the file."""

    offset: int
    compressed_size: int
    uncompressed_size: int


@dataclass(frozen=True)
class RowGroupMeta:
    """Metadata for one row group: row count and per-column chunks."""

    num_rows: int
    chunks: tuple[ChunkMeta, ...]  # one per schema column, in order


def _encode_column(values: Sequence[object]) -> bytes:
    """Serialize one column chunk as newline-separated CSV fields."""
    return "\n".join(format_column(values)).encode()


def _decode_column(data: bytes, column: ColumnDef, num_rows: int) -> list[object]:
    if num_rows == 0:
        return []
    fields = data.decode().split("\n")
    if len(fields) != num_rows:
        raise ParquetFormatError(
            f"column chunk has {len(fields)} values, expected {num_rows}"
        )
    return column.parse_column(fields)


def write_parquet(
    rows: Iterable[Sequence[object]],
    schema: TableSchema,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    compression: str = "zlib",
) -> bytes:
    """Encode rows into an SPQ1 object."""
    if compression not in _CODECS:
        raise ParquetFormatError(f"unknown codec {compression!r}; use one of {_CODECS}")
    if row_group_rows <= 0:
        raise ParquetFormatError("row_group_rows must be positive")

    out = bytearray(MAGIC)
    groups: list[dict] = []
    rows = list(rows)
    columns = schema.transpose(rows)
    for start in range(0, len(rows), row_group_rows):
        chunk_metas = []
        for column in columns:
            raw = _encode_column(column[start : start + row_group_rows])
            payload = zlib.compress(raw) if compression == "zlib" else raw
            chunk_metas.append(
                {
                    "offset": len(out),
                    "compressed_size": len(payload),
                    "uncompressed_size": len(raw),
                }
            )
            out.extend(payload)
        num_rows = min(row_group_rows, len(rows) - start)
        groups.append({"num_rows": num_rows, "chunks": chunk_metas})

    footer = json.dumps(
        {
            "version": 1,
            "codec": compression,
            "schema": [{"name": c.name, "type": c.type} for c in schema.columns],
            "row_groups": groups,
        }
    ).encode()
    out.extend(footer)
    out.extend(struct.pack("<I", len(footer)))
    out.extend(MAGIC)
    return bytes(out)


class ParquetFile:
    """Reader over SPQ1 bytes with column-selective access.

    ``scan_bytes_for(columns)`` reports how many bytes a column-selective
    scan touches — this is exactly what the simulated S3 Select bills for
    Parquet input (the real service bills Parquet scans by bytes
    processed per referenced column).
    """

    def __init__(self, data: bytes):
        if len(data) < 12 or not data.startswith(MAGIC) or not data.endswith(MAGIC):
            raise ParquetFormatError("missing SPQ1 magic bytes")
        (footer_len,) = struct.unpack("<I", data[-8:-4])
        footer_end = len(data) - 8
        footer_start = footer_end - footer_len
        if footer_start < len(MAGIC):
            raise ParquetFormatError("footer length is corrupt")
        try:
            meta = json.loads(data[footer_start:footer_end])
        except json.JSONDecodeError as exc:
            raise ParquetFormatError("footer is not valid JSON") from exc
        self._data = data
        self._codec = meta["codec"]
        self.schema = TableSchema(
            [ColumnDef(c["name"], c["type"]) for c in meta["schema"]]
        )
        self.row_groups: tuple[RowGroupMeta, ...] = tuple(
            RowGroupMeta(
                num_rows=g["num_rows"],
                chunks=tuple(
                    ChunkMeta(
                        offset=c["offset"],
                        compressed_size=c["compressed_size"],
                        uncompressed_size=c["uncompressed_size"],
                    )
                    for c in g["chunks"]
                ),
            )
            for g in meta["row_groups"]
        )
        self._footer_size = footer_len + 8 + 2 * len(MAGIC)

    def _read_chunk(self, group: RowGroupMeta, col_idx: int) -> list[object]:
        chunk = group.chunks[col_idx]
        payload = self._data[chunk.offset : chunk.offset + chunk.compressed_size]
        raw = zlib.decompress(payload) if self._codec == "zlib" else payload
        return _decode_column(raw, self.schema.columns[col_idx], group.num_rows)

    def iter_batches(
        self,
        names: Sequence[str] | None = None,
        batch_size: int | None = None,
    ) -> Iterator[Batch]:
        """Lazily yield the named columns (default: all) as batches.

        One :class:`Batch` per row group — only the referenced column
        chunks of a group are decompressed, and only when the group is
        reached, so a consumer that stops early (LIMIT pushdown) never
        decodes the remaining groups — re-cut to ``batch_size`` rows when
        one is given.  No names means zero-column batches that still
        carry each group's row count.
        """
        names = self.schema.names if names is None else names
        indexes = [self.schema.index_of(n) for n in names]
        groups = (
            Batch([self._read_chunk(group, idx) for idx in indexes], group.num_rows)
            for group in self.row_groups
        )
        if batch_size is None:
            return groups
        if batch_size <= 0:
            raise ParquetFormatError(f"batch_size must be positive, got {batch_size}")
        return rechunk_batches(groups, batch_size)

    def scan_bytes_for(self, names: Sequence[str] | None = None) -> int:
        """Bytes a column-selective scan reads: referenced chunks + footer."""
        if names is None:
            indexes = list(range(len(self.schema)))
        else:
            indexes = sorted({self.schema.index_of(n) for n in names})
        touched = sum(
            group.chunks[i].compressed_size for group in self.row_groups for i in indexes
        )
        return touched + self._footer_size
