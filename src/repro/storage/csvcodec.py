"""CSV encode/decode for table objects.

Objects are stored exactly as AWS would see them: UTF-8 bytes, ``\\n``
record delimiter, ``,`` field delimiter, RFC-4180 quoting.  The paper's
index-table design (Section IV-A) needs the *byte offset of every row*,
so the encoder can report per-row extents as it writes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

from repro.engine.batch import Batch
from repro.storage.schema import TableSchema

RECORD_DELIM = "\n"
FIELD_DELIM = ","
QUOTE = '"'

#: Rows per :class:`RecordBatch` in the streaming execution pipeline.
#: Large enough to amortize per-batch overhead, small enough that a
#: batch of wide TPC-H rows stays cache-resident.
DEFAULT_BATCH_SIZE = 4096


def format_value(value: object) -> str:
    """Render one Python value as a CSV field ('' for NULL)."""
    if value is None:
        return ""
    if isinstance(value, float):
        # Repr round-trips; avoid trailing noise for integral floats.
        if value.is_integer():
            return f"{value:.1f}"
        return repr(value)
    return str(value)


#: Characters that force a field into RFC-4180 quotes: the field and
#: record delimiters, the quote itself, and CR (CRLF tolerance).
_QUOTE_TRIGGERS = frozenset({FIELD_DELIM, QUOTE, RECORD_DELIM, "\n", "\r"})


def _escape(field: str) -> str:
    if any(ch in _QUOTE_TRIGGERS for ch in field):
        return QUOTE + field.replace(QUOTE, QUOTE + QUOTE) + QUOTE
    return field


def encode_row(row: Sequence[object]) -> bytes:
    """Encode one tuple as a CSV line including the record delimiter."""
    line = FIELD_DELIM.join(_escape(format_value(v)) for v in row)
    return (line + RECORD_DELIM).encode()


def encoded_size(columns: Sequence[Sequence[object]], num_rows: int) -> int:
    """Bytes :func:`encode_row` would emit for the rows ``columns`` hold.

    Sized column-at-a-time — one delimiter per field plus each column's
    UTF-8 text, with RFC-4180 quoting overhead only where a trigger
    character occurs at all — so no row tuple or payload is built.
    """
    total = num_rows * len(columns)
    for column in columns:
        texts = list(map(format_value, column))
        joined = "".join(texts)
        total += len(joined.encode())
        if any(ch in joined for ch in _QUOTE_TRIGGERS):
            total += sum(len(_escape(text)) - len(text) for text in texts)
    return total


@dataclass(frozen=True)
class RowExtent:
    """Byte extent of one encoded row inside a CSV object (inclusive)."""

    first_byte: int
    last_byte: int


def encode_table(
    rows: Iterable[Sequence[object]], header: Sequence[str] | None = None
) -> tuple[bytes, list[RowExtent]]:
    """Encode rows to CSV bytes, returning per-row byte extents.

    The extents exclude the header line and are exactly what the paper's
    index tables store (``first_byte_offset`` / ``last_byte_offset``).
    """
    buf = io.BytesIO()
    if header is not None:
        buf.write(encode_row(list(header)))
    extents: list[RowExtent] = []
    for row in rows:
        start = buf.tell()
        encoded = encode_row(row)
        buf.write(encoded)
        extents.append(RowExtent(first_byte=start, last_byte=start + len(encoded) - 1))
    return buf.getvalue(), extents


def iter_records(data: bytes) -> Iterator[list[str]]:
    """Parse CSV bytes into records (lists of string fields).

    Handles RFC-4180 quoting; tolerant of a missing trailing newline.
    Without a quote character nothing can embed a delimiter, so records
    and fields are plain ``str.split`` pieces (CR is dropped wherever it
    appears, as the quote-aware scanner does).
    """
    text = data.decode()
    if QUOTE in text:
        return _scan_quoted(text)
    lines = text.replace("\r", "").split(RECORD_DELIM)
    if not lines[-1]:
        lines.pop()  # the final record's delimiter, not an empty record
    return map(str.split, lines, repeat(FIELD_DELIM))


def _scan_quoted(text: str) -> Iterator[list[str]]:
    """Character-level RFC-4180 scanner for text that contains quotes."""
    field: list[str] = []
    record: list[str] = []
    in_quotes = False
    i = 0
    n = len(text)
    saw_any = False
    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == QUOTE:
                if i + 1 < n and text[i + 1] == QUOTE:
                    field.append(QUOTE)
                    i += 2
                    continue
                in_quotes = False
                i += 1
                continue
            field.append(ch)
            i += 1
            continue
        if ch == QUOTE:
            in_quotes = True
            saw_any = True
            i += 1
            continue
        if ch == FIELD_DELIM:
            record.append("".join(field))
            field = []
            saw_any = True
            i += 1
            continue
        if ch == "\n":
            record.append("".join(field))
            yield record
            field, record = [], []
            saw_any = False
            i += 1
            continue
        if ch == "\r":
            i += 1
            continue
        field.append(ch)
        saw_any = True
        i += 1
    if saw_any or record:
        record.append("".join(field))
        yield record


def chunk_rows(rows: Iterable, batch_size: int) -> Iterator[list]:
    """Chunk a row iterable into lists of ``batch_size`` rows.

    The final chunk may be short; empty input yields no chunks.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rows = iter(rows)
    while batch := list(islice(rows, batch_size)):
        yield batch


def iter_decode_column_batches(
    data: bytes,
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    has_header: bool = True,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Lazily decode CSV bytes into columnar :class:`Batch`es.

    Nothing is decoded ahead of the consumer, so one that stops early
    (LIMIT, top-K sampling) never pays for the rest of the object.  See
    :func:`iter_column_batches` for the batch layout and errors.
    """
    records = iter_records(data)
    if has_header:
        next(records, None)
    yield from iter_column_batches(records, schema, batch_size, columns)


def iter_column_batches(
    records: Iterable[list[str]],
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Type raw string records into columnar :class:`Batch`es.

    Records are gathered per batch, transposed once, and parsed with one
    typed comprehension per column — no intermediate row tuples.
    ``columns`` keeps only the named columns (in the given order): the
    rest are tokenized but never parsed.  Rows whose field count
    disagrees with the schema raise
    :class:`~repro.common.errors.CatalogError`.
    """
    width = len(schema.columns)
    kept = [
        (schema.index_of(name), schema.column(name))
        for name in (schema.names if columns is None else columns)
    ]
    for raw in chunk_rows(records, batch_size):
        if set(map(len, raw)) != {width}:
            # raises the canonical CatalogError
            schema.parse_row(next(r for r in raw if len(r) != width))
        texts = list(zip(*raw))
        yield Batch([col.parse_column(texts[i]) for i, col in kept], len(raw))
