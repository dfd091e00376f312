"""CSV encode/decode for table objects.

Objects are stored exactly as AWS would see them: UTF-8 bytes, ``\\n``
record delimiter, ``,`` field delimiter, RFC-4180 quoting.  The paper's
index-table design (Section IV-A) needs the *byte offset of every row*,
so the encoder can report per-row extents as it writes.

Stored objects are immutable and the paper's experiments read each one
many times (every query in several variants; S3 Select scans the whole
object per request), so :func:`iter_decode_column_batches` can keep what
it typed on the object itself: a memo of packed column-chunks — this
module alone knows its layout — that later requests and GET scans
rebuild columns from instead of tokenizing the text again — plus, for
columns an S3 Select response returned bare, each field's encoded width,
so such a response is sized by a sum (:func:`returned_size`).  It sits
below the meter: no request, byte or row count depends on it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from typing import Iterable, Iterator, Sequence

from repro.engine.batch import Batch
from repro.storage.schema import ColumnDef, TableSchema

RECORD_DELIM = "\n"
FIELD_DELIM = ","
QUOTE = '"'

#: Rows per :class:`~repro.engine.batch.Batch` in the streaming
#: execution pipeline.  Large enough to amortize per-batch overhead,
#: small enough that a batch of wide TPC-H rows stays cache-resident.
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


def format_column(values: Sequence[object]) -> Sequence[str]:
    """:func:`format_value` of a whole column, dispatched once on the
    types it holds: text is returned as it is, pure int / float columns
    render in one pass, anything else (NULLs, bools, mixed, a float in
    exponent form) per value."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return values
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {float}:
        # ``repr`` is already the fixed-point text (``2.0``) unless it took
        # the exponent form, which an integral float must not keep.
        texts = list(map(repr, values))
        if "e" not in "".join(texts):
            return texts
    return list(map(format_value, values))


#: Characters that force a field into RFC-4180 quotes: the field and
#: record delimiters, the quote itself, and CR (CRLF tolerance).
_QUOTE_TRIGGERS = (FIELD_DELIM, QUOTE, RECORD_DELIM, "\r")


def _has_trigger(text: str) -> bool:
    """Whether a field — or a column's joined fields — needs quoting."""
    return any(ch in text for ch in _QUOTE_TRIGGERS)


def _escape(field: str) -> str:
    if _has_trigger(field):
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
    return num_rows * len(columns) + sum(_escape_column(c)[1] for c in columns)


def _escape_column(values: Sequence[object]) -> tuple[Sequence[str], int]:
    """A column's fields as a CSV object holds them, and their total size
    in bytes: RFC-4180 quotes only where a trigger character occurs at all."""
    fields = format_column(values)
    joined = "".join(fields)
    if _has_trigger(joined):
        fields = list(map(_escape, fields))
        joined = "".join(fields)
    return fields, len(joined) if joined.isascii() else len(joined.encode())


@dataclass(frozen=True)
class RowExtent:
    """Byte extent of one encoded row inside a CSV object (inclusive)."""

    first_byte: int
    last_byte: int


def encode_columns(
    columns: Sequence[Sequence[object]], head: bytes = b""
) -> tuple[bytes, list[int], list[int]]:
    """Encode rows held a column at a time (at least one column) to CSV
    bytes after ``head``, formatting and escaping each column once.

    Returns the payload, the byte offset at which every record starts
    plus the payload's length (record ``i`` spans ``offsets[i]`` to
    ``offsets[i + 1] - 1``), and each column's encoded size (quotes
    included, delimiters not): the loader's width statistic sums it.
    """
    texts, widths = zip(*map(_escape_column, columns))
    return (*_frame(list(map(FIELD_DELIM.join, zip(*texts))), head), list(widths))


def _frame(lines: list[str], head: bytes) -> tuple[bytes, list[int]]:
    """Escaped ``lines`` as delimited records after ``head``, with the
    record offsets :func:`encode_columns` documents."""
    body = RECORD_DELIM.join([*lines, ""])
    sizes = map(len, lines if body.isascii() else map(str.encode, lines))
    # A record spans its line plus the delimiter byte.
    offsets = list(accumulate(sizes, lambda at, n: at + n + 1, initial=len(head)))
    return head + body.encode(), offsets


def encode_table(
    rows: Iterable[Sequence[object]], header: Sequence[str] | None = None
) -> tuple[bytes, list[RowExtent]]:
    """Encode rows to CSV bytes, returning per-row byte extents.

    The extents exclude the header line and are exactly what the paper's
    index tables store (``first_byte_offset`` / ``last_byte_offset``).
    Rows are transposed and go through :func:`encode_columns`; ragged or
    zero-width rows cannot be transposed and go through :func:`encode_row`.
    """
    rows = list(rows)
    head = b"" if header is None else encode_row(list(header))
    if len(set(map(len, rows))) == 1 and len(rows[0]):
        data, offsets, _ = encode_columns(list(zip(*rows)), head)
    else:
        data, offsets = _frame([encode_row(row)[:-1].decode() for row in rows], head)
    return data, [RowExtent(a, b - 1) for a, b in zip(offsets, offsets[1:])]


def _split_lines(text: str) -> list[str]:
    """Quote-free text as one line per record: nothing can embed a
    delimiter (CR is dropped wherever it appears, as the scanner does)."""
    lines = text.replace("\r", "").split(RECORD_DELIM)
    if not lines[-1]:
        lines.pop()  # the final record's delimiter, not an empty record
    return lines


def iter_records(data: bytes) -> Iterator[list[str]]:
    """Parse CSV bytes into records (lists of string fields).

    Handles RFC-4180 quoting; tolerant of a missing trailing newline.
    Records and fields of quote-free text are plain ``str.split`` pieces.
    """
    text = data.decode()
    if QUOTE in text:
        return _scan_quoted(text)
    return map(str.split, _split_lines(text), repeat(FIELD_DELIM))


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


def _kept_columns(
    schema: TableSchema, batch_size: int, columns: Sequence[str] | None
) -> list[tuple[int, ColumnDef]]:
    """``(schema position, column)`` per kept column; a bad decoder
    argument raises here, at the call, not when the stream is pulled."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    names = schema.names if columns is None else columns
    return [(schema.index_of(name), schema.column(name)) for name in names]


#: ``array`` typecodes of the memo's packed numeric columns.
_PACKED_TYPECODES = {"int": "q", "float": "d"}


def _pack(col: ColumnDef, fields: list[str], values: list) -> array | str:
    """One decoded column-chunk as the memo keeps it: 8 bytes per value
    for a NULL-free int64 / float column (every double round-trips), else
    the fields' own text on the record delimiter, which no field of
    quote-free text can contain."""
    if col.type in _PACKED_TYPECODES and "" not in fields:
        try:
            return array(_PACKED_TYPECODES[col.type], values)
        except OverflowError:  # an int outside int64
            pass
    return RECORD_DELIM.join(fields)


def _unpack(col: ColumnDef, packed: array | str) -> list:
    """A fresh list of fresh values, equal to what :func:`_pack` saw."""
    if isinstance(packed, array):
        return packed.tolist()
    return col.parse_column(packed.split(RECORD_DELIM))


def _pack_widths(values: Sequence[object]) -> array:
    """Encoded bytes of each field of a memoised column-chunk, in the
    narrowest typecode holding them all.  Nothing decoded from quote-free
    text formats to a field ``_escape`` would quote: text length is all."""
    texts = format_column(values)
    ascii_only = "".join(texts).isascii()
    widths = list(map(len, texts if ascii_only else map(str.encode, texts)))
    top = max(widths, default=0)
    return array(next(c for c in "BHIQ" if top >> 8 * array(c).itemsize == 0), widths)


def returned_size(
    memo: dict, schema: TableSchema, has_header: bool, batch_size: int,
    columns: Sequence[str], selections: Iterable[tuple[Sequence | None, int]],
) -> int | None:
    """:func:`encoded_size` of a response of bare ``columns`` (select-list
    order, repeats included) from memoised widths, formatting nothing.
    ``selections``: per chunk a full-object decode through ``memo`` with
    ``sized=columns`` just yielded, the WHERE mask over its rows (``None``:
    no predicate) and how many survivors, from the first, were returned
    (fewer only under LIMIT).  ``None`` — the caller formats — when the
    object has no memo entry (it holds a quote)."""
    chunks = memo.get((has_header, batch_size, len(schema.columns)))
    if chunks is None:
        return None
    kept = _kept_columns(schema, batch_size, columns)
    total = 0
    for (rows, packed), (mask, taken) in zip(chunks, selections):
        total += taken * len(kept)
        for i, col in kept:
            widths = packed[i, col.type, "widths"]
            if taken < rows:  # the first ``taken`` survivors only
                widths = islice(compress(widths, mask or repeat(True)), taken)
            total += sum(widths)
    return total


def iter_decode_column_batches(
    data: bytes,
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    has_header: bool = True,
    columns: Sequence[str] | None = None,
    memo: dict | None = None,
    sized: Sequence[str] = (),
) -> Iterator[Batch]:
    """Lazily decode CSV bytes into columnar :class:`Batch`es.

    Quote-free text is cut into lines once; each ``batch_size`` chunk
    has its field counts checked and is split into one flat field list,
    from which only the kept columns are sliced (``flat[i::width]``) and
    typed.  Text holding a quote goes through the RFC-4180 scanner.
    Nothing is typed ahead of the consumer, so one that stops early
    (LIMIT, top-K sampling) never pays for the rest of the object.  See
    :func:`iter_column_batches` for ``columns`` and errors.

    ``memo`` is the ``decoded`` slot of the :class:`StoredObject` whose
    payload ``data`` is (never another's; ``None`` for raw bytes: nothing
    is kept).  Each column-chunk a call types is also stored there packed
    (:func:`_pack`), keyed ``(has_header, batch_size, schema width)`` →
    chunk → ``(column position, column type)``, and every later call
    rebuilds it from the packed copy (``array.tolist`` / one
    ``str.split``) without touching the text; a chunk missing a kept
    column is tokenized and checked again and only the missing columns
    are typed.  A chunk's row count is fixed when its entry is created,
    each packed column is stored whole in one assignment (threads may
    pack twice, never see half), and a hit hands out fresh lists; kept
    columns named in ``sized`` get their :func:`_pack_widths` stored the
    same way.  Never stored: anything of an object holding a quote, of a
    chunk whose field-count check fails, or of a column whose typing
    raises — those raise again, from the same batch, on every call.
    """
    kept = _kept_columns(schema, batch_size, columns)
    width = len(schema.columns)
    first = int(has_header)
    sized_at = set(map(schema.index_of, sized)) if memo is not None else ()
    key = (has_header, batch_size, width)
    chunks = None if memo is None else memo.get(key)
    lines = None
    if chunks is None:  # else: the entry exists only for quote-free text
        text = data.decode()
        if QUOTE in text:
            records = islice(_scan_quoted(text), first, None)
            return iter_column_batches(records, schema, batch_size, columns)
        lines = _split_lines(text)
        chunks = [
            (min(batch_size, len(lines) - start), {})
            for start in range(first, len(lines), batch_size)
        ]
        if memo is not None:
            chunks = memo.setdefault(key, chunks)

    def batches() -> Iterator[Batch]:
        nonlocal lines
        for k, (rows, packed) in enumerate(chunks):
            flat = None
            # Nothing packed yet: the chunk's field counts are unchecked.
            if not packed or any((i, col.type) not in packed for i, col in kept):
                if lines is None:
                    lines = _split_lines(data.decode())
                start = first + k * batch_size
                chunk = lines[start : start + batch_size]
                if set(map(str.count, chunk, repeat(FIELD_DELIM))) != {width - 1}:
                    ragged = next(
                        line for line in chunk if line.count(FIELD_DELIM) != width - 1
                    )
                    # raises the canonical CatalogError
                    schema.parse_row(ragged.split(FIELD_DELIM))
                flat = FIELD_DELIM.join(chunk).split(FIELD_DELIM)
            out = []
            for i, col in kept:
                held = packed.get((i, col.type))
                if held is not None:
                    values = _unpack(col, held)
                else:
                    fields = flat[i::width]
                    values = col.parse_column(fields)
                    if memo is not None:
                        packed[i, col.type] = _pack(col, fields, values)
                if i in sized_at and (i, col.type, "widths") not in packed:
                    packed[i, col.type, "widths"] = _pack_widths(values)
                out.append(values)
            yield Batch(out, rows)

    return batches()


def iter_column_batches(
    records: Iterable[list[str]],
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    columns: Sequence[str] | None = None,
) -> Iterator[Batch]:
    """Type raw string records into columnar :class:`Batch`es.

    Records are gathered per batch and each kept column is parsed in
    one typed pass — no intermediate row tuples.  ``columns`` keeps only
    the named columns (in the given order): the rest are tokenized but
    never parsed.  Rows whose field count disagrees with the schema
    raise :class:`~repro.common.errors.CatalogError` from the batch that
    holds them; a bad ``batch_size`` or column name raises at the call.
    """
    kept = _kept_columns(schema, batch_size, columns)
    width = len(schema.columns)

    def batches() -> Iterator[Batch]:
        for raw in chunk_rows(records, batch_size):
            if set(map(len, raw)) != {width}:
                # raises the canonical CatalogError
                schema.parse_row(next(r for r in raw if len(r) != width))
            flat = list(chain.from_iterable(raw))
            yield Batch(
                [col.parse_column(flat[i::width]) for i, col in kept], len(raw)
            )

    return batches()
