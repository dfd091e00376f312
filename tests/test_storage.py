"""Tests for schemas, the CSV codec, and the object store."""

import io
import math
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from itertools import islice, product
from threading import Barrier

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import (
    CatalogError,
    InvalidRangeError,
    NoSuchBucketError,
    NoSuchKeyError,
)
from repro.engine.operators.base import materialize
from repro.planner.database import PushdownDB
from repro.s3select.engine import execute_select
from repro.sqlparser.parser import parse_expression
from repro.storage.csvcodec import (
    DEFAULT_BATCH_SIZE,
    RowExtent,
    encode_row,
    encode_table,
    encoded_size,
    format_column,
    format_value,
    iter_column_batches,
    iter_decode_column_batches,
    iter_records,
)
from repro.storage.object_store import ObjectStore, StoredObject
from repro.storage.schema import ColumnDef, TableSchema
from repro.strategies.filter import FilterQuery, indexed_filter

from helpers import calls_by_name as _codec_calls
from helpers import decode_rows


class TestSchema:
    def test_of_builder(self):
        schema = TableSchema.of("a:int", "b:float", "c:str", "d:date")
        assert schema.names == ("a", "b", "c", "d")
        assert schema.column("b").type == "float"

    def test_default_type_is_str(self):
        assert TableSchema.of("x").column("x").type == "str"

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            ColumnDef("x", "blob")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema.of("a:int", "A:int")

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema([])

    def test_index_lookup_case_insensitive(self):
        schema = TableSchema.of("L_OrderKey:int")
        assert schema.index_of("l_orderkey") == 0

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            TableSchema.of("a:int").index_of("b")

    def test_parse_row_types(self):
        schema = TableSchema.of("a:int", "b:float", "c:str")
        assert schema.parse_row(["1", "2.5", "x"]) == (1, 2.5, "x")

    def test_parse_row_empty_is_null(self):
        schema = TableSchema.of("a:int", "b:str")
        assert schema.parse_row(["", ""]) == (None, None)

    def test_parse_row_width_mismatch(self):
        with pytest.raises(CatalogError):
            TableSchema.of("a:int").parse_row(["1", "2"])

    def test_project(self):
        schema = TableSchema.of("a:int", "b:float", "c:str")
        projected = schema.project(["c", "a"])
        assert projected.names == ("c", "a")


class TestCsvCodec:
    def test_format_value(self):
        assert format_value(None) == ""
        assert format_value(42) == "42"
        assert format_value(2.0) == "2.0"
        assert format_value("x") == "x"

    def test_encode_row_quotes_delimiters(self):
        assert encode_row(["a,b"]) == b'"a,b"\n'
        assert encode_row(['say "hi"']) == b'"say ""hi"""\n'

    def test_iter_records_simple(self):
        records = list(iter_records(b"a,b\nc,d\n"))
        assert records == [["a", "b"], ["c", "d"]]

    def test_iter_records_missing_trailing_newline(self):
        assert list(iter_records(b"a,b\nc,d")) == [["a", "b"], ["c", "d"]]

    def test_iter_records_quoted_newline(self):
        records = list(iter_records(b'"x\ny",z\n'))
        assert records == [["x\ny", "z"]]

    def test_encode_table_extents_are_exact(self):
        data, extents = encode_table([(1, "a"), (2, "bb")])
        for ext, expected in zip(extents, [(1, "a"), (2, "bb")]):
            piece = data[ext.first_byte : ext.last_byte + 1]
            assert list(iter_records(piece)) == [[str(expected[0]), expected[1]]]

    def test_extents_cover_object_exactly(self):
        rows = [(i, f"v{i}") for i in range(20)]
        data, extents = encode_table(rows)
        assert extents[0].first_byte == 0
        assert extents[-1].last_byte == len(data) - 1
        for prev, cur in zip(extents, extents[1:]):
            assert cur.first_byte == prev.last_byte + 1

    def test_extents_of_rows_with_embedded_delimiters(self):
        # What the index tables store: a ranged GET of one extent must
        # tokenize to exactly that row, quoted newlines included.
        rows = [(i, "x\n," * (i % 3) + "\u00e9" * (i % 2)) for i in range(10)]
        data, extents = encode_table(rows)
        assert len(extents) == len(rows)
        for ext, row in zip(extents, rows):
            piece = data[ext.first_byte : ext.last_byte + 1]
            assert piece.endswith(b"\n")
            assert list(iter_records(piece)) == [[str(row[0]), row[1]]]

    def test_decode_roundtrip(self):
        schema = TableSchema.of("a:int", "b:float", "c:str")
        rows = [(1, 2.5, "x,y"), (None, None, None)]
        data, _ = encode_table(rows)
        assert materialize(iter_decode_column_batches(data, schema, has_header=False)) == rows


_VALUE = st.one_of(
    st.none(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
        min_size=1,
        max_size=20,
    ),
)


@given(st.lists(st.tuples(_VALUE, _VALUE, _VALUE), min_size=1, max_size=30))
def test_property_csv_roundtrip(rows):
    """encode -> decode preserves every value (via the typed schema).

    Strings that *look* like numbers or are empty are excluded from the
    equality check for str columns, since CSV is untyped on the wire.
    """
    def type_of(i):
        column = [r[i] for r in rows if r[i] is not None]
        if not column:
            return "str"
        if all(isinstance(v, int) for v in column):
            return "int"
        if all(isinstance(v, (int, float)) for v in column):
            return "float"
        if all(isinstance(v, str) for v in column):
            return "str"
        return None

    types = [type_of(i) for i in range(3)]
    if None in types:
        return  # mixed-type column: not a valid table
    schema = TableSchema.of(*[f"c{i}:{t}" for i, t in enumerate(types)])
    normalized = []
    for row in rows:
        out = []
        for value, t in zip(row, types):
            if t == "float" and value is not None:
                value = float(value)
            if t == "str" and value == "":
                value = None  # empty string encodes as NULL
            out.append(value)
        normalized.append(tuple(out))
    data, _ = encode_table(normalized)
    assert materialize(iter_decode_column_batches(data, schema, has_header=False)) == normalized


#: Raw field text exercising every quoting trigger: the field delimiter,
#: the record delimiter, CR, and the quote character itself.
_FIELD = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", "\n", "\r", '"', "x", " "]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)


@given(st.lists(_FIELD, min_size=1, max_size=6))
def test_property_escape_roundtrip_single_record(fields):
    """encode_row -> iter_records is the identity on raw string fields.

    Fields embedding the field delimiter, the record delimiter, CR, or
    quotes must be quoted by the encoder and re-assembled intact by the
    quote-aware splitter — a field containing ``,`` or ``\\n`` must never
    split the record or spill into the next one.
    """
    payload = encode_row(fields)
    records = list(iter_records(payload))
    assert records == [list(fields)]


@given(st.lists(st.lists(_FIELD, min_size=2, max_size=4), min_size=1, max_size=8))
def test_property_escape_roundtrip_table(rows):
    """Multi-record round trip: record boundaries survive embedded delimiters."""
    # Ragged rows are fine at the codec level; only the splitter is under test.
    data = b"".join(encode_row(r) for r in rows)
    assert list(iter_records(data)) == [list(r) for r in rows]
    # encode_table's extents (what the index tables store) are adjacent,
    # non-overlapping, cover the object, and each slices out its own row.
    encoded, extents = encode_table(rows)
    assert encoded == data
    position = 0
    for extent, row in zip(extents, rows):
        assert extent.first_byte == position
        piece = data[extent.first_byte : extent.last_byte + 1]
        assert list(iter_records(piece)) == [list(row)]
        position = extent.last_byte + 1
    assert position == len(data)


def _reference_records(data: bytes) -> list[list[str]]:
    """The character-level scanner that tokenized everything before the
    ``str.split`` path existed: the oracle for both paths."""
    text = data.decode()
    field, record, out = [], [], []
    in_quotes = saw_any = False
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        i += 1
        if in_quotes:
            if ch != '"':
                field.append(ch)
            elif i < n and text[i] == '"':
                field.append('"')
                i += 1
            else:
                in_quotes = False
        elif ch == '"':
            in_quotes = saw_any = True
        elif ch == ",":
            record.append("".join(field))
            field = []
            saw_any = True
        elif ch == "\n":
            record.append("".join(field))
            out.append(record)
            field, record = [], []
            saw_any = False
        elif ch != "\r":
            field.append(ch)
            saw_any = True
    if saw_any or record:
        record.append("".join(field))
        out.append(record)
    return out


#: Raw object text, not encoder output: stray and unbalanced quotes, bare
#: CR, CRLF, empty lines, non-ASCII, with or without a trailing newline.
_RAW_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", "\n", "\r", '"', "a", "7", " ", "\u00e9", "\u4e2d"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=60,
)


@given(_RAW_TEXT)
def test_property_tokenizer_matches_reference_scanner(text):
    """``iter_records`` == the character scanner on arbitrary input."""
    data = text.encode()
    assert list(iter_records(data)) == _reference_records(data)


@given(_RAW_TEXT.filter(lambda text: '"' not in text))
def test_property_split_tokenizer_matches_reference_scanner(text):
    """The quote-free ``str.split`` path alone, on the same oracle."""
    data = text.encode()
    assert list(iter_records(data)) == _reference_records(data)


@given(
    st.lists(st.lists(st.sampled_from(["1", "", "22"]), min_size=1, max_size=4),
             min_size=1, max_size=12),
    st.integers(1, 5),
)
def test_property_wrong_field_count_raises_catalog_error(records, batch_size):
    """Ragged rows raise ``CatalogError`` from the columnar decoder too."""
    schema = TableSchema.of("a:int", "b:int")
    data = "".join(",".join(r) + "\n" for r in records).encode()
    decode = lambda: list(
        iter_decode_column_batches(data, schema, batch_size, has_header=False)
    )
    if all(len(r) == 2 for r in records):
        rows = [row for batch in decode() for row in batch]
        assert rows == [schema.parse_row(r) for r in records]
    else:
        with pytest.raises(CatalogError):
            decode()


_TYPED_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),  # integral floats: "2.0", not "2"
    _FIELD,  # strings that need quoting, multi-byte text
)


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.tuples(*[_TYPED_VALUE] * width), max_size=12
    ).map(lambda rows: (width, rows))
))
def test_property_encoded_size_equals_encoded_rows(case):
    """Per-column sizing == the length of the row-wise CSV encoding."""
    width, rows = case
    columns = [[row[i] for row in rows] for i in range(width)]
    assert encoded_size(columns, len(rows)) == len(
        b"".join(encode_row(r) for r in rows)
    )


# ----------------------------------------------------------------------
# the column-at-a-time codec against its row-at-a-time references
# ----------------------------------------------------------------------

def _decoded(data, schema, batch_size, has_header, columns):
    """(rows of each batch the decoder yielded, CatalogError text or None)."""
    batches, error = [], None
    try:
        for batch in iter_decode_column_batches(
            data, schema, batch_size, has_header, columns
        ):
            batches.append(batch.to_rows())
    except CatalogError as exc:
        error = str(exc)
    return batches, error


def _reference_decoded(data, schema, batch_size, has_header, columns):
    """The same, from ``schema.parse_row`` per ``iter_records`` record:
    a ragged record fails the batch that holds it with ``parse_row``'s
    message for the batch's first ragged record; earlier batches stand."""
    records = list(iter_records(data))[int(has_header):]
    keep = [
        schema.index_of(c) for c in (schema.names if columns is None else columns)
    ]
    batches = []
    for start in range(0, len(records), batch_size):
        try:
            rows = [schema.parse_row(r) for r in records[start : start + batch_size]]
        except CatalogError as exc:
            return batches, str(exc)
        batches.append([tuple(row[i] for i in keep) for row in rows])
    return batches, None


#: Valid field texts per column type; '' is NULL.  No quote, comma or
#: newline — but bare CR (dropped by every tokenizer), spaces, non-ASCII.
_FIELD_TEXT = {
    "int": st.sampled_from(["", "0", "7", "-12", "123456789012"]),
    "float": st.sampled_from(["", "0.5", "-3", "1e3", "2.0", "inf"]),
    "str": st.text(
        alphabet=st.sampled_from(["a", "Z", " ", "\r", "\u00e9", "\u4e2d", "7"]),
        max_size=5,
    ),
    "date": st.sampled_from(["", "1994-01-01", "1998-12-31"]),
}


@st.composite
def _csv_objects(draw, field_text=_FIELD_TEXT):
    """(bytes, schema, has_header): a quote-free object under
    a typed schema of width 1-4, with LF or CRLF line ends, an optional
    missing trailing newline, and — sometimes — stray lines of another
    width (an empty line is a 1-field record: NULL under a width-1
    schema, ragged under a wider one)."""
    types = draw(st.lists(st.sampled_from(sorted(field_text)), min_size=1, max_size=4))
    schema = TableSchema.of(*(f"c{i}:{t}" for i, t in enumerate(types)))
    valid = st.tuples(*(field_text[t] for t in types)).map(",".join)
    stray = st.sampled_from(["", "1,2,3,4,5", ","])
    lines = draw(st.lists(st.one_of(valid, valid, valid, stray), max_size=14))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, ",".join(schema.names))
    ends = draw(st.lists(
        st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)
    ))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n") or text  # missing trailing newline
    return text.encode(), schema, has_header


def _column_picks(schema):
    """``columns=`` arguments: None, subsets, re-orderings, repeats."""
    return st.one_of(
        st.none(),
        st.lists(st.sampled_from(schema.names), min_size=1, max_size=6),
    )


@given(st.data(), _csv_objects(), st.integers(1, 6))
def test_property_column_decoder_matches_row_reference(data, obj, batch_size):
    """``iter_decode_column_batches`` == ``parse_row`` per record, projected:
    same batches, same NULLs, same error from the same batch."""
    payload, schema, has_header = obj
    columns = data.draw(_column_picks(schema))
    got = _decoded(payload, schema, batch_size, has_header, columns)
    assert got == _reference_decoded(payload, schema, batch_size, has_header, columns)
    if got[1] is None:
        keep = [schema.index_of(c) for c in columns or schema.names]
        assert [row for rows in got[0] for row in rows] == [
            tuple(row[i] for i in keep)
            for row in decode_rows(payload, schema, has_header)
        ]
        # Types, not just values: 2.0 == 2 but a float column holds floats.
        for rows in got[0]:
            for row in rows:
                for value, i in zip(row, keep):
                    kind = schema.columns[i].type
                    assert value is None or type(value) is {
                        "int": int, "float": float
                    }.get(kind, str)


@given(st.data(), _RAW_TEXT, st.integers(1, 3), st.integers(1, 4), st.booleans())
def test_property_column_decoder_on_arbitrary_text(
    data, text, width, batch_size, has_header
):
    """Arbitrary bytes under an all-text schema — stray quotes (the
    scanner's result), bare CR, empty lines, no trailing newline."""
    schema = TableSchema.of(*(f"c{i}:str" for i in range(width)))
    columns = data.draw(_column_picks(schema))
    payload = text.encode()
    assert _decoded(payload, schema, batch_size, has_header, columns) == (
        _reference_decoded(payload, schema, batch_size, has_header, columns)
    )


def test_ragged_row_fails_its_own_batch_only():
    schema = TableSchema.of("a:int", "b:int")
    data = b"1,2\n3,4\n5\n6,7,8\n9,9\n"
    stream = iter_decode_column_batches(data, schema, 2, has_header=False)
    assert next(stream).to_rows() == [(1, 2), (3, 4)]
    with pytest.raises(CatalogError, match="row has 1 fields, schema has 2"):
        next(stream)


@pytest.mark.parametrize("decode", [
    lambda schema, **kw: iter_decode_column_batches(
        b"1,2\n", schema, has_header=False, **kw
    ),
    lambda schema, **kw: iter_decode_column_batches(
        b'1,"2"\n', schema, has_header=False, **kw
    ),
    lambda schema, **kw: iter_column_batches(iter([["1", "2"]]), schema, **kw),
])
def test_bad_decoder_arguments_raise_at_the_call(decode):
    """Not at the first ``next()``: a stream is often pulled far from
    where it was built."""
    schema = TableSchema.of("a:int", "b:int")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            decode(schema, batch_size=bad)
    with pytest.raises(CatalogError, match="no column 'c'"):
        decode(schema, columns=["a", "c"])
    assert next(decode(schema, columns=["b", "a", "b"])).to_rows() == [(2, 1, 2)]


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e16, -1e16, 1e22, 1.5e300, 5e-324, math.inf, -math.inf, math.nan]
)

_COLUMN = st.one_of(
    st.lists(st.integers(-10**20, 10**20), max_size=12),
    st.lists(st.one_of(st.floats(), _SPECIAL_FLOATS), max_size=12),
    st.lists(_FIELD, max_size=12),
    st.lists(st.one_of(_TYPED_VALUE, _SPECIAL_FLOATS), max_size=12),
)


@given(_COLUMN)
def test_property_format_column_equals_format_value_per_value(column):
    """Pure int / float / str columns take the one-pass branches; NULLs,
    bools and mixed types the per-value one — same texts either way."""
    expected = [format_value(v) for v in column]
    assert list(format_column(column)) == expected
    assert list(format_column(tuple(column))) == expected


# ----------------------------------------------------------------------
# the decoded-column memo: indistinguishable from a cold decode
# ----------------------------------------------------------------------

#: Adds what the packed forms must survive: ints at and beyond the int64
#: edges (``array('q')`` or, past them, the text form), signed zero, nan.
_MEMO_FIELD_TEXT = {
    **_FIELD_TEXT,
    "int": st.sampled_from([
        "", "0", "-12", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809", str(10**30),
    ]),
    "float": st.sampled_from(
        ["", "0.5", "-0.0", "1e3", "inf", "-inf", "nan", "5e-324", "1.5e300"]
    ),
}


def _observed(data, schema, batch_size, has_header, columns, memo, pulls):
    """What a consumer pulling ``pulls`` batches sees: per batch its row
    count and every value's type and ``repr`` (nan, -0.0), then the class
    of the error, if one was raised.  The columns are emptied afterwards —
    a consumer may do what it likes with the lists it was handed."""
    seen = []
    try:
        stream = iter_decode_column_batches(
            data, schema, batch_size, has_header, columns, memo
        )
        for batch in islice(stream, pulls):
            seen.append((len(batch), [
                [(type(v), repr(v)) for v in column] for column in batch.columns
            ]))
            for column in batch.columns:
                column.clear()
    except (CatalogError, ValueError) as exc:
        seen.append(type(exc))
    return seen


@given(st.data(), _csv_objects(_MEMO_FIELD_TEXT))
def test_property_memo_is_indistinguishable_from_a_cold_decode(data, obj):
    """A random sequence of calls through one shared memo — column
    subsets in any order with repeats (or none at all), several batch
    sizes, some streams abandoned after their first batch — yields, call
    by call, what ``memo=None`` yields: boundaries, values, types, and
    the same error class from the same batch, however often it is hit."""
    payload, schema, has_header = obj
    memo = {}
    picks = st.one_of(st.none(), st.lists(st.sampled_from(schema.names), max_size=6))
    for _ in range(data.draw(st.integers(2, 8))):
        columns = data.draw(picks)
        batch_size = data.draw(st.sampled_from([1, 2, 3, 5, 100]))
        pulls = data.draw(st.sampled_from([1, None, None]))
        call = (payload, schema, batch_size, has_header, columns)
        assert _observed(*call, memo, pulls) == _observed(*call, None, pulls)


def test_memo_packs_by_type_and_hands_out_fresh_lists():
    schema = TableSchema.of("i:int", "big:int", "f:float", "s:str", "n:int")
    data = f"1,{2**63},-0.0,é,\n-2,7,nan,z,5\n".encode()
    memo = {}
    first = next(iter_decode_column_batches(data, schema, has_header=False, memo=memo))
    ((rows, packed),) = memo[False, DEFAULT_BATCH_SIZE, 5]
    assert rows == 2
    assert packed[0, "int"] == array("q", [1, -2])
    assert packed[1, "int"] == f"{2**63}\n7"  # outside int64: the field text
    assert packed[2, "float"].typecode == "d"
    assert packed[3, "str"] == "é\nz"
    assert packed[4, "int"] == "\n5"  # a NULL: the field text
    again = next(iter_decode_column_batches(data, schema, has_header=False, memo=memo))
    assert repr(again.to_rows()) == repr(first.to_rows())
    assert again.to_rows()[0][:2] == (1, 2**63) and again.to_rows()[0][4] is None
    assert all(a is not b for a, b in zip(first.columns, again.columns))


def test_memo_never_stores_an_error_and_never_loses_one():
    """A bad field fails its column, a ragged row its chunk — from the
    same batch on every call; what is around them stays usable."""
    schema = TableSchema.of("a:int", "b:float", "c:str")
    data = b"1,1.5,x\n2,2.5,y\n3,oops,z\n4,4.5,w\n5,5.5\n6,6.5,u\n"
    memo = {}
    decode = lambda columns: iter_decode_column_batches(
        data, schema, 2, has_header=False, columns=columns, memo=memo
    )
    for _ in range(3):
        stream = decode(None)
        assert next(stream).to_rows() == [(1, 1.5, "x"), (2, 2.5, "y")]
        with pytest.raises(ValueError, match="oops"):
            next(stream)
        stream = decode(["c", "a"])  # the bad column is not read
        assert next(stream).to_rows() == [("x", 1), ("y", 2)]
        assert next(stream).to_rows() == [("z", 3), ("w", 4)]
        with pytest.raises(CatalogError, match="row has 2 fields, schema has 3"):
            next(stream)
        stream = decode([])  # no column at all: the row count alone
        assert [(len(b), b.columns) for b in islice(stream, 2)] == [(2, []), (2, [])]
        with pytest.raises(CatalogError, match="row has 2 fields, schema has 3"):
            next(stream)
    chunks = memo[False, 2, 3]
    assert [rows for rows, _ in chunks] == [2, 2, 2]
    assert [sorted(i for i, _ in packed) for _, packed in chunks] == [[0, 1, 2], [0, 2], []]


def test_quoted_object_decodes_through_the_scanner_and_stores_nothing():
    schema = TableSchema.of("a:int", "b:str")
    data = b'1,"x,y"\n2,"say ""hi"""\n'
    memo = {}
    for _ in range(2):
        batches = iter_decode_column_batches(data, schema, has_header=False, memo=memo)
        assert materialize(batches) == [(1, "x,y"), (2, 'say "hi"')]
    assert memo == {}


# ----------------------------------------------------------------------
# the memo's lifetime (the StoredObject's), its warm path, its threads
# ----------------------------------------------------------------------

MEMO_SCHEMA = TableSchema.of("k:int", "v:float", "tag:str", "day:date")


def _memo_rows(n, salt):
    return [
        (i, float(i * salt % 97), f"t{i % 5}", f"199{i % 8}-0{1 + i % 9}-1{salt % 10}")
        for i in range(n)
    ]


def test_stored_object_is_frozen_and_the_memo_is_not_part_of_its_value():
    obj = StoredObject(b"1,2\n", {"format": "csv"})  # positional, as bench/ builds it
    with pytest.raises(FrozenInstanceError):
        obj.data = b"3,4\n"
    with pytest.raises(FrozenInstanceError):
        obj.decoded = {}
    obj.decoded["filled"] = True
    assert obj == StoredObject(b"1,2\n", {"format": "csv"})
    assert "decoded" not in repr(obj) and "filled" not in repr(obj)


def _decode_calls(memo, schema):
    """Single-column decodes that fill ``memo``'s entries: per key and
    column, ``(batch_size, column, sized)`` (its widths kept or not)."""
    calls = []
    for (_, batch_size, _), chunks in memo.items():
        names = set().union(*(packed for _, packed in chunks))
        calls += [
            (batch_size, schema.columns[i].name, (i, kind, "widths") in names)
            for i, kind in sorted(name for name in names if len(name) == 2)
        ]
    return calls


def _cold_memo(data, metadata, schema, calls):
    """What the decodes ``calls`` (``(batch_size, column, sized)`` each),
    made in order, store in a fresh object over ``data``; a decode whose
    typing raises keeps whatever it stored before it did."""
    fresh = StoredObject(data, metadata)
    for batch_size, column, sized in calls:
        try:
            list(iter_decode_column_batches(
                data, schema, batch_size, False, columns=[column],
                memo=fresh.decoded, sized=[column] if sized else (),
            ))
        except ValueError:
            pass
    return fresh.decoded


def _comparable(memo):
    """A memo with each packed array as its typecode and exact bytes
    (``-0.0`` and NaN payloads included)."""
    return {
        key: [
            (rows, {
                name: (v.typecode, v.tobytes()) if isinstance(v, array) else v
                for name, v in packed.items()
            })
            for rows, packed in chunks
        ]
        for key, chunks in memo.items()
    }


@pytest.mark.parametrize("indexed", [False, True])
def test_reload_never_serves_the_previous_loads_columns(indexed):
    """Same name and partitioning, loaded with rows A, A again, then B:
    every mode answers from the rows just loaded.  The first load's
    objects start empty; the second writes the very same bytes, so it
    keeps those objects, whose memos equal what cold decodes of the same
    columns store; the third writes new objects, empty again."""
    db = PushdownDB(bucket="memo")
    layout = dict(partitions=3, index_columns=["k"] if indexed else [])
    sql = "SELECT k, v, day FROM m WHERE v < 40.0 AND tag <> 't1'"
    by_index = FilterQuery(
        table="m", predicate=parse_expression("k < 25"), projection=["k", "v", "day"]
    )

    def answers():
        rows = [db.execute(sql, mode=mode).rows for mode in ("baseline", "optimized", "auto")]
        if indexed:
            rows.append(indexed_filter(db.ctx, db.catalog, by_index).rows)
        return rows

    previous = {}
    for load, salt in enumerate((3, 3, 7)):
        rows = _memo_rows(300, salt)
        info = db.load_table("m", rows, MEMO_SCHEMA, **layout)
        keys = info.keys + [k for index in info.indexes.values() for k in index.keys]
        schemas = {
            key: MEMO_SCHEMA if key in info.keys else info.indexes["k"].schema for key in keys
        }
        for key in keys:
            obj = db.ctx.store.get_object("memo", key)
            old, calls = previous.get(key, (None, []))
            assert (obj is old) == (load == 1)
            cold = _cold_memo(obj.data, obj.metadata, schemas[key], calls if load == 1 else [])
            assert _comparable(obj.decoded) == _comparable(cold)
            assert bool(obj.decoded) == (load == 1)
        want = sorted((k, v, day) for k, v, tag, day in rows if v < 40.0 and tag != "t1")
        got = answers()
        assert [sorted(r) for r in got[:3]] == [want] * 3
        if indexed:
            assert sorted(got[3]) == sorted((k, v, day) for k, v, _, day in rows if k < 25)
        assert answers() == got  # warm
        objects = {key: db.ctx.store.get_object("memo", key) for key in keys}
        assert all(obj.decoded for obj in objects.values())
        previous = {
            key: (obj, _decode_calls(obj.decoded, schemas[key])) for key, obj in objects.items()
        }


_CARRY_SCHEMAS = (
    MEMO_SCHEMA,
    TableSchema.of("k:int", "w:float", "tag:str", "day:date"),  # same bytes, other metadata
    TableSchema.of("k:int", "v:str", "tag:str", "day:date"),  # ``v`` retyped
)
_CARRY_TEXT = st.one_of(
    st.none(), st.sampled_from(["", "t1", "\u00e9t\u00e9"]), st.text("xy\u20ac", max_size=3)
)
_CARRY_VALUES = {
    # bools and floats do not parse back as ints; ints beyond int64 stay text
    "int": st.one_of(
        st.none(), st.integers(-(2**70), 2**70), st.booleans(), st.sampled_from([2.5, 3.0])
    ),
    # NaN, ±0.0, exponent forms, and ints that decode to floats
    "float": st.one_of(
        st.none(), st.floats(), st.integers(-(10**20), 10**20),
        st.sampled_from([0.0, -0.0, 1e16, 2.5e-7, 1.5e300, math.nan, -math.nan]),
    ),
    "str": _CARRY_TEXT,
    "date": _CARRY_TEXT,
}


@given(st.data())
def test_property_a_reload_keeps_exactly_the_objects_it_writes_again(data):
    """Random tables loaded twice under one name (the second time the same
    rows or others, under the same schema, a renamed column or a retyped
    one, over the same or another partition count), each
    object's columns decoded in between (any columns and widths,
    ``batch_size`` 4096 and others).  After the reload an object whose
    bytes and metadata are unchanged is the old one, its memo equal to
    what the same decodes store in a fresh object over those bytes; any
    other object is new and empty, and so is every object holding a quote."""
    db = PushdownDB(bucket="b")
    batch_size = data.draw(st.sampled_from([1, 2, 5]))
    previous = {}
    for load in range(2):
        schema = _CARRY_SCHEMAS[data.draw(st.integers(0, 2)) if load else 0]
        if not load or schema is _CARRY_SCHEMAS[2] or data.draw(st.booleans()):
            row = st.tuples(*(_CARRY_VALUES[col.type] for col in schema.columns))
            rows = data.draw(st.lists(row, max_size=12))
            if rows and not data.draw(st.integers(0, 3)):  # a field RFC-4180 must quote
                at = data.draw(st.integers(0, len(rows) - 1))
                text = data.draw(st.sampled_from(["a,b", 'say "hi"']))
                rows[at] = (*rows[at][:2], text, rows[at][3])
            partitions = data.draw(st.integers(1, 3))
        info = db.load_table("t", rows, schema, partitions=partitions, index_columns=["k"])
        objects = [(key, schema) for key in info.keys]
        objects += [(key, info.index_for("k").schema) for key in info.index_for("k").keys]
        for key, object_schema in objects:
            obj = db.ctx.store.get_object("b", key)
            old, calls = previous.get(key, (None, []))
            kept = old is not None and (old.data, old.metadata) == (obj.data, obj.metadata)
            assert (obj is old) == kept
            calls = calls if kept else []
            cold = _cold_memo(obj.data, obj.metadata, object_schema, calls)
            assert _comparable(obj.decoded) == _comparable(cold)
            if b'"' in obj.data:
                assert obj.decoded == {}
            for size, column in product((batch_size, DEFAULT_BATCH_SIZE), object_schema.names):
                if data.draw(st.booleans()):
                    continue
                calls = [*calls, (size, column, data.draw(st.booleans()))]
                try:
                    list(iter_decode_column_batches(
                        obj.data, object_schema, size, False, columns=[column],
                        memo=obj.decoded, sized=[column] if calls[-1][2] else (),
                    ))
                except ValueError:  # a bool or a float in an int column
                    pass
            previous[key] = (obj, calls)


def test_get_scan_ignores_the_memo_of_an_object_overwritten_under_it():
    """The GET path pairs bytes with a memo only when they are the same
    object's: an overwrite between look-up and GET decodes from the bytes."""
    db = PushdownDB(bucket="memo")
    old, new = _memo_rows(40, 3), _memo_rows(40, 7)
    info = db.load_table("m", old, MEMO_SCHEMA, partitions=1)
    sql = "SELECT k, v FROM m"
    assert db.execute(sql, mode="baseline").rows == [(k, v) for k, v, _, _ in old]
    stale = db.ctx.store.get_object("memo", info.keys[0])
    kept = {key: dict(packed) for key, [(_, packed)] in stale.decoded.items()}
    real_get = db.ctx.client.get_object

    def overwrite_then_get(bucket, key):
        db.ctx.store.put_object(bucket, key, encode_table(new)[0], stale.metadata)
        return real_get(bucket, key)

    db.ctx.client.get_object = overwrite_then_get
    assert db.execute(sql, mode="baseline").rows == [(k, v) for k, v, _, _ in new]
    assert {key: dict(packed) for key, [(_, packed)] in stale.decoded.items()} == kept


@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_second_identical_scan_touches_no_text(mode):
    """S3 Select request or GET scan: the repeat splits no line and types
    no field; one more column re-tokenizes and types exactly that column."""
    db = PushdownDB(bucket="memo")
    db.load_table("m", _memo_rows(200, 3), MEMO_SCHEMA, partitions=2)
    numeric = "SELECT k, v FROM m WHERE v < 40.0"
    cold = _codec_calls(lambda: db.execute(numeric, mode=mode))
    assert cold["_split_lines"] == 2 and cold["parse_column"] == 4
    warm = _codec_calls(lambda: db.execute(numeric, mode=mode))
    assert warm["_split_lines"] == 0 and warm["parse_column"] == 0
    assert warm["_unpack"] == 4
    wider = "SELECT k, v, tag FROM m WHERE v < 40.0"
    added = _codec_calls(lambda: db.execute(wider, mode=mode))
    assert added["_split_lines"] == 2 and added["parse_column"] == 2
    assert added["_pack"] == 2 and added["_unpack"] == 4


def test_racing_first_requests_see_whole_columns():
    """16 first requests released together against one fresh object, mixed
    column sets and both callers: every one gets a cold decode's rows."""
    rows = _memo_rows(3000, 3)
    data, _ = encode_table(rows)
    metadata = {
        "format": "csv", "header": False,
        "schema": [f"{c.name}:{c.type}" for c in MEMO_SCHEMA.columns],
    }
    want_select = [(k, day) for k, v, _, day in rows if v < 40.0]
    want_scan = [(tag, v, k) for k, v, tag, _ in rows]

    def select(obj):
        return execute_select(obj, "SELECT k, day FROM S3Object WHERE v < 40.0").rows

    def get_scan(obj):
        return materialize(iter_decode_column_batches(
            obj.data, MEMO_SCHEMA, 64, has_header=False,
            columns=["tag", "v", "k"], memo=obj.decoded,
        ))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as pool:
            for _ in range(5):
                obj = StoredObject(data, metadata)
                start = Barrier(16)

                def request(i):
                    start.wait(timeout=60)
                    return (select, get_scan)[i % 2](obj)

                results = [f.result(timeout=60) for f in [
                    pool.submit(request, i) for i in range(16)
                ]]
                assert results[0::2] == [want_select] * 8
                assert results[1::2] == [want_scan] * 8
    finally:
        sys.setswitchinterval(interval)


def _reference_encode_table(rows, header=None):
    """The row-at-a-time encoder ``encode_table`` replaced, quoting rule
    included: the oracle for its bytes and its extents."""
    def encode(row):
        fields = []
        for value in row:
            text = format_value(value)
            if any(ch in ',"\n\r' for ch in text):
                text = '"' + text.replace('"', '""') + '"'
            fields.append(text)
        return (",".join(fields) + "\n").encode()

    buf = io.BytesIO()
    if header is not None:
        buf.write(encode(list(header)))
    extents = []
    for row in rows:
        start = buf.tell()
        encoded = encode(row)
        assert encode_row(row) == encoded
        buf.write(encoded)
        extents.append(RowExtent(first_byte=start, last_byte=start + len(encoded) - 1))
    return buf.getvalue(), extents


_TABLE = st.one_of(
    # rectangular, widths 1-4 (and the empty table)
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.one_of(_TYPED_VALUE, _SPECIAL_FLOATS)] * width), max_size=12
        )
    ),
    # type-pure columns: the one-pass branches
    st.lists(st.tuples(st.integers(), st.floats(), _FIELD), max_size=12),
    # ragged and zero-width rows
    st.lists(st.lists(_TYPED_VALUE, max_size=3).map(tuple), max_size=8),
)


@given(_TABLE, st.one_of(st.none(), st.lists(_FIELD, min_size=1, max_size=4)))
def test_property_encode_table_equals_row_at_a_time_encoder(rows, header):
    """Byte-identical objects and identical extents: quote triggers,
    multi-byte text, header, empty input, ragged rows — and from a
    one-shot iterable as well as a list."""
    expected = _reference_encode_table(rows, header)
    assert encode_table(rows, header) == expected
    assert encode_table(iter(rows), header) == expected


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"hello")
        assert store.get_bytes("b", "k") == b"hello"

    def test_get_range_inclusive(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"0123456789")
        assert store.get_range("b", "k", 2, 5) == b"2345"

    def test_get_range_end_truncated(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"abc")
        assert store.get_range("b", "k", 1, 100) == b"bc"

    def test_get_range_start_beyond_end_raises(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"abc")
        with pytest.raises(InvalidRangeError):
            store.get_range("b", "k", 5, 9)
        with pytest.raises(InvalidRangeError):
            store.get_range("b", "k", 2, 1)

    def test_missing_bucket_and_key(self):
        store = ObjectStore()
        with pytest.raises(NoSuchBucketError):
            store.get_bytes("nope", "k")
        store.create_bucket("b")
        with pytest.raises(NoSuchKeyError):
            store.get_bytes("b", "nope")

    def test_create_bucket_idempotent(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"x")
        store.create_bucket("b")  # must not wipe contents
        assert store.get_bytes("b", "k") == b"x"

    def test_list_keys_sorted_with_prefix(self):
        store = ObjectStore()
        store.create_bucket("b")
        for key in ("t/2", "t/1", "u/1"):
            store.put_object("b", key, b"")
        assert store.list_keys("b", prefix="t/") == ["t/1", "t/2"]

    def test_delete_idempotent(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "k", b"x")
        store.delete_object("b", "k")
        store.delete_object("b", "k")
        assert not store.object_exists("b", "k")

    def test_total_bytes(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put_object("b", "a", b"xx")
        store.put_object("b", "c", b"yyy")
        assert store.total_bytes("b") == 5

    def test_non_bytes_payload_rejected(self):
        store = ObjectStore()
        store.create_bucket("b")
        with pytest.raises(TypeError):
            store.put_object("b", "k", "not-bytes")
