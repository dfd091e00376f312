"""Tests for the simplified Parquet (SPQ1) columnar format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CatalogError
from repro.engine.batch import Batch
from repro.engine.operators.base import materialize
from repro.storage.parquet import (
    ParquetFile,
    ParquetFormatError,
    write_parquet,
)
from repro.storage.schema import TableSchema

SCHEMA = TableSchema.of("a:int", "b:float", "c:str")
ROWS = [(1, 1.5, "x"), (2, 2.5, "y"), (None, None, None), (4, 4.5, "z,w")]


def read_rows(pq, names=None):
    return materialize(pq.iter_batches(names))


class TestRoundTrip:
    def test_read_rows(self):
        data = write_parquet(ROWS, SCHEMA)
        assert read_rows(ParquetFile(data)) == ROWS

    def test_read_single_column(self):
        data = write_parquet(ROWS, SCHEMA, row_group_rows=3)
        batches = list(ParquetFile(data).iter_batches(["b"]))
        assert [type(b) for b in batches] == [Batch, Batch]
        assert [b.columns for b in batches] == [[[1.5, 2.5, None]], [[4.5]]]

    def test_no_columns_keeps_the_row_counts(self):
        data = write_parquet(ROWS, SCHEMA, row_group_rows=3)
        batches = list(ParquetFile(data).iter_batches([]))
        assert [(len(b), b.columns) for b in batches] == [(3, []), (1, [])]
        recut = list(ParquetFile(data).iter_batches([], batch_size=2))
        assert [(len(b), b.columns) for b in recut] == [(2, []), (2, [])]

    def test_projection_order_respected(self):
        data = write_parquet(ROWS, SCHEMA)
        rows = read_rows(ParquetFile(data), ["c", "a"])
        assert rows[0] == ("x", 1)

    def test_multiple_row_groups(self):
        data = write_parquet(ROWS, SCHEMA, row_group_rows=2)
        pq = ParquetFile(data)
        assert len(pq.row_groups) == 2
        assert sum(g.num_rows for g in pq.row_groups) == 4
        assert read_rows(pq) == ROWS

    def test_empty_table(self):
        data = write_parquet([], SCHEMA)
        pq = ParquetFile(data)
        assert sum(g.num_rows for g in pq.row_groups) == 0
        assert read_rows(pq) == []

    def test_uncompressed_roundtrip(self):
        data = write_parquet(ROWS, SCHEMA, compression="none")
        assert read_rows(ParquetFile(data)) == ROWS


class TestScanAccounting:
    def test_single_column_scan_is_smaller(self):
        rows = [(i, float(i), f"pad-{i:06d}") for i in range(500)]
        data = write_parquet(rows, SCHEMA)
        pq = ParquetFile(data)
        assert pq.scan_bytes_for(["a"]) < pq.scan_bytes_for(None)

    def test_scan_bytes_all_columns_covers_chunks(self):
        rows = [(i, float(i), "s") for i in range(100)]
        data = write_parquet(rows, SCHEMA)
        pq = ParquetFile(data)
        total_chunks = sum(
            c.compressed_size for g in pq.row_groups for c in g.chunks
        )
        assert pq.scan_bytes_for(None) == total_chunks + pq._footer_size

    def test_duplicate_columns_not_double_billed(self):
        data = write_parquet(ROWS, SCHEMA)
        pq = ParquetFile(data)
        assert pq.scan_bytes_for(["a", "a"]) == pq.scan_bytes_for(["a"])

    def test_compression_shrinks_repetitive_data(self):
        rows = [(1, 1.0, "same-string")] * 2000
        compressed = write_parquet(rows, SCHEMA, compression="zlib")
        raw = write_parquet(rows, SCHEMA, compression="none")
        assert len(compressed) < len(raw) / 2


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ParquetFormatError):
            ParquetFile(b"not a parquet file at all")

    def test_truncated_file(self):
        data = write_parquet(ROWS, SCHEMA)
        with pytest.raises(ParquetFormatError):
            ParquetFile(data[: len(data) // 2])

    def test_unknown_codec_rejected(self):
        with pytest.raises(ParquetFormatError):
            write_parquet(ROWS, SCHEMA, compression="lz77")

    def test_bad_row_group_size_rejected(self):
        with pytest.raises(ParquetFormatError):
            write_parquet(ROWS, SCHEMA, row_group_rows=0)

    def test_unknown_column_rejected(self):
        data = write_parquet(ROWS, SCHEMA)
        with pytest.raises(CatalogError):
            ParquetFile(data).iter_batches(["nope"])

    def test_bad_batch_size_rejected(self):
        data = write_parquet(ROWS, SCHEMA)
        with pytest.raises(ParquetFormatError):
            ParquetFile(data).iter_batches(batch_size=0)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-10**6, 10**6)),
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
            st.one_of(
                st.none(),
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs",),
                        blacklist_characters="\n\r",
                    ),
                    min_size=1,
                    max_size=12,
                ),
            ),
        ),
        max_size=40,
    ),
    st.integers(1, 7),
)
def test_property_parquet_roundtrip(rows, row_group_rows):
    """Arbitrary typed rows survive write -> read at any row-group size."""
    normalized = [
        (a, float(b) if b is not None else None, c) for a, b, c in rows
    ]
    data = write_parquet(normalized, SCHEMA, row_group_rows=row_group_rows)
    assert read_rows(ParquetFile(data)) == normalized
