"""Tests for the columnar RecordBatch container."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.batch import Batch, rechunk_batches
from repro.storage.csvcodec import chunk_rows

ROWS = [
    (1, 10.5, "a", "1995-01-01"),
    (2, None, "ü", None),
    (None, -3.25, None, "1996-12-31"),
]


class TestConverters:
    def test_from_rows_to_rows_round_trip(self):
        batch = Batch.from_rows(ROWS)
        assert batch.to_rows() == ROWS
        assert len(batch) == 3
        assert list(batch) == ROWS

    def test_round_trip_preserves_value_types(self):
        values = Batch.from_rows(ROWS).to_rows()
        for got, want in zip(values, ROWS):
            for g, w in zip(got, want):
                assert type(g) is type(w)

    def test_from_rows_empty_needs_num_columns(self):
        with pytest.raises(ValueError, match="num_columns"):
            Batch.from_rows([])
        batch = Batch.from_rows([], num_columns=4)
        assert len(batch) == 0
        assert len(batch.columns) == 4
        assert batch.to_rows() == []

    def test_zero_column_batch(self):
        with pytest.raises(ValueError, match="explicit length"):
            Batch([])
        batch = Batch([], length=3)
        assert batch.to_rows() == [(), (), ()]
        assert list(batch.iter_rows()) == [(), (), ()]

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers()),
                st.one_of(st.none(), st.floats(allow_nan=False)),
                st.one_of(st.none(), st.text()),
            ),
            min_size=1,
        )
    )
    def test_round_trip_property(self, rows):
        assert Batch.from_rows(rows).to_rows() == rows


class TestSequenceProtocol:
    def test_indexing_and_row(self):
        batch = Batch.from_rows(ROWS)
        assert batch[0] == ROWS[0]
        assert batch[-1] == ROWS[-1]
        assert batch.row(1) == ROWS[1]

    def test_column_is_shared_not_copied(self):
        batch = Batch.from_rows(ROWS)
        assert batch.column(2) is batch.columns[2]

    def test_full_range_slice_returns_self(self):
        batch = Batch.from_rows(ROWS)
        assert batch[:] is batch
        assert batch[0:3] is batch
        assert batch[0:99] is batch

    def test_partial_slice_is_a_view_sharing_values(self):
        batch = Batch.from_rows(ROWS)
        view = batch[1:3]
        assert len(view) == 2
        assert view.to_rows() == ROWS[1:3]
        # The string objects are shared, not rebuilt.
        assert view.column(2)[0] is batch.column(2)[1]

    def test_stepped_slice_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Batch.from_rows(ROWS)[::2]


class TestTransforms:
    def test_filter_keeps_only_true(self):
        batch = Batch.from_rows(ROWS)
        # SQL WHERE semantics: NULL and False both drop the row.
        out = batch.filter([True, None, False])
        assert out.to_rows() == [ROWS[0]]

    def test_filter_nothing_dropped_returns_self(self):
        batch = Batch.from_rows(ROWS)
        assert batch.filter([True, True, True]) is batch

    def test_take(self):
        batch = Batch.from_rows(ROWS)
        assert batch.take([2, 0]).to_rows() == [ROWS[2], ROWS[0]]
        assert batch.take([]).to_rows() == []
        assert batch.take([0, 0, 2]).to_rows() == [ROWS[0], ROWS[0], ROWS[2]]

    def test_take_every_row_in_order_returns_self(self):
        batch = Batch.from_rows(ROWS)
        assert batch.take([0, 1, 2]) is batch
        assert batch.take([0, 2, 1]) is not batch


@given(
    st.lists(st.lists(st.tuples(st.integers(), st.text(max_size=3)), max_size=9), max_size=8),
    st.integers(1, 7),
)
def test_property_rechunk_matches_row_chunking(partitions, batch_size):
    """Columnar re-chunking cuts exactly where ``chunk_rows`` cuts."""
    batches = [Batch.from_rows(rows, num_columns=2) for rows in partitions]
    rows = [row for part in partitions for row in part]
    got = [batch.to_rows() for batch in rechunk_batches(batches, batch_size)]
    assert got == list(chunk_rows(rows, batch_size))


def test_rechunk_zero_column_batches_carry_their_length():
    """Batches without columns (a pushed COUNT(*)) are re-cut by length."""
    got = list(rechunk_batches([Batch([], 5), Batch([], 0), Batch([], 4)], 4))
    assert [type(b) for b in got] == [Batch] * 3
    assert [(len(b), b.columns) for b in got] == [(4, []), (4, []), (1, [])]


def test_rechunk_cuts_one_large_batch_into_many():
    batch = Batch.from_rows([(i, str(i)) for i in range(11)])
    got = [b.to_rows() for b in rechunk_batches([batch], 3)]
    assert [len(rows) for rows in got] == [3, 3, 3, 2]
    assert [row for rows in got for row in rows] == batch.to_rows()


def test_rechunk_rejects_non_positive_batch_size():
    with pytest.raises(ValueError):
        list(rechunk_batches([], 0))
