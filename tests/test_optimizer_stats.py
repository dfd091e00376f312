"""Tests for the optimizer's statistics layer and selectivity estimates."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.engine.operators.base import materialize
from repro.optimizer.selectivity import estimate_selectivity, probe_selectivity
from repro.optimizer.stats import (
    _MCV_TRACK_LIMIT,
    ColumnStats,
    ColumnZone,
    PartitionZoneMap,
    TableStats,
    build_histogram,
    collect_table_stats,
    collect_zone_map,
    synthesize_table_stats,
)
from repro.sqlparser.parser import parse_expression
from repro.storage.csvcodec import (
    encode_row,
    encode_table,
    format_value,
    iter_records,
)
from repro.storage.parquet import ParquetFile
from repro.storage.schema import TableSchema

SCHEMA = TableSchema.of("k:int", "v:float", "tag:str")

ROWS = [
    (0, 1.5, "alpha"),
    (1, 2.5, "alpha"),
    (2, None, "beta"),
    (3, 4.5, None),
    (4, 4.5, "alpha"),
    (5, 0.5, "gamma"),
    (6, 0.5, "alpha"),
    (7, 9.5, "beta"),
    (8, 2.5, "alpha"),
    (9, 1.5, "delta"),
]


@pytest.fixture(scope="module")
def stats():
    return collect_table_stats(ROWS, SCHEMA)


class TestCollection:
    def test_row_count_and_width(self, stats):
        assert stats.row_count == len(ROWS)
        data, _ = encode_table(ROWS)
        assert stats.avg_row_bytes == pytest.approx(len(data) / len(ROWS))

    def test_distinct_and_nulls(self, stats):
        assert stats.column("k").distinct == 10
        assert stats.column("v").distinct == 5
        assert stats.column("v").null_count == 1
        assert stats.column("tag").null_count == 1

    def test_min_max(self, stats):
        assert stats.column("k").min_value == 0
        assert stats.column("k").max_value == 9
        assert stats.column("v").min_value == 0.5
        assert stats.column("v").max_value == 9.5
        assert stats.column("tag").min_value == "alpha"

    def test_mcvs_most_frequent_first(self, stats):
        tag = stats.column("tag")
        assert tag.mcvs[0] == ("alpha", 5)
        assert tag.mcv_fraction(stats.row_count, 1) == pytest.approx(0.5)

    def test_projected_row_bytes_matches_encoding(self, stats):
        projected = [(r[0], r[2]) for r in ROWS]
        data, _ = encode_table(projected)
        assert stats.projected_row_bytes(["k", "tag"]) == pytest.approx(
            len(data) / len(ROWS)
        )

    def test_case_insensitive_lookup(self, stats):
        assert stats.column("K") is stats.column("k")
        assert stats.column("missing") is None

    def test_empty_table(self):
        empty = collect_table_stats([], SCHEMA)
        assert empty.row_count == 0
        assert empty.avg_row_bytes == 0.0
        assert empty.column("k").distinct == 0


def _reference_table_stats(rows, schema, mcv_size=16):
    """The per-value loop ``collect_table_stats`` replaced — its own
    quoting-overhead rule, a counter that gives up past the tracking
    limit — kept as the oracle: the chooser and the join-order DP read
    these numbers, so none of them may move."""
    n = len(rows)
    columns = {}
    for idx, col in enumerate(schema.columns):
        values = [row[idx] for row in rows]
        non_null = [v for v in values if v is not None]
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in non_null
        )
        counter = Counter()
        distinct_set = set()
        width_total = 0
        for v in values:
            text = format_value(v)
            width_total += len(text.encode())
            if any(ch in ',"\n\r' for ch in text):
                width_total += 2 + text.count('"')  # quoting overhead
            if v is not None:
                distinct_set.add(v)
                if counter is not None:
                    counter[v] += 1
                    if len(counter) > _MCV_TRACK_LIMIT:
                        counter = None
        columns[col.name.lower()] = ColumnStats(
            name=col.name,
            type=col.type,
            distinct=len(distinct_set),
            null_count=n - len(non_null),
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            avg_field_bytes=width_total / n if n else 0.0,
            mcvs=tuple(counter.most_common(mcv_size)) if counter else (),
            histogram=build_histogram(non_null) if numeric else None,
        )
    field_bytes = sum(c.avg_field_bytes for c in columns.values())
    return TableStats(
        row_count=n,
        avg_row_bytes=(field_bytes + len(schema)) if n else 0.0,
        columns=columns,
    )


#: Few distinct values (MCV ties broken by first appearance), NULLs, and
#: text whose width depends on quoting and on multi-byte characters.
_STATS_ROW = st.tuples(
    st.one_of(st.none(), st.integers(0, 5)),
    st.one_of(st.none(), st.sampled_from([0.5, 2.0, -0.0, 1e16, 2.5])),
    st.one_of(
        st.none(),
        st.sampled_from(["a", "b,c", 'say "hi"', "x\ny", "\u00e9t\u00e9", ""]),
    ),
)


class TestCollectionMatchesThePerValueLoop:
    @given(st.lists(_STATS_ROW, max_size=40), st.integers(1, 4))
    def test_property_equal_table_stats(self, rows, mcv_size):
        assert collect_table_stats(rows, SCHEMA, mcv_size) == (
            _reference_table_stats(rows, SCHEMA, mcv_size)
        )

    def test_mcv_ties_break_by_first_appearance(self):
        rows = [(k, 0.0, "t") for k in (3, 1, 2, 1, 3, 2, 0)]
        stats = collect_table_stats(rows, SCHEMA, mcv_size=2)
        assert stats.column("k").mcvs == ((3, 2), (1, 2))
        assert stats == _reference_table_stats(rows, SCHEMA, mcv_size=2)

    @pytest.mark.parametrize("distinct", [_MCV_TRACK_LIMIT, _MCV_TRACK_LIMIT + 1])
    def test_mcv_tracking_stops_past_the_limit(self, distinct):
        """At the limit the MCV list is kept; one more distinct value and
        it is dropped — the distinct count stays exact either way."""
        rows = [(k % distinct, 1.0, "t") for k in range(distinct + 7)]
        stats = collect_table_stats(rows, SCHEMA)
        assert stats == _reference_table_stats(rows, SCHEMA)
        assert stats.column("k").distinct == distinct
        assert bool(stats.column("k").mcvs) == (distinct <= _MCV_TRACK_LIMIT)

    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3), st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e16]),
                st.floats(),
            ),
            min_size=1, max_size=60,
        ),
        st.integers(1, 8),
    )
    def test_property_histogram_from_counts_equals_the_sort(self, values, buckets):
        """A single-type column cut from its counts gives the repr of the
        one sorted whole; mixed int / float columns, ``±0.0`` and NaN are
        sorted whole either way.  Each column also runs eight times over,
        so it has few enough distinct values to take the counts path."""
        parts = (values, [v for v in values if type(v) is int],
                 [v for v in values if type(v) is float])
        for column in (*parts, *(part * 8 for part in parts)):
            sorted_whole = build_histogram(column, buckets)
            from_counts = build_histogram(column, buckets, counts=Counter(column))
            assert repr(from_counts) == repr(sorted_whole)


#: What the loader must agree with the per-value loops on: NULLs, an
#: all-NULL column, bools among ints, ints among floats (integral floats,
#: exponent forms), text that needs quoting or is not ASCII.
_LOAD_SCHEMA = TableSchema.of("k:int", "gone:int", "flag:int", "num:float", "tag:str")
_LOAD_ROW = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.none(),
    st.one_of(st.booleans(), st.integers(0, 2)),
    st.one_of(st.none(), st.integers(-2, 2),
              st.sampled_from([0.5, 2.0, -0.0, 1e16, 1.5e300, 2.5e-7])),
    st.one_of(
        st.none(),
        st.sampled_from(["a", "b,c", 'say "hi"', "x\ny", "\u00e9t\u00e9", ""]),
    ),
)
#: Values a Parquet object hands back as it got them.
_PARQUET_ROW = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.none(),
    st.integers(0, 2),
    st.one_of(st.none(), st.sampled_from([0.5, 2.0, -0.0, 1e16, 2.5e-7])),
    st.one_of(st.none(), st.sampled_from(["a", "b,c", 'say "hi"', "\u00e9t\u00e9"])),
)


def _reference_zone_map(rows, schema):
    """The per-row loop ``collect_zone_map`` replaced."""
    columns = {}
    for idx, col in enumerate(schema.columns):
        non_null = [row[idx] for row in rows if row[idx] is not None]
        columns[col.name.lower()] = ColumnZone(
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            null_count=len(rows) - len(non_null),
        )
    return PartitionZoneMap(row_count=len(rows), columns=columns)


class TestLoaderMatchesThePerValueLoops:
    """``load_table`` derives bytes, widths, zone maps and table statistics
    from one transposition per partition; the row-at-a-time encoder and
    the per-value statistics loops stay here as its oracle."""

    def _check_statistics(self, info, rows):
        expected = _reference_table_stats(rows, _LOAD_SCHEMA)
        # ``2 == 2.0``: the repr pins which of two equal values was kept.
        assert info.stats == expected and repr(info.stats) == repr(expected)
        starts = [sum(info.partition_rows[:i]) for i in range(info.partitions)]
        chunks = [rows[a : a + n] for a, n in zip(starts, info.partition_rows)]
        zones = [_reference_zone_map(chunk, _LOAD_SCHEMA) for chunk in chunks]
        assert info.zone_maps == zones and repr(info.zone_maps) == repr(zones)
        assert collect_zone_map(rows, _LOAD_SCHEMA) == _reference_zone_map(
            rows, _LOAD_SCHEMA
        )
        return chunks

    @given(st.lists(_LOAD_ROW, max_size=40), st.integers(1, 6))
    def test_property_csv_load(self, rows, partitions):
        ctx = CloudContext()
        info = load_table(
            ctx, Catalog(), "t", rows, _LOAD_SCHEMA, bucket="b",
            partitions=partitions, index_columns=["k", "tag"],
        )
        chunks = self._check_statistics(info, rows)
        assert sum(info.partition_rows) == info.num_rows == len(rows)
        for i, (key, chunk) in enumerate(zip(info.keys, chunks)):
            data = ctx.store.get_bytes("b", key)
            assert data == b"".join(map(encode_row, chunk))
            assert info.partition_bytes[i] == len(data)
            for column in ("k", "tag"):
                at = _LOAD_SCHEMA.index_of(column)
                index = ctx.store.get_bytes("b", info.index_for(column).keys[i])
                entries = list(iter_records(index))
                assert [e[0] for e in entries] == [format_value(r[at]) for r in chunk]
                assert [data[int(e[1]) : int(e[2]) + 1] for e in entries] == [
                    encode_row(row) for row in chunk
                ]
        assert info.total_bytes == sum(info.partition_bytes)
        for index in info.indexes.values():
            assert index.total_bytes == sum(
                ctx.store.object_size("b", key) for key in index.keys
            )

    @given(st.lists(_PARQUET_ROW, max_size=40), st.integers(1, 4), st.integers(1, 5))
    def test_property_parquet_load(self, rows, partitions, row_group_rows):
        ctx = CloudContext()
        info = load_table(
            ctx, Catalog(), "t", rows, _LOAD_SCHEMA, bucket="b",
            partitions=partitions, data_format="parquet",
            row_group_rows=row_group_rows,
        )
        chunks = self._check_statistics(info, rows)
        for key, chunk in zip(info.keys, chunks):
            stored = ParquetFile(ctx.store.get_bytes("b", key))
            assert materialize(stored.iter_batches()) == chunk
            assert [g.num_rows for g in stored.row_groups] == [
                len(chunk[a : a + row_group_rows])
                for a in range(0, len(chunk), row_group_rows)
            ]


class TestCatalogWiring:
    def test_load_table_attaches_stats(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", ROWS, SCHEMA, bucket="b")
        assert info.stats is not None
        assert info.stats.row_count == len(ROWS)
        assert info.stats_or_default() is info.stats

    def test_collect_stats_opt_out_synthesizes(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", ROWS, SCHEMA, bucket="b", collect_stats=False
        )
        assert info.stats is None
        fallback = info.stats_or_default()
        assert fallback.row_count == len(ROWS)
        # The fallback apportions the true average row width.
        assert fallback.avg_row_bytes == pytest.approx(
            info.total_bytes / info.num_rows
        )

    def test_index_total_bytes_recorded(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", ROWS, SCHEMA, bucket="b", index_columns=["k"]
        )
        index = info.index_for("k")
        assert index.total_bytes == sum(
            ctx.store.object_size("b", key) for key in index.keys
        )

    def test_synthesize_without_rows(self):
        stats = synthesize_table_stats(SCHEMA, 0, 0)
        assert stats.row_count == 0
        assert stats.projected_row_bytes(["k"]) > 0  # never degenerate


class TestSelectivity:
    def _estimate(self, sql, stats):
        return estimate_selectivity(parse_expression(sql), stats)

    def test_none_predicate(self, stats):
        assert estimate_selectivity(None, stats) == 1.0

    def test_range_exact_on_dense_ints(self, stats):
        assert self._estimate("k < 4", stats) == pytest.approx(0.4)
        assert self._estimate("k <= 4", stats) == pytest.approx(0.5)
        assert self._estimate("k >= 8", stats) == pytest.approx(0.2)
        assert self._estimate("k > 9", stats) == pytest.approx(0.0)

    def test_equality_uses_mcvs(self, stats):
        assert self._estimate("tag = 'alpha'", stats) == pytest.approx(0.5)

    def test_equality_falls_back_to_distinct(self, stats):
        assert self._estimate("k = 3", stats) == pytest.approx(0.1)

    def test_conjunction_and_disjunction(self, stats):
        conj = self._estimate("k < 4 AND tag = 'alpha'", stats)
        assert conj == pytest.approx(0.4 * 0.5)
        disj = self._estimate("k < 4 OR tag = 'alpha'", stats)
        assert disj == pytest.approx(0.4 + 0.5 - 0.2)

    def test_negation(self, stats):
        assert self._estimate("NOT (k < 4)", stats) == pytest.approx(0.6)

    def test_is_null_from_counts(self, stats):
        assert self._estimate("v IS NULL", stats) == pytest.approx(0.1)
        assert self._estimate("v IS NOT NULL", stats) == pytest.approx(0.9)

    def test_in_list_sums_equalities(self, stats):
        assert self._estimate("k IN (1, 2, 3)", stats) == pytest.approx(0.3)

    def test_between(self, stats):
        assert self._estimate("k BETWEEN 2 AND 5", stats) == pytest.approx(0.4)

    def test_clamped_to_unit_interval(self, stats):
        assert 0.0 <= self._estimate("k < -100", stats) <= 1.0
        assert self._estimate("k < 1000", stats) == 1.0


class TestProbe:
    def test_probe_measures_and_meters(self):
        ctx, catalog = CloudContext(), Catalog()
        rows = [(i, float(i), "t") for i in range(2000)]
        info = load_table(ctx, catalog, "t", rows, SCHEMA, bucket="b", partitions=4)
        mark = ctx.metrics.mark()
        measured = probe_selectivity(
            ctx, info, parse_expression("k < 500"), fraction=0.5
        )
        # A leading 50% slice of a sorted table sees only matching rows
        # in the first partitions; the estimate must still be sane and
        # the probe requests must be metered.
        assert 0.0 <= measured <= 1.0
        records = ctx.metrics.records_since(mark)
        assert len(records) == info.partitions
        assert all(r.bytes_scanned > 0 for r in records)
