"""Tests for the simulated S3 Select engine and its dialect validator."""

import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    CatalogError,
    ExpressionLimitExceededError,
    ReproError,
    UnsupportedFeatureError,
)
from repro.expr.aggregates import Accumulator
from repro.expr.compiler import compile_expr, compile_predicate
from repro.s3select.engine import PreparedSelect, ScanRange, execute_select
from repro.s3select.validator import expression_complexity, validate_select_sql
from repro.sqlparser import ast
from repro.sqlparser.parser import parse
from repro.storage.csvcodec import encode_row, encode_table
from repro.storage.object_store import StoredObject
from repro.storage.parquet import write_parquet
from repro.storage.schema import TableSchema

from helpers import calls_by_name as _calls_by_name

SCHEMA = TableSchema.of("k:int", "v:float", "name:str", "day:date")
ROWS = [
    (1, 10.0, "alpha", "1995-01-01"),
    (2, 20.0, "beta", "1995-06-01"),
    (3, 30.0, "gamma", "1996-01-01"),
    (4, 40.0, "delta", "1996-06-01"),
]
SPEC = ["k:int", "v:float", "name:str", "day:date"]


def csv_object(rows=ROWS):
    data, _ = encode_table(rows)
    return StoredObject(data, {"format": "csv", "schema": SPEC, "header": False})


def parquet_object(rows=ROWS):
    data = write_parquet(rows, SCHEMA)
    return StoredObject(data, {"format": "parquet", "schema": SPEC})


class TestProjectionAndFilter:
    def test_star(self):
        result = execute_select(csv_object(), "SELECT * FROM S3Object")
        assert result.rows == ROWS
        assert result.column_names == ["k", "v", "name", "day"]

    def test_projection(self):
        result = execute_select(csv_object(), "SELECT name, k FROM S3Object")
        assert result.rows[0] == ("alpha", 1)

    def test_computed_projection(self):
        result = execute_select(csv_object(), "SELECT k * 10 + 1 FROM S3Object")
        assert result.rows[0] == (11,)

    def test_where(self):
        result = execute_select(
            csv_object(), "SELECT k FROM S3Object WHERE v >= 30"
        )
        assert [r[0] for r in result.rows] == [3, 4]

    def test_date_filter(self):
        result = execute_select(
            csv_object(), "SELECT k FROM S3Object WHERE day < '1996-01-01'"
        )
        assert [r[0] for r in result.rows] == [1, 2]

    def test_limit(self):
        result = execute_select(csv_object(), "SELECT k FROM S3Object LIMIT 2")
        assert len(result.rows) == 2

    def test_substring_bloom_predicate(self):
        sql = (
            "SELECT k FROM S3Object WHERE "
            "SUBSTRING('0101', (k % 97) % 4 + 1, 1) = '1'"
        )
        result = execute_select(csv_object(), sql)
        assert [r[0] for r in result.rows] == [1, 3]

    @pytest.mark.parametrize("where", [None, "v >= 0"])
    def test_limit_zero_pulls_no_chunk(self, where):
        rows = [(i, float(i), "x", "1995-01-01") for i in range(5000)]
        result = execute_select(csv_object(rows), _sql("k", where, 0))
        assert (result.rows, result.bytes_returned) == ([], 0)
        assert (result.rows_scanned, result.term_evals) == (0, 0)

    @pytest.mark.parametrize(
        "lo, limit, scanned",
        [
            # Chunks are rows [0, 4096), [4096, 8192), [8192, 10000).
            (5000, 1, 8192), (5000, 3000, 8192), (5000, 3192, 8192),
            (5000, 5000, 10000), (5000, None, 10000),
            (9000, 3, 10000), (9000, None, 10000),
        ],
    )
    def test_width_sized_response_pairs_each_chunk_with_its_mask(self, lo, limit, scanned):
        """A bare-column response is sized by pairing each decoded chunk's
        WHERE mask with the output batch at the same position; WHERE keeps
        nothing in the leading chunk(s), so dropping an empty batch before
        LIMIT would pair a later chunk's rows with an earlier mask."""
        rows = [(i, float(i), "n" * (1 + i % 13), "1995-01-01") for i in range(10_000)]
        obj = csv_object(rows)
        result = execute_select(obj, _sql("k, name", f"k >= {lo}", limit))
        assert _widths_held(obj) > 0  # sized from memoised widths
        assert result.rows == [(k, name) for k, _, name, _ in rows if k >= lo][:limit]
        assert result.bytes_returned == len(result.payload)
        assert result.rows_scanned == scanned


class TestAggregation:
    def test_simple_aggregates(self):
        result = execute_select(
            csv_object(),
            "SELECT SUM(v), COUNT(*), MIN(k), MAX(k), AVG(v) FROM S3Object",
        )
        assert result.rows == [(100.0, 4, 1, 4, 25.0)]

    def test_filtered_aggregate(self):
        result = execute_select(
            csv_object(), "SELECT SUM(v) FROM S3Object WHERE k <= 2"
        )
        assert result.rows == [(30.0,)]

    def test_case_aggregate(self):
        result = execute_select(
            csv_object(),
            "SELECT SUM(CASE WHEN k % 2 = 0 THEN v ELSE 0 END) FROM S3Object",
        )
        assert result.rows == [(60.0,)]

    def test_compound_aggregate_expression(self):
        result = execute_select(
            csv_object(), "SELECT SUM(v) / COUNT(v) FROM S3Object"
        )
        assert result.rows == [(25.0,)]

    @pytest.mark.parametrize("make_object", [csv_object, parquet_object], ids=["csv", "parquet"])
    @pytest.mark.parametrize("rows", [ROWS, []], ids=["rows", "empty"])
    def test_count_star_without_a_column_reference(self, make_object, rows):
        """No column is referenced, so a Parquet scan reads zero-column
        batches — which must still carry every row group's row count."""
        obj = make_object(rows)
        plain = execute_select(obj, "SELECT COUNT(*) FROM S3Object")
        assert plain.rows == [(len(rows),)]
        assert plain.rows_scanned == len(rows)
        assert plain.term_evals == len(rows)  # one aggregate item, no WHERE
        limited = execute_select(obj, "SELECT COUNT(*) FROM S3Object LIMIT 1")
        assert limited.rows == plain.rows
        assert limited.rows_scanned == plain.rows_scanned
        assert execute_select(obj, "SELECT COUNT(*) FROM S3Object LIMIT 0").rows == []
        # bytes_scanned keeps its rule: no referenced column bills them all.
        assert plain.bytes_scanned == execute_select(
            obj, "SELECT * FROM S3Object"
        ).bytes_scanned
        assert execute_select(obj, "SELECT 7 FROM S3Object").rows == [(7,)] * len(rows)

    def test_count_star_types_no_column(self):
        """Nothing referenced, nothing typed (it used to type them all) —
        metered as before, and a ragged object still raises."""
        fresh, warm = csv_object(), csv_object()
        execute_select(warm, "SELECT k FROM S3Object")
        for obj in (fresh, warm, warm):
            calls = _calls_by_name(
                lambda: execute_select(obj, "SELECT COUNT(*) FROM S3Object LIMIT 3")
            )
            assert calls["parse_column"] == calls["_unpack"] == 0
        result = execute_select(fresh, "SELECT COUNT(*) FROM S3Object WHERE 1 = 1")
        assert (result.rows, result.rows_scanned, result.term_evals) == ([(4,)], 4, 8)
        assert result.bytes_scanned == len(fresh.data)
        ranged = execute_select(fresh, "SELECT COUNT(*) FROM S3Object", ScanRange(0, 30))
        assert ranged.rows == [(1,)] and ranged.bytes_scanned == 30
        ragged = StoredObject(fresh.data + b"5,6\n", fresh.metadata)
        with pytest.raises(CatalogError):
            execute_select(ragged, "SELECT COUNT(*) FROM S3Object")

    def test_limit_zero_still_reads_every_row(self):
        rows = [(i, float(i), "x", "1995-01-01") for i in range(5000)]
        result = execute_select(csv_object(rows), "SELECT COUNT(*) FROM S3Object LIMIT 0")
        assert (result.rows, result.rows_scanned) == ([], 5000)

    def test_empty_input_aggregates(self):
        result = execute_select(
            csv_object(), "SELECT SUM(v), COUNT(*) FROM S3Object WHERE k > 99"
        )
        assert result.rows == [(None, 0)]


class TestAccounting:
    def test_csv_scans_whole_object(self):
        obj = csv_object()
        result = execute_select(obj, "SELECT k FROM S3Object WHERE k = 1")
        assert result.bytes_scanned == len(obj.data)

    def test_returned_bytes_match_payload(self):
        result = execute_select(csv_object(), "SELECT k FROM S3Object")
        assert result.bytes_returned == len(result.payload) > 0

    def test_aggregates_return_tiny_payload(self):
        result = execute_select(csv_object(), "SELECT SUM(v) FROM S3Object")
        assert result.bytes_returned < 20

    def test_parquet_scans_only_referenced_columns(self):
        obj = parquet_object([(i, float(i), f"long-pad-{i:08d}", "1995-01-01")
                              for i in range(300)])
        narrow = execute_select(obj, "SELECT k FROM S3Object")
        wide = execute_select(obj, "SELECT * FROM S3Object")
        assert narrow.bytes_scanned < wide.bytes_scanned
        assert narrow.rows == [(i,) for i in range(300)]

    def test_parquet_where_columns_count_as_scanned(self):
        obj = parquet_object()
        just_k = execute_select(obj, "SELECT k FROM S3Object")
        k_filtered_by_v = execute_select(
            obj, "SELECT k FROM S3Object WHERE v > 0"
        )
        assert k_filtered_by_v.bytes_scanned > just_k.bytes_scanned

    def test_parquet_results_match_csv(self):
        sql = "SELECT name, v FROM S3Object WHERE k >= 2"
        assert (
            execute_select(parquet_object(), sql).rows
            == execute_select(csv_object(), sql).rows
        )

    def test_term_evals_scale_with_select_items(self):
        cheap = execute_select(csv_object(), "SELECT k FROM S3Object")
        costly = execute_select(
            csv_object(),
            "SELECT SUM(CASE WHEN k = 1 THEN v ELSE 0 END),"
            " SUM(CASE WHEN k = 2 THEN v ELSE 0 END) FROM S3Object",
        )
        assert cheap.term_evals == 0
        assert costly.term_evals == 2 * len(ROWS)


class TestScanRange:
    def test_prefix_range_returns_leading_rows(self):
        obj = csv_object()
        full = execute_select(obj, "SELECT k FROM S3Object")
        half = execute_select(
            obj, "SELECT k FROM S3Object",
            scan_range=ScanRange(0, len(obj.data) // 2),
        )
        assert 0 < len(half.rows) < len(full.rows)
        assert half.rows == full.rows[: len(half.rows)]

    def test_range_bills_only_window(self):
        obj = csv_object()
        half = execute_select(
            obj, "SELECT k FROM S3Object",
            scan_range=ScanRange(0, len(obj.data) // 2),
        )
        assert half.bytes_scanned == len(obj.data) // 2

    def test_range_on_parquet_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(
                parquet_object(), "SELECT k FROM S3Object",
                scan_range=ScanRange(0, 10),
            )


class TestDialectValidation:
    def test_from_table_must_be_s3object(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(csv_object(), "SELECT * FROM lineitem")

    def test_group_by_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(csv_object(), "SELECT k FROM S3Object GROUP BY k")

    def test_order_by_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(csv_object(), "SELECT k FROM S3Object ORDER BY k")

    def test_join_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(csv_object(), "SELECT * FROM S3Object, S3Object2")

    def test_mixed_aggregate_and_scalar_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(csv_object(), "SELECT k, SUM(v) FROM S3Object")

    def test_aggregate_in_where_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(
                csv_object(), "SELECT k FROM S3Object WHERE SUM(v) > 1"
            )

    def test_expression_limit_enforced(self):
        bits = "1" * 300_000
        sql = f"SELECT k FROM S3Object WHERE SUBSTRING('{bits}', 1, 1) = '1'"
        with pytest.raises(ExpressionLimitExceededError):
            execute_select(csv_object(), sql)

    def test_expression_limit_configurable(self):
        sql = "SELECT k FROM S3Object WHERE k = 1"
        with pytest.raises(ExpressionLimitExceededError):
            execute_select(csv_object(), sql, expression_limit=10)


class TestComplexityMetric:
    def test_bare_columns_are_free(self):
        q = parse("SELECT a, b, c FROM S3Object")
        assert expression_complexity(q) == 0

    def test_computed_items_cost_one_each(self):
        q = parse("SELECT a + 1, SUM(CASE WHEN a = 1 THEN b ELSE 0 END) FROM S3Object")
        # mixed agg/scalar is invalid SQL for the service, but the metric
        # itself just counts computed items.
        assert expression_complexity(q) == 2

    def test_where_counts_conjuncts(self):
        q = parse("SELECT a FROM S3Object WHERE a = 1 AND b = 2 AND c LIKE 'x%'")
        assert expression_complexity(q) == 3

    def test_or_counts_as_single_conjunct(self):
        q = parse("SELECT a FROM S3Object WHERE a = 1 OR b = 2")
        assert expression_complexity(q) == 1

    def test_validator_accepts_good_query(self):
        sql = "SELECT SUM(v) FROM S3Object WHERE k < 3"
        validate_select_sql(parse(sql))


# ----------------------------------------------------------------------
# columnar SelectResult == the row-at-a-time engine it replaced
# ----------------------------------------------------------------------

_TYPED_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-10**6, 10**6)),
        st.one_of(
            st.none(),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.integers(-100, 100).map(float),  # integral: "2.0" on the wire
        ),
        st.one_of(
            st.none(),
            st.sampled_from(["a,b", 'say "hi"', "line\nbreak", "\u00fc\u65e5\u672c", "x"]),
        ),
        st.one_of(st.none(), st.sampled_from(["1995-01-01", "1996-06-15"])),
    ),
    max_size=25,
)

_WHERE = [None, "k > 0", "v < 10.5 AND k IS NOT NULL", "name = 'x' OR day >= '1996-01-01'"]
_ITEMS = ["*", "k", "name, k", "v * 2, name, day", "SUBSTRING(name, 1, 2), k + 1"]
_AGGREGATES = ["COUNT(*)", "SUM(v), COUNT(k)", "MIN(name), MAX(v), AVG(k)", "SUM(v * k) / 3"]


def _oracle_rows(rows, items_sql, where_sql, limit=None):
    """Filter and project with the row compiler, one tuple at a time."""
    index = SCHEMA.name_to_index
    query = parse(f"SELECT {items_sql} FROM S3Object")
    if where_sql:
        keep = compile_predicate(parse(f"SELECT k FROM S3Object WHERE {where_sql}").where, index)
        rows = [r for r in rows if keep(r)]
    if items_sql != "*":
        fns = [compile_expr(item.expr, index) for item in query.select_items]
        rows = [tuple(fn(r) for fn in fns) for r in rows]
    return rows if limit is None else rows[:limit]


def _sql(items, where, limit=None):
    return (
        f"SELECT {items} FROM S3Object"
        + (f" WHERE {where}" if where else "")
        + (f" LIMIT {limit}" if limit is not None else "")
    )


@settings(max_examples=40, deadline=None)
@given(
    _TYPED_ROWS, st.sampled_from(_ITEMS), st.sampled_from(_WHERE),
    st.one_of(st.none(), st.integers(0, 30)), st.booleans(),
)
def test_property_projection_rows_and_bytes(rows, items, where, limit, parquet):
    # The toy Parquet column chunks are newline-delimited text.
    assume(not parquet or not any("\n" in (row[2] or "") for row in rows))
    obj = parquet_object(rows) if parquet else csv_object(rows)
    result = execute_select(obj, _sql(items, where, limit))
    assert result.rows == _oracle_rows(rows, items, where, limit)
    assert len(result.rows) == sum(len(batch) for batch in result.batches)
    encoded = b"".join(encode_row(r) for r in result.rows)
    assert result.bytes_returned == len(encoded)
    assert result.payload == encoded


@settings(max_examples=40, deadline=None)
@given(_TYPED_ROWS, st.sampled_from(_AGGREGATES), st.sampled_from(_WHERE))
def test_property_pushed_aggregates_match_row_fold(rows, items, where):
    """``add_many`` over vector inputs == ``add(operand(row))`` per row,
    bit for bit (float sums fold in the same order)."""
    result = execute_select(csv_object(rows), _sql(items, where))
    query = parse(_sql(items, where))
    kept = _oracle_rows(rows, "*", where)
    expected = [_fold_item(item.expr, kept) for item in query.select_items]
    assert [repr(v) for v in result.rows[0]] == [repr(v) for v in expected]
    assert result.bytes_returned == len(encode_row(result.rows[0]))
    assert result.rows_scanned == len(rows)


def _fold_item(expr, members):
    """``expr`` over one group's rows: each aggregate node (found with
    ``ast.walk``) folded one row at a time (``add(operand(row))``, the
    operand row-compiled; ``COUNT(*)`` folds a 1 per row), then the rest
    evaluated by the row compiler on the group's first row."""
    index = SCHEMA.name_to_index
    values = {}
    for node in ast.walk(expr):
        if isinstance(node, ast.Aggregate):
            operand = (
                (lambda row: 1) if isinstance(node.operand, ast.Star)
                else compile_expr(node.operand, index)
            )
            acc = Accumulator(node.func, node.distinct)
            for row in members:
                acc.add(operand(row))
            values[node] = acc.result()
    folded = ast.map_expr(
        expr, lambda n: ast.Literal(values[n]) if isinstance(n, ast.Aggregate) else None
    )
    return compile_expr(folded, index)(members[0] if members else (None,) * len(index))


_GROUPED = [  # (select list, GROUP BY)
    ("SUM(v), name", "name"),  # an aggregate before its key
    ("COUNT(*), MAX(v)", "name, day"),  # no key selected
    ("day, SUM(v * k) / 3, COUNT(k) + 1", "day"),  # arithmetic over aggregates
    ("k % 3, MIN(name), AVG(v)", "k % 3"),  # a computed key
    ("name, SUM(v), day, COUNT(*)", "day, name"),  # keys out of GROUP BY order
    ("SUM(v), k + 1", "name, k"),  # an item computed from a key
]


def _grouped_oracle(rows, items, group_by):
    """Group in first-appearance order with the row compiler and evaluate
    every item over each group (:func:`_fold_item`)."""
    index = SCHEMA.name_to_index
    query = parse(f"SELECT {items} FROM S3Object GROUP BY {group_by}")
    key_fns = [compile_expr(g, index) for g in query.group_by]
    groups = {}
    for row in rows:
        groups.setdefault(tuple(fn(row) for fn in key_fns), []).append(row)
    return [
        tuple(_fold_item(item.expr, members) for item in query.select_items)
        for members in groups.values()
    ]


@settings(max_examples=30, deadline=None)
@given(
    _TYPED_ROWS, st.sampled_from([1, 400]), st.sampled_from(_GROUPED),
    st.sampled_from(_WHERE), st.one_of(st.none(), st.integers(0, 4)),
)
def test_property_pushed_group_by_matches_row_fold(rows, copies, grouped, where, limit):
    """The storage-side partial group-by (``allow_group_by=True``) == that
    oracle, bit for bit: NULL keys, WHERE, LIMIT, and at 400 copies an
    object of several 4,096-row chunks."""
    rows = rows * copies
    items, group_by = grouped
    sql = (
        f"SELECT {items} FROM S3Object" + (f" WHERE {where}" if where else "")
        + f" GROUP BY {group_by}" + (f" LIMIT {limit}" if limit is not None else "")
    )
    result = execute_select(csv_object(rows), sql, allow_group_by=True)
    expected = _grouped_oracle(_oracle_rows(rows, "*", where), items, group_by)[:limit]
    assert [list(map(repr, r)) for r in result.rows] == [list(map(repr, r)) for r in expected]
    assert result.bytes_returned == len(b"".join(encode_row(r) for r in result.rows))
    assert result.rows_scanned == len(rows)


@pytest.mark.parametrize("items", ["name, v, COUNT(*)", "*, COUNT(*)"])
def test_pushed_group_by_items_must_be_keys_or_aggregates(items):
    sql = f"SELECT {items} FROM S3Object GROUP BY name, k"
    with pytest.raises(UnsupportedFeatureError, match="outside every group expression and aggregate"):
        execute_select(csv_object(), sql, allow_group_by=True)


@settings(max_examples=40, deadline=None)
@given(_TYPED_ROWS, st.integers(0, 400), st.sampled_from(_ITEMS))
@example([(1, None, "\u00fc\u65e5\u672c", None)], 6, "*")  # cuts a character in two
def test_property_scan_range_is_a_prefix_of_the_full_scan(rows, end, items):
    """Any window [0, end) yields a row prefix, billed for the window —
    also when it ends inside a multi-byte character."""
    obj = csv_object(rows)
    full = execute_select(obj, _sql(items, None))
    window = execute_select(obj, _sql(items, None), scan_range=ScanRange(0, end))
    assert window.rows == full.rows[: len(window.rows)]
    assert window.rows_scanned == len(window.rows)
    assert window.bytes_scanned == min(end, len(obj.data))
    if end >= len(obj.data):
        assert window.rows == full.rows


# ----------------------------------------------------------------------
# dialect holes: clauses the parser learned after the validator was written
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "sql",
    [
        "SELECT SUM(k) FROM S3Object HAVING SUM(k) > 100",
        "SELECT k FROM S3Object LEFT JOIN t ON k = j",
        "SELECT k FROM (SELECT k FROM S3Object) AS S3Object",
        "SELECT k FROM S3Object WHERE k IN (SELECT k FROM S3Object)",
        "SELECT k FROM S3Object WHERE EXISTS (SELECT k FROM S3Object)",
        "SELECT k FROM S3Object WHERE v > (SELECT MAX(v) FROM S3Object)",
        "SELECT (SELECT MAX(v) FROM S3Object) FROM S3Object",
    ],
)
def test_having_joins_derived_tables_and_subqueries_rejected(sql):
    """Each used to be accepted with the clause silently dropped (HAVING,
    LEFT JOIN) or to fail only when the kernels were compiled."""
    with pytest.raises(UnsupportedFeatureError):
        validate_select_sql(parse(sql))
    with pytest.raises(UnsupportedFeatureError):
        execute_select(csv_object(), sql)


# ----------------------------------------------------------------------
# one prepared statement, many objects == a fresh request per object
# ----------------------------------------------------------------------

_WIDE_SCHEMA = TableSchema.of("day:date", "pad:int", "name:str", "v:float", "k:int")


def _wide(rows):
    """The same rows under another schema: reordered, one extra column."""
    return [(day, 7, name, v, k) for k, v, name, day in rows]


def _observed(request):
    """Everything a request shows its caller: rows, names and the four
    metered fields — or the error type."""
    try:
        result = request()
    except ReproError as exc:
        return type(exc)
    return (
        result.rows, result.column_names, result.bytes_scanned,
        result.bytes_returned, result.rows_scanned, result.term_evals,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_TYPED_ROWS, st.sampled_from(["csv", "wide", "range", "parquet"])),
        min_size=1, max_size=5,
    ),
    st.sampled_from(_ITEMS + _AGGREGATES),
    st.sampled_from(_WHERE),
    st.one_of(st.none(), st.integers(0, 30)),
)
# The half-object window ends right before a newline *inside* quotes: the
# cut record used to be kept as complete and raised CatalogError.
@example([([(1, None, "ab\ncd", None)], "range")], "*", None, None)
def test_property_prepared_statement_matches_fresh_requests(objects, items, where, limit):
    """Re-binding on a schema change, ScanRange and Parquet included; every
    object is requested twice, so an accumulator carried over from the
    previous request would show."""
    assume(not any(
        kind == "parquet" and any("\n" in (row[2] or "") for row in rows)
        for rows, kind in objects
    ))
    sql = _sql(items, where, limit)
    statement = PreparedSelect(parse(sql))
    for rows, kind in objects + objects:
        scan_range = None
        if kind == "parquet":
            obj = parquet_object(rows)
        elif kind == "wide":
            data, _ = encode_table(_wide(rows))
            spec = [f"{c.name}:{c.type}" for c in _WIDE_SCHEMA.columns]
            obj = StoredObject(data, {"format": "csv", "schema": spec, "header": False})
        else:
            obj = csv_object(rows)
            if kind == "range":
                scan_range = ScanRange(0, len(obj.data) // 2)
        fresh = _observed(lambda: execute_select(obj, sql, scan_range=scan_range))
        assert fresh is not CatalogError  # a cut record is dropped, never parsed
        assert _observed(lambda: statement.execute(obj, scan_range)) == fresh
        assert _observed(lambda: execute_select(obj, statement, scan_range)) == fresh


# ----------------------------------------------------------------------
# bytes_returned from memoised field widths == the payload's length
# ----------------------------------------------------------------------

_PLAIN_TEXT = ["x", "plain", "ü日本", "naïve café"]
_TRIGGER_TEXT = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere"]


def _sized_rows(names):
    return st.lists(
        st.tuples(
            st.one_of(
                st.none(), st.integers(-50, 50),
                st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30]),
            ),
            st.one_of(
                st.none(), st.floats(-100, 100), st.integers(-5, 5).map(float),
                st.sampled_from([1e16, -1e22, 1.5e300, float("inf"), float("nan"), -0.0]),
            ),
            st.one_of(st.none(), st.sampled_from(names)),
            st.one_of(st.none(), st.sampled_from(["1995-01-01", "1996-06-15"])),
        ),
        max_size=30,
    )


#: Memoised (quote-free) objects and ones that hold a quote, about evenly.
_SIZED_ROWS = st.one_of(_sized_rows(_PLAIN_TEXT), _sized_rows(_PLAIN_TEXT + _TRIGGER_TEXT))
_SIZED_ITEMS = [
    "*", "k", "name", "v, k", "day, name, v", "k, k", "name, *, name",
    "name, k + 1, v", "COUNT(*), SUM(k)",
]
_SIZED_WHERE = [
    None, "k IS NULL OR k IS NOT NULL", "v < 1.5", "name = 'x' AND k > 0",
    "day < '1996-01-01' OR v IS NULL", "k < k",
]


@settings(max_examples=200, deadline=None)
@given(
    _SIZED_ROWS, st.sampled_from(_SIZED_ITEMS), st.sampled_from(_SIZED_WHERE),
    st.one_of(st.none(), st.integers(0, 30)), st.sampled_from([4096, 7, 1]),
    st.sampled_from([None, "SELECT v FROM S3Object", "SELECT COUNT(*) FROM S3Object WHERE k > 0"]),
)
def test_property_bytes_returned_is_the_payloads_length(
    rows, items, where, limit, batch_size, warm_up
):
    """``encode_row`` builds the payload, so it is an independent oracle of
    the width-summed size: cold, warm, and on a memo another statement
    filled; survivors all / some / none; LIMIT cutting inside a chunk."""
    from unittest import mock

    from repro.s3select import engine as select_engine

    sql = _sql(items, where, limit)
    with mock.patch.object(select_engine, "DEFAULT_BATCH_SIZE", batch_size):
        obj = csv_object(rows)
        if warm_up:
            execute_select(obj, warm_up)
        results = [execute_select(obj, sql) for _ in range(2)]
        fresh = execute_select(csv_object(rows), sql)
    for result in (*results, fresh):
        assert result.bytes_returned == len(result.payload)
        assert result.bytes_returned == sum(len(encode_row(r)) for r in result.rows)
    assert {r.bytes_returned for r in results} == {fresh.bytes_returned}
    assert limit is None or len(fresh.rows) <= limit


def _widths_held(obj) -> int:
    return sum(
        1 for chunks in obj.decoded.values() for _, packed in chunks
        for key in packed if key[-1] == "widths"
    )


def test_width_sizing_is_lazy_packed_and_skips_formatting():
    """Only columns some response returned bare get a vector (1 byte per
    field while every field is short); the second identical request
    formats nothing."""
    rows = [(i, i / 8, "n" * (i % 5 + 1), "1995-01-01") for i in range(40)]
    obj = csv_object(rows)
    execute_select(obj, "SELECT SUM(v) FROM S3Object WHERE k > 3")
    execute_select(obj, "SELECT k + 1 FROM S3Object")
    assert _widths_held(obj) == 0
    sql = "SELECT name, k FROM S3Object WHERE v > 1.0"
    cold = _calls_by_name(lambda: execute_select(obj, sql))
    assert cold["format_column"] == 2 and cold["encoded_size"] == 0
    assert _widths_held(obj) == 2
    warm = _calls_by_name(lambda: execute_select(obj, sql))
    assert warm["format_column"] == warm["encoded_size"] == warm["_pack_widths"] == 0
    (chunks,) = obj.decoded.values()
    held = {key: w for _, packed in chunks for key, w in packed.items() if key[-1] == "widths"}
    assert {w.typecode for w in held.values()} == {"B"}
    long = csv_object([(1, 1.0, "w" * 300, "1995-01-01")])
    assert execute_select(long, "SELECT name FROM S3Object").bytes_returned == 301
    ((_, packed),) = next(iter(long.decoded.values()))
    assert packed[2, "str", "widths"].typecode == "H"


@pytest.mark.parametrize("case", ["quoted", "range", "parquet", "compressed"])
def test_everything_else_is_sized_by_formatting(case):
    rows = [(i, i / 8, "a,b" if case == "quoted" else "ab", "1995-01-01") for i in range(40)]
    obj = parquet_object(rows) if case == "parquet" else csv_object(rows)
    kwargs = {
        "range": {"scan_range": ScanRange(0, len(obj.data) // 2)},
        "compressed": {"compress_output": True},
    }.get(case, {})
    sql = "SELECT name, k FROM S3Object WHERE v > 1.0"
    calls = _calls_by_name(lambda: execute_select(obj, sql, **kwargs))
    assert calls["encoded_size"] >= 1
    result = execute_select(obj, sql, **kwargs)
    assert result.bytes_returned == len(result.payload)
    assert _widths_held(obj) == 0


def test_racing_first_requests_return_the_same_size():
    """16 first requests released together against one fresh object: each
    sizes from whole width vectors, whoever stored them."""
    rows = [(i, i / 7, "t" * (i % 9), "1995-01-01") for i in range(3000)]
    sql = "SELECT name, k, v FROM S3Object WHERE v < 200.0"
    want = execute_select(csv_object(rows), sql)
    assert want.bytes_returned == len(want.payload)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as pool:
            for _ in range(5):
                obj = csv_object(rows)
                start = Barrier(16)

                def request(_):
                    start.wait(timeout=60)
                    return execute_select(obj, sql).bytes_returned

                sizes = [f.result(timeout=60) for f in [
                    pool.submit(request, i) for i in range(16)
                ]]
                assert sizes == [want.bytes_returned] * 16
    finally:
        sys.setswitchinterval(interval)


def test_reloaded_table_is_sized_from_its_new_rows():
    from repro.planner.database import PushdownDB

    db = PushdownDB(bucket="sized")
    sql = "SELECT name, k FROM m WHERE v >= 0.0"
    for width in (2, 11, 2):
        rows = [(i * 10**width, 1.0, "n" * width, "1995-01-01") for i in range(1, 60)]
        db.load_table("m", rows, SCHEMA, partitions=2)
        want = sum(len(encode_row((name, k))) for k, _, name, _ in rows)
        assert [db.execute(sql, mode="optimized").bytes_returned for _ in range(2)] == [want] * 2
