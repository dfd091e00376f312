"""Tests for the local query-node operators, fed one batch each, against
hand-computed rows and naive Python references."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import materialize, one_batch
from repro.common.errors import PlanError, UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import GroupBy, group_by_batches
from repro.engine.operators.hashjoin import hash_join_batches
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches, projected_names
from repro.engine.operators.sort import SortKey, sort_batches
from repro.engine.operators.topk import top_k_batches
from repro.queries.common import items
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression

NAMES = ["k", "v", "tag"]
ROWS = [
    (3, 30.0, "c"),
    (1, 10.0, "a"),
    (2, 20.0, "b"),
    (2, 25.0, "b"),
]


def project(rows, names, select_items):
    out = materialize(project_batches(one_batch(rows, names), names, select_items))
    return out, projected_names(names, select_items)


def filter_rows(rows, names, predicate, tally=None):
    return materialize(filter_batches(one_batch(rows, names), names, predicate, tally))


def hash_join(build, build_names, probe, probe_names, build_key, probe_key):
    names, joined = hash_join_batches(
        build, build_names, one_batch(probe, probe_names), probe_names,
        build_key, probe_key,
    )
    return materialize(joined), names


def group_by(rows, names, group_exprs, items):
    return list(group_by_batches(one_batch(rows, names), names, group_exprs, items))


def sort_rows(rows, names, order):
    return list(sort_batches(one_batch(rows, names), names, order))


def top_k(rows, names, order, k):
    return list(top_k_batches(one_batch(rows, names), names, order, k))


class TestProjectAndFilter:
    def test_project_columns(self):
        rows, names = project(ROWS, NAMES, items("tag", "k"))
        assert rows[0] == ("c", 3)
        assert names == ["tag", "k"]

    def test_project_expressions(self):
        rows, names = project(ROWS, NAMES, items("k * 10 AS k10", "v"))
        assert names == ["k10", "v"]
        assert rows[0] == (30, 30.0)

    def test_project_star_expands(self):
        rows, names = project(ROWS, NAMES, [ast.SelectItem(expr=ast.Star())])
        assert names == NAMES
        assert rows == ROWS

    def test_filter(self):
        assert len(filter_rows(ROWS, NAMES, parse_expression("k = 2"))) == 2

    def test_filter_none_predicate_passes_all(self):
        assert filter_rows(ROWS, NAMES, None) == ROWS

    def test_cpu_estimates_nonzero(self):
        tally = CpuTally()
        filter_rows(ROWS, NAMES, parse_expression("k = 1"), tally)
        assert tally.seconds > 0


class TestHashJoin:
    BUILD = [(1, "x"), (2, "y")]
    PROBE = [(10, 1), (20, 1), (30, 2), (40, 9)]

    def test_inner_join(self):
        rows, names = hash_join(
            self.BUILD, ["id", "name"], self.PROBE, ["amt", "fk"], "id", "fk"
        )
        assert names == ["id", "name", "amt", "fk"]
        assert sorted(rows) == [
            (1, "x", 10, 1), (1, "x", 20, 1), (2, "y", 30, 2),
        ]

    def test_duplicate_build_keys_multiply(self):
        rows, _ = hash_join(
            [(1, "a"), (1, "b")], ["id", "name"],
            [(5, 1)], ["amt", "fk"], "id", "fk",
        )
        assert len(rows) == 2

    def test_null_keys_never_match(self):
        rows, _ = hash_join(
            [(None, "a")], ["id", "name"], [(5, None)], ["amt", "fk"], "id", "fk"
        )
        assert rows == []

    def test_name_collision_rejected(self):
        with pytest.raises(PlanError):
            hash_join([(1,)], ["k"], [(1,)], ["k"], "k", "k")

    def test_missing_key_rejected(self):
        with pytest.raises(PlanError):
            hash_join([(1,)], ["a"], [(1,)], ["b"], "nope", "b")


class TestGroupBy:
    def test_single_group_column(self):
        out = group_by(
            ROWS, NAMES, [ast.Column("k")],
            items("k", "SUM(v) AS total", "COUNT(*) AS n"),
        )
        as_dict = {r[0]: (r[1], r[2]) for r in out}
        assert as_dict == {3: (30.0, 1), 1: (10.0, 1), 2: (45.0, 2)}

    def test_empty_group_list_is_global_aggregate(self):
        out = group_by(ROWS, NAMES, (), items("SUM(v) AS t"))
        assert out == [(85.0,)]

    def test_compound_aggregate_item(self):
        out = group_by(
            ROWS, NAMES, [ast.Column("tag")],
            items("tag", "SUM(v) / COUNT(v) AS avg_v"),
        )
        as_dict = dict(out)
        assert as_dict["b"] == 22.5

    def test_group_expression(self):
        out = group_by(
            ROWS, NAMES, [parse_expression("k % 2")],
            items("k % 2", "COUNT(*) AS n"),
        )
        assert dict(out) == {1: 2, 0: 2}

    def test_output_names(self):
        group_by = GroupBy(NAMES, [ast.Column("k")], items("k", "SUM(v) AS total"))
        assert group_by.names == ["k", "total"]

    def test_emits_exactly_its_items(self):
        """Keys only where an item lists them, items in order, computed
        from keys, aggregates and literals alike."""
        out = group_by(
            ROWS, NAMES, [ast.Column("k")],
            items("COUNT(*)", "k + 1", "7", "SUM(v) + k", "100 * SUM(v) / SUM(k)"),
        )
        assert out == [
            (1, 4, 7, 33.0, 1000.0), (1, 2, 7, 11.0, 1000.0),
            (2, 3, 7, 47.0, 1125.0),
        ]

    def test_a_column_outside_keys_and_aggregates_is_named(self):
        with pytest.raises(UnsupportedFeatureError, match="'v' is outside every"):
            GroupBy(NAMES, [ast.Column("k")], items("k", "v"))


class TestSortAndTopK:
    def test_sort_ascending(self):
        out = sort_rows(ROWS, NAMES, [ast.OrderItem(expr=ast.Column("k"))])
        assert [r[0] for r in out] == [1, 2, 2, 3]

    def test_sort_mixed_directions(self):
        order = [
            ast.OrderItem(expr=ast.Column("k"), descending=True),
            ast.OrderItem(expr=ast.Column("v")),
        ]
        out = sort_rows(ROWS, NAMES, order)
        assert [(r[0], r[1]) for r in out] == [
            (3, 30.0), (2, 20.0), (2, 25.0), (1, 10.0),
        ]

    def test_sort_nulls_first_ascending(self):
        rows = [(2,), (None,), (1,)]
        out = sort_rows(rows, ["x"], [ast.OrderItem(expr=ast.Column("x"))])
        assert [r[0] for r in out] == [None, 1, 2]

    def test_sort_nulls_last_descending(self):
        rows = [(2,), (None,), (1,)]
        out = sort_rows(
            rows, ["x"], [ast.OrderItem(expr=ast.Column("x"), descending=True)]
        )
        assert [r[0] for r in out] == [2, 1, None]

    def test_sortkey_equality(self):
        assert SortKey(1, False) == SortKey(1, True)
        assert SortKey(1, False) < SortKey(2, False)
        assert SortKey(2, True) < SortKey(1, True)

    def test_top_k_matches_sort_prefix(self):
        order = [ast.OrderItem(expr=ast.Column("v"))]
        full = sort_rows(ROWS, NAMES, order)
        assert top_k(ROWS, NAMES, order, 2) == full[:2]

    def test_top_k_beyond_size(self):
        order = [ast.OrderItem(expr=ast.Column("v"))]
        assert len(top_k(ROWS, NAMES, order, 99)) == len(ROWS)

    def test_top_k_negative_rejected(self):
        with pytest.raises(ValueError):
            top_k(ROWS, NAMES, [ast.OrderItem(expr=ast.Column("v"))], -1)

    def test_limit(self):
        batches = [Batch.from_rows(ROWS[:3]), Batch.from_rows(ROWS[3:])]
        assert materialize(limit_batches(batches, 2)) == ROWS[:2]
        assert materialize(limit_batches(batches, 0)) == []
        assert list(limit_batches(batches, None)) == batches
        with pytest.raises(ValueError):
            list(limit_batches(batches, -1))


@given(
    st.lists(
        st.tuples(st.integers(-100, 100), st.floats(-1e3, 1e3)),
        max_size=80,
    ),
    st.integers(0, 20),
    st.booleans(),
)
def test_property_topk_equals_sorted_prefix(rows, k, descending):
    """Heap top-K over random data == sort-then-take-K."""
    names = ["a", "b"]
    order = [ast.OrderItem(expr=ast.Column("b"), descending=descending)]
    expected = sorted(rows, key=lambda r: r[1], reverse=descending)[:k]
    # Stable both ways: ties keep arrival order (a reversed sort does too).
    assert top_k(rows, names, order, k) == expected
    assert sort_rows(rows, names, order)[:k] == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-1000, 1000)), max_size=80
    )
)
def test_property_groupby_matches_naive(rows):
    """Hash group-by equals a dict-based reference implementation."""
    names = ["g", "v"]
    out = group_by(
        rows, names, [ast.Column("g")], items("g", "SUM(v) AS s", "COUNT(*) AS n")
    )
    reference: dict[int, list] = {}
    for g, v in rows:
        entry = reference.setdefault(g, [0, 0])
        entry[0] += v
        entry[1] += 1
    assert {r[0]: (r[1], r[2]) for r in out} == {
        g: tuple(e) for g, e in reference.items()
    }
