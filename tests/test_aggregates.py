"""Tests for aggregate accumulators."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.expr.aggregates import Accumulator
from repro.expr.compiler import compile_expr
from repro.expr.vector import compile_aggregate_input_vector
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression
from repro.strategies.scans import merge_partial


class TestAccumulator:
    def test_sum(self):
        acc = Accumulator("SUM")
        for v in (1, 2, 3):
            acc.add(v)
        assert acc.result() == 6

    def test_count(self):
        acc = Accumulator("COUNT")
        for v in (1, None, 3):
            acc.add(v)
        assert acc.result() == 2  # SQL COUNT skips NULLs

    def test_avg(self):
        acc = Accumulator("AVG")
        for v in (2, 4):
            acc.add(v)
        assert acc.result() == 3

    def test_min_max(self):
        lo, hi = Accumulator("MIN"), Accumulator("MAX")
        for v in (5, -1, 3):
            lo.add(v)
            hi.add(v)
        assert lo.result() == -1
        assert hi.result() == 5

    def test_empty_sum_is_null_count_is_zero(self):
        assert Accumulator("SUM").result() is None
        assert Accumulator("AVG").result() is None
        assert Accumulator("MIN").result() is None
        assert Accumulator("COUNT").result() == 0

    def test_distinct(self):
        acc = Accumulator("COUNT", distinct=True)
        for v in (1, 1, 2, 2, 3):
            acc.add(v)
        assert acc.result() == 3

    def test_distinct_sum(self):
        acc = Accumulator("SUM", distinct=True)
        for v in (2, 2, 3):
            acc.add(v)
        assert acc.result() == 5

    def test_unknown_func_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            Accumulator("MEDIAN")


class TestCompiledAggregate:
    """An aggregate call bound to a schema: the row compiler evaluates its
    operand and an :class:`Accumulator` folds it, row by row (the row
    oracle), or its vector input folds a whole batch."""

    def test_count_star_counts_rows(self):
        rows = ((None,), (1,), (2,))
        inputs = compile_aggregate_input_vector(
            ast.Aggregate("COUNT", ast.Star()), {"x": 0}
        )(Batch.from_rows(rows))
        acc = Accumulator("COUNT")
        acc.add_many(inputs)
        assert acc.result() == 3  # COUNT(*) counts NULL rows too

    def test_sum_of_expression(self):
        call = parse_expression("SUM(a * 2)")
        operand = compile_expr(call.operand, {"a": 0})
        acc = Accumulator(call.func, call.distinct)
        for row in ((1,), (2,)):
            acc.add(operand(row))
        assert acc.result() == 6

    def test_non_count_star_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            compile_aggregate_input_vector(ast.Aggregate("SUM", ast.Star()), {})


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_property_avg_equals_sum_over_count(values):
    s, c, a = Accumulator("SUM"), Accumulator("COUNT"), Accumulator("AVG")
    for v in values:
        s.add(v)
        c.add(v)
        a.add(v)
    assert a.result() == pytest.approx(s.result() / c.result())


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
    st.integers(1, 5),
)
def test_property_merged_partials_equal_global(values, parts):
    """Partition-wise accumulation + ``merge_partial`` (the strategies'
    rule) equals one global pass; an empty partition's NULL is skipped."""
    for func in ("SUM", "COUNT", "MIN", "MAX"):
        whole = Accumulator(func)
        for v in values:
            whole.add(v)
        partials = [Accumulator(func) for _ in range(parts)]
        for i, v in enumerate(values):
            partials[i % parts].add(v)
        merged = functools.reduce(
            lambda a, b: merge_partial(func, a, b), (p.result() for p in partials)
        )
        assert merged == whole.result()
