"""Vectorized-vs-row-wise equivalence tests.

The vectorized compiler in :mod:`repro.expr.vector` and the batch
operators built on it must be observationally identical to the row
compiler (:mod:`repro.expr.compiler`, the semantics oracle) applied one
row at a time: same values, same value *types*, same NULL handling,
and modeled CPU that does not depend on batch boundaries.  These tests
pin that contract with randomized data (NULLs, non-ASCII strings, empty
batches, batch_size=1).
"""

from __future__ import annotations

import cProfile
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import BloomFilter
from repro.cloud.context import CloudContext
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import CatalogError, TypeMismatchError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally, materialize
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import group_by_batches
from repro.engine.operators.hashjoin import hash_join_batches
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches
from repro.engine.operators.sort import SortKey, sort_batches
from repro.engine.operators.topk import top_k_batches
from repro.expr import vector
from repro.expr.compiler import compile_expr, compile_predicate
from repro.expr.vector import (
    compile_aggregate_input_vector,
    compile_expr_vector,
    compile_predicate_vector,
)
from repro.queries.common import items
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression
from repro.storage.csvcodec import (
    chunk_rows,
    encode_table,
    iter_decode_column_batches,
)
from repro.storage.schema import TableSchema

from helpers import decode_rows

# Columns: a int, b int, f float, s str, d date-ish str.
SCHEMA = {"a": 0, "b": 1, "f": 2, "s": 3, "d": 4}

texts = st.one_of(
    st.none(), st.sampled_from(["", "a", "abc", "ü", "日本", "a%b", "A_c"])
)
dates = st.one_of(
    st.none(), st.sampled_from(["1995-01-01", "1996-06-15", "1997-12-31"])
)
rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.floats(-100, 100).map(lambda v: round(v, 3))),
        texts,
        dates,
    ),
    max_size=30,
)
#: NULL-free, one Python type per column: the typing whose kernels are bare
#: Python operators.  ``rows_strategy`` draws NULL in every column
#: independently, so almost none of its multi-row batches is clean.
clean_rows_strategy = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.integers(-5, 5),
        st.floats(-100, 100).map(lambda v: round(v, 3)),
        st.sampled_from(["", "a", "abc", "ü", "日本", "a%b", "A_c", "12"]),
        st.sampled_from(["1995-01-01", "1996-06-15", "1997-12-31"]),
    ),
    min_size=1, max_size=30,
)


def nearly_clean(rows):
    """``rows`` as is, then one step away in the guard's typing: a NULL in
    the last row, a ``bool`` and a ``str`` in an int column (opaque), a
    float in an int column (number), two columns of nothing but NULLs."""
    *head, last = rows
    yield rows
    yield head + [last[:3] + (None,) + last[4:]]
    yield head + [(True,) + last[1:]]
    yield [("7",) + rows[0][1:]] + rows[1:]
    yield head + [(last[0] + 0.5,) + last[1:]]
    yield [(None,) + row[1:3] + (None,) + row[4:] for row in rows]

#: One expression per inline form of the generator, plus the shapes that call
#: a row compiler closure (``/``, ``||``, function calls) and column-free ones.
EXPRESSIONS = [
    "a + b", "a - b", "a * b", "a % b", "a / b", "f * 2.5", "-a",
    "a = b", "a <> b", "a < b", "a <= 5", "5 <= a", "a > b", "a >= b",
    "f < 10.0", "s = 'abc'", "'abc' = s", "s < 'b'", "d >= '1996-01-01'",
    "s || '!'", "s || s",
    "a IN (1, 2, 3)", "a NOT IN (1, 2, 3)", "a IN (1, NULL)",
    "s IN ('a', 'abc')", "a IN (b, 3)",
    "a BETWEEN -2 AND 2", "a NOT BETWEEN 0 AND 10", "f BETWEEN a AND b",
    "s LIKE 'a%'", "s LIKE '_b%'", "s NOT LIKE '%c'", "s LIKE s",
    "s IS NULL", "s IS NOT NULL", "a IS NULL",
    "NOT a = 1", "a = 1 AND b = 1", "a = 1 OR b = 1",
    "a < 0 AND s IS NOT NULL", "a IS NULL OR f > 0.0",
    "CAST(a AS float)", "CAST(f AS int)", "CAST(a AS string)",
    "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END",
    "COALESCE(a, b, 0)", "UPPER(s)",
    "1 + 2 * 3", "NULL", "'const'", "a < NULL", "NULL AND a = 1",
    # SUBSTRING kernel: start <= 0 and past the end (a in -50..50),
    # negative lengths (b in -5..5), NULLs in every operand, float
    # positions, the 2- and 3-argument forms, and the Bloom shape (a
    # constant text and length, a computed position).
    "SUBSTRING(s, 1, 2)", "SUBSTRING(s, a, b)", "SUBSTRING(s, a)", "SUBSTR(s, 2)",
    "SUBSTRING(s, f)", "SUBSTRING(s, b, f)", "SUBSTRING(d, 1, 4)",
    "SUBSTRING('0110100110', a, 1)", "SUBSTRING('0110100110', f, 1)",
    "SUBSTRING('0110100110', a, 0)", "SUBSTRING('0110100110', a, -1)",
    "SUBSTRING('0110100110', a, NULL)", "SUBSTRING(NULL, a, 1)",
    "SUBSTRING(s, NULL, 1)", "SUBSTRING(12345, b, 2)", "SUBSTRING('abc', 2, 1)",
    "SUBSTRING('0110100110', ((7 * CAST(a AS INT) + 3) % 11) % 10 + 1, 1) = '1'",
    # Arithmetic / CAST against one constant operand, either side, and
    # constants the bottom-up fold must find inside larger trees.
    "3 * a", "a * 3", "7 % b", "b % 7", "a - 1.5", "1.5 - a", "a + NULL",
    "NULL * a", "a + 'x'", "a + (1 + 2)", "s = UPPER('abc')",
    "CAST(a AS int)", "CAST(f AS float)", "CAST(s AS string)", "CAST(s AS int)",
    "a + CASE WHEN 1 = 1 THEN 2 END", "NOT (1 = 1)", "1 BETWEEN 0 AND 2",
    "'x' LIKE 'x%'", "2 IN (1, 2)", "NULL IS NULL", "-(1 + 2) + a",
]


def assert_same_outcome(vector_side, row_side):
    """Same values and value types, or the same exception class."""
    try:
        want = row_side()
    except Exception as exc:  # e.g. % by zero — both paths must agree
        with pytest.raises(type(exc)):
            vector_side()
        return
    assert_same_values(vector_side(), want)


def row_compiler_calls(fn) -> int:
    """Calls into ``expr/compiler.py`` while ``fn()`` runs."""
    profile = cProfile.Profile(builtins=False)
    profile.runcall(fn)
    return sum(
        calls
        for (filename, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if filename.endswith("expr/compiler.py")
    )


def assert_same_values(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w or (g is None and w is None), f"{g!r} != {w!r}"
        assert type(g) is type(w), f"{type(g)} != {type(w)} for {g!r}"


class TestExpressionKernels:
    @pytest.mark.parametrize("sql", EXPRESSIONS)
    @settings(max_examples=30, deadline=None)
    @given(rows=rows_strategy)
    def test_vector_matches_row_compiler(self, sql, rows):
        expr = parse_expression(sql)
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        batch = Batch.from_rows(rows, num_columns=5)
        assert_same_outcome(lambda: vec_fn(batch), lambda: [row_fn(row) for row in rows])

    @pytest.mark.parametrize("sql", EXPRESSIONS)
    @settings(max_examples=12, deadline=None)
    @given(rows=clean_rows_strategy)
    def test_clean_and_nearly_clean_batches_match_row_compiler(self, sql, rows):
        expr = parse_expression(sql)
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        for variant in nearly_clean(rows):
            assert_same_outcome(
                lambda: vec_fn(Batch.from_rows(variant)),
                lambda: [row_fn(row) for row in variant],
            )

    @pytest.mark.parametrize("sql", EXPRESSIONS)
    def test_empty_batch_yields_empty(self, sql):
        vec_fn = compile_expr_vector(parse_expression(sql), SCHEMA)
        assert vec_fn(Batch.from_rows([], num_columns=5)) == []

    @pytest.mark.parametrize(
        "sql", [
            "a = 1", "s LIKE 'a%'", "a IN (1, NULL)", "a = 1 OR b = 1",
            "SUBSTRING('0110100110', a, 1) = '1'"
            " AND SUBSTRING('1011001110', (3 * b + 7) % 10 + 1, 1) = '1'",
            # Truthiness of non-boolean operands: the row compiler applies
            # ``not v`` / ``bool(a) or bool(b)``, not ``v is False`` / ``is True``.
            "NOT a", "NOT s", "a OR b", "NOT a OR b = 1", "NOT CAST(s AS STRING)",
        ]
    )
    @settings(max_examples=20, deadline=None)
    @given(rows=rows_strategy, clean_rows=clean_rows_strategy)
    def test_predicate_mask_matches_row_predicate(self, sql, rows, clean_rows):
        expr = parse_expression(sql)
        pred = compile_predicate(expr, SCHEMA)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        mask = mask_fn(Batch.from_rows(rows, num_columns=5))
        assert mask == [pred(row) for row in rows]
        assert all(v is True or v is False for v in mask)
        for variant in nearly_clean(clean_rows):
            assert_same_outcome(
                lambda: mask_fn(Batch.from_rows(variant)),
                lambda: [pred(row) for row in variant],
            )

    def test_mask_shortcuts_apply_truthiness_to_non_booleans(self):
        rows = [(0, 1, 0.0, "", None), (2, 0, 0.0, "", None),
                (None, 3, 0.0, "", None), (0, 0, 0.0, "", None)]
        batch = Batch.from_rows(rows)
        for sql, want in [("NOT a", [True, False, False, True]),
                          ("a OR b", [True, True, False, False])]:
            expr = parse_expression(sql)
            assert [compile_predicate(expr, SCHEMA)(row) for row in rows] == want
            assert compile_predicate_vector(expr, SCHEMA)(batch) == want

    @settings(max_examples=20, deadline=None)
    @given(rows=rows_strategy)
    def test_batch_size_one(self, rows):
        expr = parse_expression("a + b * 2")
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        for row in rows:
            assert_same_values(
                vec_fn(Batch.from_rows([row])), [row_fn(row)]
            )

    def test_mixed_type_batch_falls_back_row_wise(self):
        # Row-wise OR short-circuits past the bad value; the vectorized
        # kernel sweeps every row, hits the type error, and must fall
        # back to row-wise evaluation to match.
        rows = [(1, 1, 1.0, "x", None), ("oops", 2, 2.0, "y", None)]
        expr = parse_expression("b = 2 OR a = 1")
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        assert vec_fn(Batch.from_rows(rows)) == [row_fn(r) for r in rows]


#: Conjuncts for the survivor-evaluation matrix: NULLs possible in every
#: operand, a CAST that raises on most strings, a CAST shared between
#: conjuncts, non-boolean and constant conjuncts, a row-fallback shape.
CONJUNCTS = [
    "a > 0", "b <> 0", "f < 50.0", "s IS NOT NULL", "s LIKE 'a%'",
    "a IN (1, 2, NULL)", "a BETWEEN -20 AND 20", "d >= '1996-01-01'",
    "NOT b = 1", "a = 1 OR b = 1", "a < NULL", "b", "1 = 1", "1 = 0",
    "CAST(s AS INT) > 0", "CAST(a AS INT) % 2 = 0", "CAST(a AS INT) < 10",
    "CASE WHEN a > 0 THEN b > 0 END",
]


def _and_chain(conjuncts, right_nested):
    conjuncts = [f"({c})" for c in conjuncts]
    if not right_nested:
        return " AND ".join(conjuncts)
    sql = conjuncts[-1]
    for conjunct in reversed(conjuncts[:-1]):
        sql = f"{conjunct} AND ({sql})"
    return sql


class TestSurvivorConjunctions:
    """An AND chain evaluates later conjuncts on surviving rows only; the
    row compiler (which short-circuits on FALSE, never on NULL) decides
    both the mask and whether evaluation raises."""

    @settings(max_examples=300, deadline=None)
    @given(
        conjuncts=st.lists(st.sampled_from(CONJUNCTS), min_size=2, max_size=8),
        right_nested=st.booleans(),
        rows=rows_strategy,
    )
    def test_mask_and_errors_match_row_predicate(self, conjuncts, right_nested, rows):
        expr = parse_expression(_and_chain(conjuncts, right_nested))
        pred = compile_predicate(expr, SCHEMA)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        batch = Batch.from_rows(rows, num_columns=5)
        try:
            want = [pred(row) for row in rows]
        except Exception as exc:
            with pytest.raises(type(exc)):
                mask_fn(batch)
            return
        assert mask_fn(batch) == want
        for row in rows:  # size-1 batches
            assert mask_fn(Batch.from_rows([row])) == [pred(row)]

    @settings(max_examples=150, deadline=None)
    @given(
        conjuncts=st.lists(st.sampled_from(CONJUNCTS), min_size=2, max_size=8),
        right_nested=st.booleans(),
        rows=clean_rows_strategy,
    )
    def test_clean_and_nearly_clean_batches(self, conjuncts, right_nested, rows):
        expr = parse_expression(_and_chain(conjuncts, right_nested))
        pred = compile_predicate(expr, SCHEMA)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        for variant in nearly_clean(rows):
            assert_same_outcome(
                lambda: mask_fn(Batch.from_rows(variant)),
                lambda: [pred(row) for row in variant],
            )

    @pytest.mark.parametrize(
        "sql", ["a > 0 AND CAST(s AS INT) > 0", "a > 0 AND b = 1 AND CAST(s AS INT) > 0"]
    )
    def test_null_left_still_evaluates_right_false_left_does_not(self, sql):
        expr = parse_expression(sql)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        false_left = [(-1, 1, 1.0, "x", None), (0, 1, 1.0, "y", None)]
        assert mask_fn(Batch.from_rows(false_left)) == [False, False]
        null_left = false_left + [(None, 1, 1.0, "x", None)]
        with pytest.raises(TypeMismatchError):
            compile_predicate(expr, SCHEMA)(null_left[-1])
        with pytest.raises(TypeMismatchError):
            mask_fn(Batch.from_rows(null_left))

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([], []),
            ([(4, 2, 0.0, "7", None)], [True]),
            ([(4, 2, 0.0, "7", None)] * 3, [True] * 3),  # all survive
            ([(3, 2, 0.0, "7", None)] * 3, [False] * 3),  # none survives
            ([(4, 2, 0.0, "7", None), (3, 2, 0.0, "x", None), (4, None, 0.0, "7", None),
              (None, 2, 0.0, "7", None), (4, 2, 0.0, "-7", None)],
             [True, False, False, False, False]),
        ],
    )
    def test_shared_cast_chain(self, rows, want):
        expr = parse_expression(
            "CAST(a AS INT) % 2 = 0 AND b > 0 AND CAST(a AS INT) < 10 AND CAST(s AS INT) > 0"
        )
        mask = compile_predicate_vector(expr, SCHEMA)(Batch.from_rows(rows, num_columns=5))
        assert mask == want == [compile_predicate(expr, SCHEMA)(row) for row in rows]


class TestFusedTierIsReached:
    """The paper's hot expressions never enter the row compiler, on clean
    batches and on NULL-bearing ones alike: the NULL tests are inline."""

    CLEAN = [
        (i * 7 % 40, i % 5, (i % 10) / 100, ["x", "abc"][i % 2], f"199{i % 4 + 2}-03-01")
        for i in range(60)
    ]
    BLOOM = BloomFilter.build(range(0, 40, 3), 0.01, seed=5)
    Q6_WHERE = (
        "d >= '1994-01-01' AND d < '1995-01-01'"
        " AND f BETWEEN 0.05 AND 0.07 AND a < 24"
    )

    def check(self, vec_fn, row_fn):
        batch = Batch.from_rows(self.CLEAN)
        assert row_compiler_calls(lambda: vec_fn(batch)) == 0
        assert_same_values(vec_fn(batch), [row_fn(row) for row in self.CLEAN])
        with_null = self.CLEAN[:-1] + [(None, None, None, None, None)]
        assert row_compiler_calls(lambda: vec_fn(Batch.from_rows(with_null))) == 0
        assert_same_values(
            vec_fn(Batch.from_rows(with_null)), [row_fn(row) for row in with_null]
        )

    def test_bloom_predicate(self):
        assert self.BLOOM.num_hashes == 7
        expr = parse_expression(self.BLOOM.to_sql_predicate("a"))
        mask = compile_predicate_vector(expr, SCHEMA)(Batch.from_rows(self.CLEAN))
        assert {row[0] for row in self.CLEAN if row[0] % 3 == 0} <= {
            row[0] for row, keep in zip(self.CLEAN, mask) if keep
        }
        self.check(compile_predicate_vector(expr, SCHEMA), compile_predicate(expr, SCHEMA))

    def test_bloom_predicate_above_the_crossover_takes_the_array_path(self, monkeypatch):
        # Past PROBE_RUN_MIN_ROWS the run is one int64 computation, NULL keys
        # included: no row compiler, and no comprehension over the run either.
        expr = parse_expression(self.BLOOM.to_sql_predicate("a"))
        mask_fn, row_fn = compile_predicate_vector(expr, SCHEMA), compile_predicate(expr, SCHEMA)
        rows = self.CLEAN * 4
        assert len(rows) >= 2 * vector.PROBE_RUN_MIN_ROWS
        taken = []
        int64 = vector._ProbeChain.int64
        monkeypatch.setattr(vector._ProbeChain, "int64",
                            lambda chain, keys: taken.append(int64(chain, keys)) or taken[-1])
        for batch_rows in (rows, rows[:-1] + [(None,) * 5], [
            (None, *row[1:]) if i % 10 == 3 else row for i, row in enumerate(rows)
        ]):
            assert row_compiler_calls(lambda: mask_fn(Batch.from_rows(batch_rows))) == 0
            assert mask_fn(Batch.from_rows(batch_rows)) == [row_fn(row) for row in batch_rows]
        assert len(taken) == 6 and None not in taken

    def test_q6_where(self):
        expr = parse_expression(self.Q6_WHERE)
        assert any(compile_predicate(expr, SCHEMA)(row) for row in self.CLEAN)
        self.check(compile_predicate_vector(expr, SCHEMA), compile_predicate(expr, SCHEMA))

    @pytest.mark.parametrize(
        "sql", ["SUM(CASE WHEN b = 3 THEN f ELSE 0 END)", "MIN(CASE WHEN b = 3 THEN f END)",
                "SUM(CASE WHEN s = 'abc' THEN a ELSE 0 END)", "SUM(f * (1 - f) * (1 + f))"]
    )
    def test_aggregate_input(self, sql):
        agg = parse_expression(sql)
        self.check(
            compile_aggregate_input_vector(agg, SCHEMA), compile_expr(agg.operand, SCHEMA)
        )

    def test_kernels_are_shared_per_column_types_across_threads(self):
        # One binding serves concurrent requests: a racing first batch may
        # generate twice, but every thread gets complete, equal results.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        expr = parse_expression(self.Q6_WHERE)
        pred = compile_predicate(expr, SCHEMA)
        want = [pred(row) for row in self.CLEAN]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                mask_fn = compile_predicate_vector(expr, SCHEMA)
                with ThreadPoolExecutor(8) as pool:
                    futures = [
                        pool.submit(mask_fn, Batch.from_rows(self.CLEAN)) for _ in range(16)
                    ]
                    assert all(f.result(timeout=30) == want for f in futures)
        finally:
            sys.setswitchinterval(interval)


def fused_kernel_texts() -> int:
    """Distinct kernel texts generated for this module's expression matrix
    (``EXPRESSIONS`` as values; ``CONJUNCTS``, Q6's WHERE and a 7-hash Bloom
    chain as masks) over every ``nearly_clean`` typing of one batch.  CI
    prints it in the step summary."""
    hot = TestFusedTierIsReached
    fns = [compile_expr_vector(parse_expression(sql), SCHEMA) for sql in EXPRESSIONS]
    fns += [
        compile_predicate_vector(parse_expression(sql), SCHEMA)
        for sql in [*CONJUNCTS, hot.Q6_WHERE, hot.BLOOM.to_sql_predicate("a")]
    ]
    vector._kernel_factory.cache_clear()
    for variant in nearly_clean(hot.CLEAN):
        for fn in fns:
            try:
                fn(Batch.from_rows(variant))
            except (TypeMismatchError, ArithmeticError):
                pass  # ``a + 'x'``, ``a % b`` at zero: the row compiler's verdict
    info = vector._kernel_factory.cache_info()
    assert info.currsize == info.misses, "texts were evicted while counting"
    return info.misses


def test_kernel_texts_stay_inside_the_kernel_cache():
    """One kernel per (expression shape, column typing): the typing lattice
    must not outgrow ``_kernel_factory``'s LRU, or every re-prepared
    statement would recompile its text."""
    texts = fused_kernel_texts()
    assert len(EXPRESSIONS) < texts < vector._kernel_factory.cache_parameters()["maxsize"]


@pytest.mark.parametrize(
    "shape, levels",  # AST levels each round of nesting adds
    [("({} + b)", 1), ("(-{} % (b + 7))", 2), ("NOT ({} AND b > 0)", 2),
     ("CASE WHEN {} > b THEN a ELSE {} END", 2)],
)
def test_deep_nesting_stays_inside_the_parser_limit_then_runs_row_wise(shape, levels):
    # Up to the depth guard a NULL-bearing typing (three parentheses a level)
    # still compiles as one Python expression; past it the row compiler runs.
    rows = [(3, 2, 1.5, "x", None), (None, 4, None, None, None), (7, None, 2.5, "y", None)]
    for depth in (59 // levels, 70):
        sql = "a"
        for _ in range(depth):
            sql = shape.replace("{}", sql, 1).replace("{}", "a")
        expr = parse_expression(sql)
        row_fn, vec_fn = compile_expr(expr, SCHEMA), compile_expr_vector(expr, SCHEMA)
        for batch in (rows[:1], rows):
            assert_same_outcome(
                lambda: vec_fn(Batch.from_rows(batch)), lambda: [row_fn(row) for row in batch]
            )
        calls = row_compiler_calls(lambda: vec_fn(Batch.from_rows(rows[:1])))
        assert (calls > 0) == (depth == 70), (depth, calls)


NAMES = ["a", "b", "f", "s", "d"]
DATA = [
    (i % 7, i % 3, float(i) / 4 if i % 5 else None,
     ["x", "yy", None, "üz"][i % 4], f"199{i % 10}-01-01")
    for i in range(200)
]


def columnar_batches(rows, batch_size=32):
    return [Batch.from_rows(chunk) for chunk in chunk_rows(rows, batch_size)]


NAME_INDEX = {name: i for i, name in enumerate(NAMES)}


@pytest.mark.parametrize("batch_size", [1, 32, len(DATA)])
class TestOperatorParity:
    """Batch operators vs the row compiler applied one row at a time: same
    rows, and CPU charges that ignore where the batch boundaries fall."""

    def test_filter(self, batch_size):
        pred = parse_expression("a < 4 AND s IS NOT NULL")
        keep = compile_predicate(pred, NAME_INDEX)
        tally = CpuTally()
        got = materialize(
            filter_batches(columnar_batches(DATA, batch_size), NAMES, pred, tally)
        )
        assert got == [row for row in DATA if keep(row)]
        assert tally.seconds == pytest.approx(
            len(DATA) * SERVER_CPU_PER_ROW["filter"], rel=1e-12
        )

    def test_project(self, batch_size):
        sel = items("a + b AS ab", "UPPER(s) AS u", "f")
        fns = [compile_expr(item.expr, NAME_INDEX) for item in sel]
        tally = CpuTally()
        got = materialize(
            project_batches(columnar_batches(DATA, batch_size), NAMES, sel, tally)
        )
        assert got == [tuple(fn(row) for fn in fns) for row in DATA]
        assert tally.seconds == pytest.approx(
            len(DATA) * 3 * SERVER_CPU_PER_ROW["filter"], rel=1e-12
        )

    def test_group_by(self, batch_size):
        aggs = items(
            "COUNT(*) AS n", "SUM(f) AS sf", "MIN(s) AS mn", "AVG(b) AS av"
        )
        got = group_by_batches(
            columnar_batches(DATA, batch_size), NAMES, [parse_expression("a")], aggs
        )
        # First-appearance group order; sums folded row by row, so the
        # floats are bit-identical whatever the batch boundaries.
        want: dict = {}
        for a, b, f, s, _ in DATA:
            g = want.setdefault(a, {"n": 0, "sf": None, "mn": None, "sb": 0, "nb": 0})
            g["n"] += 1
            if f is not None:
                g["sf"] = f if g["sf"] is None else g["sf"] + f
            if s is not None:
                g["mn"] = s if g["mn"] is None else min(g["mn"], s)
            g["sb"] += b
            g["nb"] += 1
        assert got.rows == [
            (a, g["n"], g["sf"], g["mn"], g["sb"] / g["nb"]) for a, g in want.items()
        ]
        assert got.column_names == ["a", "n", "sf", "mn", "av"]
        assert got.cpu_seconds == len(DATA) * 4 * SERVER_CPU_PER_ROW["aggregate"]

    def test_global_aggregate(self, batch_size):
        aggs = items("COUNT(*) AS n", "SUM(a) AS sa")
        got = group_by_batches(columnar_batches(DATA, batch_size), NAMES, [], aggs)
        assert got.rows == [(len(DATA), sum(row[0] for row in DATA))]
        assert got.cpu_seconds == len(DATA) * 2 * SERVER_CPU_PER_ROW["aggregate"]
        # ... and one row even over no input at all.
        assert group_by_batches([], NAMES, [], aggs).rows == [(0, None)]

    def test_sort_and_top_k_ties_keep_arrival_order(self, batch_size):
        order = [
            ast.OrderItem(expr=ast.Column("b")),
            ast.OrderItem(expr=ast.Column("a"), descending=True),
        ]
        want = sorted(DATA, key=lambda r: (SortKey(r[1], False), SortKey(r[0], True)))
        batches = columnar_batches(DATA, batch_size)
        assert sort_batches(batches, NAMES, order).rows == want
        got = top_k_batches(batches, NAMES, order, 10)
        assert got.rows == want[:10]
        assert got.cpu_seconds > 0

    def test_hash_join(self, batch_size):
        build = [(i, f"t{i}") for i in range(7)]
        names, joined = hash_join_batches(
            build, ["k", "tag"], columnar_batches(DATA, batch_size), NAMES, "k", "a"
        )
        assert materialize(joined) == [
            b + row for row in DATA for b in build if b[0] == row[0]
        ]
        assert names == ["k", "tag", *NAMES]


class TestLimitView:
    def test_limit_slices_mid_batch_as_view(self):
        batches = columnar_batches(DATA, 32)
        out = list(limit_batches(iter(batches), 40))
        assert sum(len(b) for b in out) == 40
        assert out[0] is batches[0]  # whole first batch passes untouched
        # The mid-batch cut is a zero-copy slice view of batch #2.
        assert isinstance(out[1], Batch)
        assert out[1].column(0)[0] is batches[1].column(0)[0]


class TestColumnarDecode:
    SCHEMA = TableSchema.of("k:int", "v:float", "s:str", "d:date")
    ROWS = [(1, 1.5, "x", "1995-01-01"), (2, None, None, None), (None, -2.0, "üz", "1996-02-03")]

    def test_matches_row_wise_decode(self):
        data, _ = encode_table(self.ROWS)
        want = decode_rows(data, self.SCHEMA)
        assert want == self.ROWS
        for size in (1, 2, 100):
            got = [
                list(b)
                for b in iter_decode_column_batches(
                    data, self.SCHEMA, batch_size=size, has_header=False
                )
            ]
            assert got == list(chunk_rows(want, size))

    def test_bad_field_count_raises_catalog_error(self):
        data, _ = encode_table(self.ROWS)
        lines = data.decode("utf-8").splitlines()
        lines[1] = "1,2.0"  # drop two fields
        bad = ("\n".join(lines) + "\n").encode("utf-8")
        with pytest.raises(CatalogError):
            list(
                iter_decode_column_batches(bad, self.SCHEMA, has_header=False)
            )

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_decode_column_batches(b"", self.SCHEMA, batch_size=0))


class TestKnobValidation:
    def test_context_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            CloudContext(batch_size=0)

    def test_pushdowndb_is_serial(self):
        from repro.planner.database import PushdownDB

        for workers in (None, 1):  # bench/workloads.py passes 1
            assert not hasattr(PushdownDB(workers=workers).ctx, "workers")
        for workers in (0, 2, 4):
            with pytest.raises(ValueError, match="serial"):
                PushdownDB(workers=workers)

    def test_cli_rejects_non_positive_knobs(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        good = parser.parse_args(["query", "SELECT 1", "--batch-size", "64"])
        assert good.batch_size == 64
        with pytest.raises(SystemExit):
            parser.parse_args(["query", "SELECT 1", "--batch-size", "-5"])
        assert "positive integer" in capsys.readouterr().err


class TestOperatorTimes:
    def test_execution_details_include_operator_times(self):
        from repro.planner.database import PushdownDB
        from repro.planner.report import render_execution_report

        db = PushdownDB()
        db.load_table(
            "t", [(i, i % 5, float(i)) for i in range(100)],
            TableSchema.of("t_id:int", "t_g:int", "t_v:float"), partitions=2,
        )
        execution = db.execute(
            "SELECT t_g, SUM(t_v) AS sv FROM t WHERE t_id < 80"
            " GROUP BY t_g ORDER BY t_g"
        )
        times = execution.report.nodes
        root = times[0]
        assert root.seconds is not None and root.seconds >= 0.0
        for record in times:
            if record.seconds is not None:
                assert record.self_seconds <= record.seconds + 1e-9
        # The report gains time and throughput columns...
        report = render_execution_report(execution)
        assert "time" in report and "rows/s" in report
        # ...and explain() renders them as a table, not as a raw dict.
        assert "operator_times" not in execution.explain()
        assert "self_seconds" not in execution.explain()
