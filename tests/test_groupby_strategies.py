"""Tests for the four group-by strategies (paper Section VI)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import approx_rows
from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, load_table
from repro.sqlparser.parser import parse_expression
from repro.storage.schema import TableSchema
from repro.strategies import groupby as gb
from repro.strategies.extensions import partial_pushdown_group_by
from repro.strategies.groupby import (
    AggSpec,
    GroupByQuery,
    filtered_group_by,
    hybrid_group_by,
    s3_side_group_by,
    server_side_group_by,
)
from repro.workloads.synthetic import (
    groupby_schema,
    skewed_groupby_table,
    uniform_groupby_table,
)

NUM_ROWS = 4_000


@pytest.fixture(scope="module")
def env():
    ctx, catalog = CloudContext(), Catalog()
    load_table(
        ctx, catalog, "uniform", uniform_groupby_table(NUM_ROWS, seed=5),
        groupby_schema(), bucket="gb", partitions=4,
    )
    load_table(
        ctx, catalog, "skewed", skewed_groupby_table(NUM_ROWS, theta=1.3, seed=5),
        groupby_schema(), bucket="gb", partitions=4,
    )
    return ctx, catalog


def base_query(table="uniform", group="g2", funcs=("sum",)):
    return GroupByQuery(
        table=table,
        group_columns=[group],
        aggregates=[AggSpec(f, "v0") for f in funcs],
    )


ALL = [server_side_group_by, filtered_group_by, s3_side_group_by, hybrid_group_by]


class TestAgreement:
    @pytest.mark.parametrize("group", ["g0", "g2", "g4"])
    def test_all_strategies_agree(self, env, group):
        ctx, catalog = env
        query = base_query(group=group)
        reference = None
        for fn in ALL:
            rows = approx_rows(fn(ctx, catalog, query).rows)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, fn.__name__

    @pytest.mark.parametrize("funcs", [
        ("sum", "count"), ("min", "max"), ("avg",), ("sum", "avg", "count"),
    ])
    def test_aggregate_functions(self, env, funcs):
        ctx, catalog = env
        query = base_query(funcs=funcs)
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        for fn in (filtered_group_by, s3_side_group_by, hybrid_group_by):
            assert approx_rows(fn(ctx, catalog, query).rows) == reference, fn.__name__

    def test_skewed_data_agreement(self, env):
        ctx, catalog = env
        query = base_query(table="skewed", group="g0", funcs=("sum", "count"))
        reference = approx_rows(filtered_group_by(ctx, catalog, query).rows)
        assert approx_rows(hybrid_group_by(ctx, catalog, query).rows) == reference

    def test_predicate_respected(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="uniform",
            group_columns=["g1"],
            aggregates=[AggSpec("count", "1", "n")],
            predicate=parse_expression("v0 < 500"),
        )
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        for fn in (filtered_group_by, s3_side_group_by):
            assert approx_rows(fn(ctx, catalog, query).rows) == reference

    def test_multi_column_groups(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="uniform",
            group_columns=["g0", "g1"],
            aggregates=[AggSpec("sum", "v1")],
        )
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        assert approx_rows(s3_side_group_by(ctx, catalog, query).rows) == reference

    def test_expression_aggregate(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="uniform",
            group_columns=["g0"],
            aggregates=[AggSpec("sum", "v0 * (1 - v1 / 1000)", "weird")],
        )
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows, places=2)
        assert approx_rows(
            s3_side_group_by(ctx, catalog, query).rows, places=2
        ) == reference


class TestS3SideMechanics:
    def test_two_phases(self, env):
        ctx, catalog = env
        execution = s3_side_group_by(ctx, catalog, base_query())
        assert [p.name for p in execution.phases] == ["collect-groups", "s3-aggregate"]

    def test_chunking_under_tiny_budget(self, env, monkeypatch):
        """Even with a tiny SQL budget, chunked pushdown stays correct."""
        ctx, catalog = env
        monkeypatch.setattr(gb, "_SQL_BUDGET_BYTES", 600)
        query = base_query(group="g4", funcs=("sum", "count"))
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        chunked = approx_rows(s3_side_group_by(ctx, catalog, query).rows)
        assert chunked == reference

    def test_returned_bytes_tiny(self, env):
        ctx, catalog = env
        table = catalog.get("uniform")
        filtered = filtered_group_by(ctx, catalog, base_query())
        pushed = s3_side_group_by(ctx, catalog, base_query())
        assert pushed.phases[1].select_returned_bytes < (
            filtered.bytes_returned / 10
        )
        assert pushed.bytes_scanned >= 2 * table.total_bytes  # two scans


class TestHybridMechanics:
    def test_single_group_column_required(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="uniform", group_columns=["g0", "g1"],
            aggregates=[AggSpec("sum", "v0")],
        )
        with pytest.raises(PlanError):
            hybrid_group_by(ctx, catalog, query)

    def test_split_details_reported(self, env):
        ctx, catalog = env
        execution = hybrid_group_by(
            ctx, catalog, base_query(table="skewed", group="g0"), s3_groups=6
        )
        assert execution.report.extras["large_groups"] == 6
        assert execution.report.extras["s3_side_seconds"] > 0
        assert execution.report.extras["server_side_seconds"] > 0

    def test_more_pushed_groups_fewer_tail_rows(self, env):
        ctx, catalog = env
        query = base_query(table="skewed", group="g0")
        small = hybrid_group_by(ctx, catalog, query, s3_groups=2)
        large = hybrid_group_by(ctx, catalog, query, s3_groups=10)
        assert large.report.extras["tail_rows"] < small.report.extras["tail_rows"]

    def test_sample_fraction_parameter(self, env):
        ctx, catalog = env
        query = base_query(table="skewed", group="g0")
        out = hybrid_group_by(ctx, catalog, query, sample_fraction=0.10)
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        assert approx_rows(out.rows) == reference

    def test_pushed_groups_clamped_to_expression_limit(self, env):
        """A NOT IN tail predicate that cannot fit the limit must shed
        pushed groups (into the local tail) instead of failing."""
        ctx, catalog = env
        query = base_query(table="skewed", group="g0")
        unclamped = hybrid_group_by(ctx, catalog, query, s3_groups=10)
        assert unclamped.report.extras["large_groups"] == 10
        clamped = hybrid_group_by(
            ctx, catalog, query, s3_groups=10, expression_limit_bytes=70
        )
        assert 0 < clamped.report.extras["large_groups"] < 10
        assert clamped.report.extras["tail_rows"] > unclamped.report.extras["tail_rows"]
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        assert approx_rows(clamped.rows) == reference

    def test_zero_fitting_groups_degenerates_to_full_tail(self, env):
        ctx, catalog = env
        query = base_query(table="skewed", group="g0")
        out = hybrid_group_by(
            ctx, catalog, query, s3_groups=10, expression_limit_bytes=45
        )
        assert out.report.extras["large_groups"] == 0
        reference = approx_rows(server_side_group_by(ctx, catalog, query).rows)
        assert approx_rows(out.rows) == reference


class TestAggSpec:
    def test_output_name_default_and_override(self):
        assert AggSpec("sum", "v0").output_name == "sum_v0"
        assert AggSpec("sum", "v0", "total").output_name == "total"

    def test_expression_columns_resolved(self):
        spec = AggSpec("sum", "a * (1 - b)")
        assert spec.referenced_columns() == {"a", "b"}

    def test_unknown_func_rejected(self):
        with pytest.raises(PlanError):
            AggSpec("median", "v0")

    def test_expression_parsed_once_per_spec(self):
        spec = AggSpec("sum", "a * (1 - b)")
        assert spec.parsed_expr is spec.parsed_expr
        assert spec.to_select_item().expr.operand is spec.parsed_expr


# ----------------------------------------------------------------------
# NULL group keys: every runner, against a plain-Python reference
# ----------------------------------------------------------------------

NULLABLE_SCHEMA = TableSchema.of("g:int", "v:int")
NULL_AGGS = [
    AggSpec("sum", "v", "s"), AggSpec("count", "1", "n"),
    AggSpec("min", "v", "lo"), AggSpec("avg", "v", "mean"),
]


def _reference_groups(rows, keep):
    groups: dict = {}
    for g, v in rows:
        if keep(v):
            groups.setdefault(g, []).append(v)
    return sorted(
        ((g, sum(vs), len(vs), min(vs), sum(vs) / len(vs)) for g, vs in groups.items()),
        key=repr,
    )


def _skewed_to(key, n=40):
    """``n`` rows, most of them under ``key``, the rest spread over 1..3."""
    return [(key if i % 4 else 1 + i % 3, i) for i in range(n)]


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from([None, None, 1, 2, 3]), st.integers(0, 99)),
        min_size=1, max_size=40,
    ),
    with_predicate=st.booleans(),
    s3_groups=st.integers(0, 4),
)
@example(rows=_skewed_to(None), with_predicate=False, s3_groups=2)   # populous, pushed
@example(rows=_skewed_to(None), with_predicate=True, s3_groups=1)    # NULL the only head
@example(rows=_skewed_to(2) + [(None, 7)], with_predicate=False, s3_groups=2)  # rare: tail
@example(rows=_skewed_to(2) + [(None, 7)], with_predicate=True, s3_groups=0)
@example(rows=_skewed_to(2), with_predicate=False, s3_groups=2)      # absent
def test_null_group_keys_survive_every_strategy(rows, with_predicate, s3_groups):
    ctx, catalog = CloudContext(), Catalog()
    load_table(ctx, catalog, "t", rows, NULLABLE_SCHEMA, bucket="nulls", partitions=3)
    query = GroupByQuery(
        table="t", group_columns=["g"], aggregates=NULL_AGGS,
        predicate=parse_expression("v < 60") if with_predicate else None,
    )
    expected = _reference_groups(rows, (lambda v: v < 60) if with_predicate else bool_true)
    assert sorted(server_side_group_by(ctx, catalog, query).rows, key=repr) == expected
    for fn in (filtered_group_by, s3_side_group_by, partial_pushdown_group_by):
        assert sorted(fn(ctx, catalog, query).rows, key=repr) == expected, fn.__name__
    hybrid = hybrid_group_by(
        ctx, catalog, query, sample_fraction=1.0, s3_groups=s3_groups
    )
    assert sorted(hybrid.rows, key=repr) == expected
    assert hybrid.report.extras["large_groups"] <= s3_groups


def bool_true(_value) -> bool:
    return True


# ----------------------------------------------------------------------
# NULL aggregate inputs: the pushed CASE columns keep SQL's meaning
# ----------------------------------------------------------------------

NULL_VALUE_AGGS = [
    AggSpec("count", "v", "n"), AggSpec("avg", "v", "mean"),
    AggSpec("min", "v", "lo"), AggSpec("sum", "v", "s"),
]


def test_null_values_aggregate_as_sql_does():
    """COUNT(v) and AVG(v) skip NULL inputs, and the SUM of a group whose
    inputs are all NULL is NULL — in the CASE-encoded columns of S3-side
    and hybrid group-by (every group pushed) as in sqlite3."""
    import sqlite3

    # g = 2 holds NULL inputs only; g = 1, 3 and the NULL group some.
    rows = [
        (None if i % 7 == 0 else i % 3 + 1, None if i % 3 == 1 or i % 4 == 0 else i)
        for i in range(30)
    ]
    ctx, catalog = CloudContext(), Catalog()
    load_table(ctx, catalog, "t", rows, NULLABLE_SCHEMA, bucket="nulls", partitions=3)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (g, v)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", rows)
    expected = approx_rows(oracle.execute(
        "SELECT g, COUNT(v), AVG(v), MIN(v), SUM(v) FROM t GROUP BY g"
    ).fetchall())
    oracle.close()
    assert (2, 0, None, None, None) in expected

    query = GroupByQuery(table="t", group_columns=["g"], aggregates=NULL_VALUE_AGGS)
    assert approx_rows(server_side_group_by(ctx, catalog, query).rows) == expected
    assert approx_rows(s3_side_group_by(ctx, catalog, query).rows) == expected
    hybrid = hybrid_group_by(ctx, catalog, query, sample_fraction=1.0, s3_groups=4)
    assert hybrid.report.extras["large_groups"] == 4  # every group pushed
    assert approx_rows(hybrid.rows) == expected
