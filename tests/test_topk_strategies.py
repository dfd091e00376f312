"""Tests for server-side and sampling top-K (paper Section VII)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.strategies.topk import (
    TopKQuery,
    optimal_sample_size,
    order_bytes_fraction,
    sampling_top_k,
    server_side_top_k,
)


def price_column(execution, catalog):
    idx = catalog.get("lineitem").schema.index_of("l_extendedprice")
    return [r[idx] for r in execution.rows]


class TestAgreement:
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_ascending(self, tpch_env, k):
        ctx, catalog = tpch_env
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=k)
        server = server_side_top_k(ctx, catalog, query)
        sampled = sampling_top_k(ctx, catalog, query)
        assert price_column(server, catalog) == price_column(sampled, catalog)
        assert len(server.rows) == k

    def test_descending(self, tpch_env):
        ctx, catalog = tpch_env
        query = TopKQuery(
            table="lineitem", order_column="l_extendedprice", k=25, descending=True
        )
        server = server_side_top_k(ctx, catalog, query)
        sampled = sampling_top_k(ctx, catalog, query)
        assert price_column(server, catalog) == price_column(sampled, catalog)

    def test_results_actually_sorted(self, tpch_env):
        ctx, catalog = tpch_env
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=50)
        prices = price_column(sampling_top_k(ctx, catalog, query), catalog)
        assert prices == sorted(prices)

    def test_explicit_sample_sizes(self, tpch_env):
        ctx, catalog = tpch_env
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=20)
        reference = price_column(server_side_top_k(ctx, catalog, query), catalog)
        n = catalog.get("lineitem").num_rows
        for sample_size in (25, n // 10, n):
            out = sampling_top_k(ctx, catalog, query, sample_size=sample_size)
            assert price_column(out, catalog) == reference, sample_size

    def test_k_larger_than_table_rejected(self, tpch_env):
        ctx, catalog = tpch_env
        n = catalog.get("lineitem").num_rows
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=n + 1)
        with pytest.raises(PlanError):
            sampling_top_k(ctx, catalog, query)


class TestMechanics:
    def test_phase2_returns_fewer_rows_than_table(self, tpch_env):
        ctx, catalog = tpch_env
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=10)
        out = sampling_top_k(ctx, catalog, query)
        assert out.report.extras["phase2_rows"] < catalog.get("lineitem").num_rows
        assert out.report.extras["phase2_rows"] >= 10

    def test_larger_sample_tighter_threshold(self, tpch_env):
        ctx, catalog = tpch_env
        n = catalog.get("lineitem").num_rows
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=10)
        small = sampling_top_k(ctx, catalog, query, sample_size=max(10, n // 100))
        large = sampling_top_k(ctx, catalog, query, sample_size=n // 2)
        assert large.report.extras["phase2_rows"] <= small.report.extras["phase2_rows"]

    def test_details_have_phase_split(self, tpch_env):
        ctx, catalog = tpch_env
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=10)
        out = sampling_top_k(ctx, catalog, query)
        assert out.report.extras["sample_seconds"] > 0
        assert out.report.extras["scan_seconds"] > 0
        assert out.runtime_seconds == pytest.approx(
            out.report.extras["sample_seconds"] + out.report.extras["scan_seconds"]
        )


class TestSampleSizeModel:
    def test_formula(self):
        # S* = sqrt(K*N/alpha): K=100, N=6e7, alpha=0.1 -> ~2.45e5
        # (the paper quotes 2.4e5 for these values in Section VII-C1).
        s = optimal_sample_size(100, 60_000_000, 0.1)
        assert s == pytest.approx(math.sqrt(100 * 60_000_000 / 0.1), rel=0.05)

    def test_clamped_to_table(self):
        assert optimal_sample_size(10, 100, 0.5) == 100

    def test_lower_clamp_10k(self):
        assert optimal_sample_size(5, 10**9, 1.0) >= 50

    def test_invalid_inputs(self):
        with pytest.raises(PlanError):
            optimal_sample_size(0, 100, 0.5)

    def test_degenerate_inputs_clamp(self):
        # k > n_rows sizes for the whole table rather than raising or
        # overshooting; alpha outside (0, 1] clamps into range; an empty
        # table yields an empty sample.
        assert optimal_sample_size(500, 100, 0.5) == 100
        assert optimal_sample_size(10, 100, 0.0) == 100
        assert optimal_sample_size(10, 100, -3.0) == 100
        assert optimal_sample_size(10, 10**6, 5.0) == optimal_sample_size(
            10, 10**6, 1.0
        )
        assert optimal_sample_size(10, 0, 0.5) == 0

    def test_never_exceeds_table(self):
        for k, n, alpha in [(1, 1, 1.0), (7, 3, 1e-12), (10**6, 50, 0.01)]:
            assert 0 <= optimal_sample_size(k, n, alpha) <= n

    def test_alpha_estimate(self, tpch_env):
        _, catalog = tpch_env
        table = catalog.get("lineitem")
        alpha = order_bytes_fraction(table, "l_extendedprice")
        assert alpha == pytest.approx(1.0 / 16)

    def test_smaller_alpha_bigger_sample(self):
        assert optimal_sample_size(100, 10**6, 0.05) > optimal_sample_size(
            100, 10**6, 0.5
        )


def _tiny_table(rows, schema_spec=("pos:int", "val:int"), partitions=3):
    from repro.cloud.context import CloudContext
    from repro.engine.catalog import Catalog, load_table
    from repro.storage.schema import TableSchema

    ctx, catalog = CloudContext(), Catalog()
    load_table(
        ctx, catalog, "tiny", rows, TableSchema.of(*schema_spec),
        partitions=partitions,
    )
    return ctx, catalog


class TestTiesAndNulls:
    """Duplicates at the K-th order statistic and NULL order keys.

    The pushed phase-2 predicate must be inclusive (``<=`` / ``>=``) so
    threshold ties survive, and ascending order must keep NULL keys
    (they sort first locally).
    """

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_duplicated_keys_agree_with_server_side(self, descending, k):
        # Heavy duplication: every value appears ~5 times, so the K-th
        # order statistic is almost always tied.
        values = [i % 6 for i in range(30)]
        rows = [(i, v) for i, v in enumerate(values)]
        ctx, catalog = _tiny_table(rows)
        query = TopKQuery(table="tiny", order_column="val", k=k, descending=descending)
        server = server_side_top_k(ctx, catalog, query)
        sampled = sampling_top_k(ctx, catalog, query, sample_size=10)
        assert [r[1] for r in server.rows] == [r[1] for r in sampled.rows]
        assert len(sampled.rows) == k
        assert sampled.report.extras["phase2_rows"] >= k

    def test_at_least_k_pass_with_tied_threshold(self):
        # All rows share one value: any threshold is tied; the inclusive
        # predicate must let every row through.
        rows = [(i, 42) for i in range(20)]
        ctx, catalog = _tiny_table(rows)
        query = TopKQuery(table="tiny", order_column="val", k=4)
        out = sampling_top_k(ctx, catalog, query, sample_size=6)
        assert out.report.extras["phase2_rows"] == 20
        assert [r[1] for r in out.rows] == [42] * 4

    def test_ascending_keeps_null_keys(self):
        # NULLs sort first ascending, so they belong to the true top-K
        # and the pushed predicate must not filter them out.
        rows = [(i, None if i % 7 == 0 else 100 + i) for i in range(28)]
        ctx, catalog = _tiny_table(rows)
        query = TopKQuery(table="tiny", order_column="val", k=6)
        server = server_side_top_k(ctx, catalog, query)
        sampled = sampling_top_k(ctx, catalog, query, sample_size=10)
        assert [r[1] for r in server.rows] == [r[1] for r in sampled.rows]
        assert sum(1 for r in sampled.rows if r[1] is None) == 4

    def test_descending_ignores_null_keys(self):
        rows = [(i, None if i % 5 == 0 else i) for i in range(25)]
        ctx, catalog = _tiny_table(rows)
        query = TopKQuery(table="tiny", order_column="val", k=5, descending=True)
        server = server_side_top_k(ctx, catalog, query)
        sampled = sampling_top_k(ctx, catalog, query, sample_size=10)
        assert [r[1] for r in server.rows] == [r[1] for r in sampled.rows]
        assert all(r[1] is not None for r in sampled.rows)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), min_size=30, max_size=200),
    st.integers(1, 20),
)
def test_property_sampling_topk_correct_on_random_tables(values, k):
    """Sampling top-K equals sorted-prefix on arbitrary integer tables."""
    from repro.cloud.context import CloudContext
    from repro.engine.catalog import Catalog, load_table
    from repro.storage.schema import TableSchema

    schema = TableSchema.of("pos:int", "val:int")
    rows = [(i, v) for i, v in enumerate(values)]
    ctx, catalog = CloudContext(), Catalog()
    load_table(ctx, catalog, "lineitem", rows, schema, partitions=3)
    query = TopKQuery(table="lineitem", order_column="val", k=k)
    out = sampling_top_k(ctx, catalog, query, alpha=0.5)
    got = [r[1] for r in out.rows]
    assert got == sorted(values)[:k]
