"""Tests for the three filter strategies (paper Section IV)."""

import pytest

from helpers import assert_rows_close
from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, load_table
from repro.queries.common import items
from repro.sqlparser.parser import parse_expression
from repro.strategies.filter import (
    FilterQuery,
    indexed_filter,
    s3_side_filter,
    server_side_filter,
)
from repro.workloads.synthetic import FILTER_SCHEMA, filter_table

NUM_ROWS = 2_000


@pytest.fixture(scope="module")
def env():
    ctx, catalog = CloudContext(), Catalog()
    load_table(
        ctx, catalog, "data", filter_table(NUM_ROWS, seed=7), FILTER_SCHEMA,
        bucket="filters", partitions=4, index_columns=["key"],
    )
    return ctx, catalog


ALL = [server_side_filter, s3_side_filter, indexed_filter]


class TestAgreement:
    @pytest.mark.parametrize("matched", [0, 1, 17, 250])
    def test_strategies_agree_on_range_predicate(self, env, matched):
        ctx, catalog = env
        query = FilterQuery(
            table="data", predicate=parse_expression(f"key < {matched}")
        )
        results = [fn(ctx, catalog, query) for fn in ALL]
        for execution in results:
            assert len(execution.rows) == matched
        assert_rows_close(results[0].rows, results[1].rows)
        assert_rows_close(results[0].rows, results[2].rows)

    def test_point_lookup(self, env):
        ctx, catalog = env
        query = FilterQuery(table="data", predicate=parse_expression("key = 42"))
        for fn in ALL:
            execution = fn(ctx, catalog, query)
            assert len(execution.rows) == 1
            assert execution.rows[0][0] == 42

    def test_projection_applies(self, env):
        ctx, catalog = env
        query = FilterQuery(
            table="data",
            predicate=parse_expression("key < 5"),
            projection=["key", "tag"],
        )
        for fn in ALL:
            execution = fn(ctx, catalog, query)
            assert execution.column_names == ["key", "tag"]
            assert all(len(r) == 2 for r in execution.rows)

    def test_aggregate_output(self, env):
        ctx, catalog = env
        query = FilterQuery(
            table="data",
            predicate=parse_expression("key < 10"),
            output=items("SUM(key) AS total"),
        )
        for fn in ALL:
            execution = fn(ctx, catalog, query)
            assert execution.rows == [(45,)]


class TestAccountingShapes:
    def test_server_side_transfers_whole_table(self, env):
        ctx, catalog = env
        table = catalog.get("data")
        query = FilterQuery(table="data", predicate=parse_expression("key < 1"))
        execution = server_side_filter(ctx, catalog, query)
        assert execution.bytes_transferred == table.total_bytes
        assert execution.bytes_scanned == 0  # no S3 Select involved

    def test_s3_side_scans_but_returns_little(self, env):
        ctx, catalog = env
        table = catalog.get("data")
        query = FilterQuery(table="data", predicate=parse_expression("key < 1"))
        execution = s3_side_filter(ctx, catalog, query)
        assert execution.bytes_scanned == table.total_bytes
        assert execution.bytes_returned < table.total_bytes / 100

    def test_indexing_requests_grow_with_matches(self, env):
        ctx, catalog = env
        few = indexed_filter(
            ctx, catalog,
            FilterQuery(table="data", predicate=parse_expression("key < 2")),
        )
        many = indexed_filter(
            ctx, catalog,
            FilterQuery(table="data", predicate=parse_expression("key < 200")),
        )
        assert many.num_requests > few.num_requests
        assert many.report.extras["matched_rows"] == 200

    def test_indexing_scans_only_index_table(self, env):
        ctx, catalog = env
        table = catalog.get("data")
        execution = indexed_filter(
            ctx, catalog,
            FilterQuery(table="data", predicate=parse_expression("key = 3")),
        )
        assert 0 < execution.bytes_scanned < table.total_bytes


class TestIndexErrors:
    def test_unindexed_column_rejected(self, env):
        ctx, catalog = env
        with pytest.raises(PlanError, match="no index"):
            indexed_filter(
                ctx, catalog,
                FilterQuery(table="data", predicate=parse_expression("p0 < 1")),
            )

    def test_multi_column_predicate_rejected(self, env):
        ctx, catalog = env
        with pytest.raises(PlanError, match="exactly one column"):
            indexed_filter(
                ctx, catalog,
                FilterQuery(
                    table="data",
                    predicate=parse_expression("key < 1 AND p0 < 1"),
                ),
            )
