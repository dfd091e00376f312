"""Tests for the Section X suggestion extensions."""

import pytest

from helpers import approx_rows, assert_rows_close
from repro.cloud.context import CloudContext
from repro.common.errors import UnsupportedFeatureError
from repro.engine.catalog import Catalog, load_table
from repro.planner.planner import plan_and_execute
from repro.s3select.engine import execute_select
from repro.sqlparser.parser import parse_expression
from repro.storage.csvcodec import encode_table
from repro.storage.object_store import StoredObject
from repro.strategies.extensions import (
    multirange_indexed_filter,
    partial_pushdown_group_by,
)
from repro.strategies.filter import FilterQuery, indexed_filter
from repro.strategies.groupby import (
    AggSpec,
    GroupByQuery,
    filtered_group_by,
    s3_side_group_by,
)
from repro.workloads.synthetic import (
    FILTER_SCHEMA,
    filter_table,
    groupby_schema,
    uniform_groupby_table,
)


@pytest.fixture(scope="module")
def env():
    ctx, catalog = CloudContext(), Catalog()
    load_table(
        ctx, catalog, "fdata", filter_table(3000, seed=2), FILTER_SCHEMA,
        bucket="ext", partitions=4, index_columns=["key"],
    )
    load_table(
        ctx, catalog, "gdata", uniform_groupby_table(3000, seed=2),
        groupby_schema(), bucket="ext", partitions=4,
    )
    return ctx, catalog


class TestEngineGroupByExtension:
    def _obj(self):
        data, _ = encode_table([(1, 10.0), (1, 20.0), (2, 5.0), (None, 7.0)])
        return StoredObject(
            data, {"format": "csv", "schema": ["g:int", "v:float"], "header": False}
        )

    def test_rejected_without_flag(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(self._obj(), "SELECT g, SUM(v) FROM S3Object GROUP BY g")

    def test_grouped_aggregation(self):
        result = execute_select(
            self._obj(),
            "SELECT g, SUM(v), COUNT(*) FROM S3Object GROUP BY g",
            allow_group_by=True,
        )
        assert sorted(result.rows, key=repr) == sorted(
            [(1, 30.0, 2), (2, 5.0, 1), (None, 7.0, 1)], key=repr
        )

    def test_non_group_scalar_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            execute_select(
                self._obj(),
                "SELECT v, SUM(v) FROM S3Object GROUP BY g",
                allow_group_by=True,
            )

    def test_where_applies_before_grouping(self):
        result = execute_select(
            self._obj(),
            "SELECT g, SUM(v) FROM S3Object WHERE v > 6 GROUP BY g",
            allow_group_by=True,
        )
        assert (2, 5.0) not in result.rows


class TestMultirangeIndexedFilter:
    def test_matches_single_range_strategy(self, env):
        ctx, catalog = env
        query = FilterQuery(table="fdata", predicate=parse_expression("key < 120"))
        single = indexed_filter(ctx, catalog, query)
        multi = multirange_indexed_filter(ctx, catalog, query)
        assert_rows_close(single.rows, multi.rows)

    def test_far_fewer_requests(self, env):
        ctx, catalog = env
        query = FilterQuery(table="fdata", predicate=parse_expression("key < 500"))
        single = indexed_filter(ctx, catalog, query)
        multi = multirange_indexed_filter(ctx, catalog, query)
        assert multi.num_requests < single.num_requests / 20

    def test_faster_and_cheaper_at_calibrated_scale(self):
        ctx, catalog = CloudContext(), Catalog()
        load_table(
            ctx, catalog, "fdata", filter_table(3000, seed=2), FILTER_SCHEMA,
            bucket="ext", partitions=4, index_columns=["key"],
        )
        ctx.calibrate_to_paper_scale(catalog.get("fdata").total_bytes, 10e9)
        ctx.client.range_request_weight = 60_000_000 / 3000
        query = FilterQuery(table="fdata", predicate=parse_expression("key < 300"))
        single = indexed_filter(ctx, catalog, query)
        multi = multirange_indexed_filter(ctx, catalog, query)
        assert multi.runtime_seconds < single.runtime_seconds / 5
        assert multi.cost.request < single.cost.request / 100


class TestPartialGroupByPushdown:
    def test_matches_existing_strategies(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="gdata",
            group_columns=["g3"],
            aggregates=[AggSpec("sum", "v0"), AggSpec("count", "1", "n")],
        )
        reference = approx_rows(filtered_group_by(ctx, catalog, query).rows)
        pushed = approx_rows(partial_pushdown_group_by(ctx, catalog, query).rows)
        assert pushed == reference

    def test_avg_min_max_merge_correctly(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="gdata",
            group_columns=["g1"],
            aggregates=[
                AggSpec("avg", "v0"), AggSpec("min", "v1"), AggSpec("max", "v2"),
            ],
        )
        reference = approx_rows(filtered_group_by(ctx, catalog, query).rows)
        pushed = approx_rows(partial_pushdown_group_by(ctx, catalog, query).rows)
        assert pushed == reference

    def test_single_scan_instead_of_two(self, env):
        ctx, catalog = env
        table = catalog.get("gdata")
        query = GroupByQuery(
            table="gdata", group_columns=["g2"],
            aggregates=[AggSpec("sum", "v0")],
        )
        case_encoded = s3_side_group_by(ctx, catalog, query)
        pushed = partial_pushdown_group_by(ctx, catalog, query)
        assert pushed.bytes_scanned == table.total_bytes
        assert case_encoded.bytes_scanned >= 2 * table.total_bytes

    def test_returns_only_partials(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="gdata", group_columns=["g2"],
            aggregates=[AggSpec("sum", "v0")],
        )
        pushed = partial_pushdown_group_by(ctx, catalog, query)
        filtered = filtered_group_by(ctx, catalog, query)
        assert pushed.bytes_returned < filtered.bytes_returned / 20

    def test_predicate_supported(self, env):
        ctx, catalog = env
        query = GroupByQuery(
            table="gdata", group_columns=["g1"],
            aggregates=[AggSpec("count", "1", "n")],
            predicate=parse_expression("v0 < 250"),
        )
        reference = approx_rows(filtered_group_by(ctx, catalog, query).rows)
        assert approx_rows(
            partial_pushdown_group_by(ctx, catalog, query).rows
        ) == reference


class TestPartialGroupByInACacheSession:
    """Suggestion 4's leaf is the planner's pushed aggregate with keys: it
    stores its partials in a session cache and answers from them."""

    QUERY = GroupByQuery(
        table="t", group_columns=["g2"],
        aggregates=[AggSpec("sum", "v0"), AggSpec("count", "v1"),
                    AggSpec("min", "v2"), AggSpec("avg", "v1")],
        predicate=parse_expression("v0 < 500"),
    )

    @pytest.fixture()
    def session(self):
        rows = uniform_groupby_table(600, seed=3)
        ctx, catalog = CloudContext(cache_bytes=1 << 22), Catalog()
        load_table(ctx, catalog, "t", rows, groupby_schema(), bucket="ext", partitions=4)
        return ctx, catalog, rows

    def test_a_repeat_is_a_hit_without_requests(self, session):
        ctx, catalog, _ = session
        cold = partial_pushdown_group_by(ctx, catalog, self.QUERY)
        warm = partial_pushdown_group_by(ctx, catalog, self.QUERY)
        assert (cold.report.cache.miss, cold.report.cache.stores) == (1, 1)
        assert warm.report.cache.hit == 1 and warm.num_requests == 0
        assert warm.rows == cold.rows
        assert "cache: hit" in warm.report.plan

    @pytest.mark.parametrize("sql", [
        "SELECT SUM(v0) AS s, COUNT(v1) AS n FROM t WHERE v0 < 500",
        "SELECT SUM(v0), COUNT(v1), MIN(v2), AVG(v1) FROM t WHERE v0 < 500",
    ])
    def test_an_ungrouped_query_answers_as_sqlite_does(self, session, sql):
        """Whether the grouped entry answers it (the pushed SUM / COUNT)
        or not (MIN and AVG are not pushed from SQL)."""
        import sqlite3

        ctx, catalog, rows = session
        partial_pushdown_group_by(ctx, catalog, self.QUERY)
        oracle = sqlite3.connect(":memory:")
        oracle.execute(f"CREATE TABLE t ({', '.join(groupby_schema().names)})")
        oracle.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(rows[0]))})", rows)
        expected = oracle.execute(sql).fetchall()
        oracle.close()
        assert approx_rows(plan_and_execute(ctx, catalog, sql).rows) == approx_rows(expected)

    def test_other_keys_miss(self, session):
        ctx, catalog, _ = session
        partial_pushdown_group_by(ctx, catalog, self.QUERY)
        query = GroupByQuery(
            table="t", group_columns=["g1"], aggregates=self.QUERY.aggregates,
            predicate=self.QUERY.predicate,
        )
        other = partial_pushdown_group_by(ctx, catalog, query)
        assert other.report.cache.miss == 1 and other.num_requests == 4
        assert approx_rows(other.rows) == approx_rows(
            filtered_group_by(ctx, catalog, query).rows
        )


class TestCompressedTransfer:
    """Section IX mitigation: compress the S3 Select response payload."""

    def _obj(self):
        rows = [(i, round(i * 1.5, 4)) for i in range(2000)]
        data, _ = encode_table(rows)
        return StoredObject(
            data, {"format": "csv", "schema": ["k:int", "v:float"], "header": False}
        )

    def test_rows_unchanged(self):
        sql = "SELECT * FROM S3Object WHERE k < 500"
        plain = execute_select(self._obj(), sql)
        compressed = execute_select(self._obj(), sql, compress_output=True)
        assert compressed.rows == plain.rows

    def test_payload_roundtrips(self):
        import zlib

        sql = "SELECT * FROM S3Object"
        plain = execute_select(self._obj(), sql)
        compressed = execute_select(self._obj(), sql, compress_output=True)
        assert zlib.decompress(compressed.payload) == plain.payload

    def test_returned_bytes_shrink(self):
        sql = "SELECT * FROM S3Object"
        plain = execute_select(self._obj(), sql)
        compressed = execute_select(self._obj(), sql, compress_output=True)
        assert compressed.bytes_returned < plain.bytes_returned * 0.7
        assert compressed.bytes_scanned == plain.bytes_scanned  # scan unchanged

    def test_metered_through_client(self, env):
        ctx, catalog = env
        table = catalog.get("gdata")
        mark = ctx.metrics.mark()
        ctx.client.select_object_content(
            table.bucket, table.keys[0], "SELECT * FROM S3Object",
            compress_output=True,
        )
        (record,) = ctx.metrics.records_since(mark)
        plain = execute_select(
            ctx.store.get_object(table.bucket, table.keys[0]),
            "SELECT * FROM S3Object",
        )
        assert record.bytes_returned < plain.bytes_returned
