"""Tests for baseline / filtered / Bloom joins (paper Section V)."""

import pytest

from helpers import assert_rows_close
from repro.common.errors import PlanError
from repro.queries.common import items
from repro.sqlparser.parser import parse_expression
from repro.strategies.join import (
    JoinQuery,
    baseline_join,
    bloom_join,
    filtered_join,
    membership_chunks,
)

ALL = [baseline_join, filtered_join, bloom_join]


def join_query(**overrides):
    base = dict(
        build_table="customer",
        probe_table="orders",
        build_key="c_custkey",
        probe_key="o_custkey",
        build_predicate=parse_expression("c_acctbal <= -900"),
        build_projection=["c_custkey", "c_acctbal"],
        probe_projection=["o_custkey", "o_totalprice", "o_orderdate"],
    )
    base.update(overrides)
    return JoinQuery(**base)


class TestAgreement:
    def test_all_strategies_same_rows(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query()
        results = [fn(ctx, catalog, query) for fn in ALL]
        assert len(results[0].rows) > 0, "fixture query should match something"
        assert_rows_close(results[0].rows, results[1].rows)
        assert_rows_close(results[0].rows, results[2].rows)

    def test_with_probe_predicate(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(
            probe_predicate=parse_expression("o_orderdate < '1994-01-01'")
        )
        results = [fn(ctx, catalog, query) for fn in ALL]
        assert_rows_close(results[0].rows, results[1].rows)
        assert_rows_close(results[0].rows, results[2].rows)

    def test_aggregate_output(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(output=items("SUM(o_totalprice) AS total"))
        values = [fn(ctx, catalog, query).rows[0][0] for fn in ALL]
        assert values[0] == pytest.approx(values[1])
        assert values[0] == pytest.approx(values[2])

    def test_empty_build_side(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(build_predicate=parse_expression("c_acctbal < -99999"))
        for fn in ALL:
            assert fn(ctx, catalog, query).rows == []


class TestBloomBehaviour:
    def test_bloom_reduces_returned_bytes(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(build_predicate=parse_expression("c_acctbal <= -950"))
        plain = filtered_join(ctx, catalog, query)
        bloomed = bloom_join(ctx, catalog, query)
        assert bloomed.bytes_returned < plain.bytes_returned

    def test_bloom_details_recorded(self, tpch_env):
        ctx, catalog = tpch_env
        execution = bloom_join(ctx, catalog, join_query(), fpr=0.01)
        extras = execution.report.extras
        assert extras["requested_fpr"] == 0.01
        assert extras["achieved_fpr"] == 0.01
        assert not extras["degraded"]
        assert extras["bloom_hashes"] == 7  # log2(1/0.01) rounded

    def test_lower_fpr_means_more_hashes(self, tpch_env):
        ctx, catalog = tpch_env
        strict = bloom_join(ctx, catalog, join_query(), fpr=0.0001)
        loose = bloom_join(ctx, catalog, join_query(), fpr=0.5)
        assert strict.report.extras["bloom_hashes"] > loose.report.extras["bloom_hashes"]
        assert strict.report.extras["probe_rows_returned"] <= (
            loose.report.extras["probe_rows_returned"]
        )

    def test_degraded_bloom_still_correct(self, tpch_env):
        """Force the 256 KB degradation path via a huge FPR... actually by
        making every customer a build key so no filter fits; the join must
        then fall back to a (serial) filtered join and stay correct."""
        ctx, catalog = tpch_env
        query = join_query(build_predicate=None)  # all customers
        reference = baseline_join(ctx, catalog, query)
        bloomed = bloom_join(ctx, catalog, query, fpr=1e-15)
        # At fpr=1e-15 with thousands of keys the rendered filter cannot
        # fit 256 KB at any fpr < 1 only if the key count is large enough;
        # accept either path but require correctness.
        assert_rows_close(reference.rows, bloomed.rows)

    def test_two_phases(self, tpch_env):
        ctx, catalog = tpch_env
        execution = bloom_join(ctx, catalog, join_query())
        assert [p.name for p in execution.phases] == ["build+bloom", "probe+join"]

    def test_non_integer_key_rejected(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(build_key="c_name", probe_key="o_clerk")
        with pytest.raises(PlanError, match="integer join attribute"):
            bloom_join(ctx, catalog, query)


class TestMembershipChunking:
    """Degraded Bloom joins chunk the exact IN-list under the limit."""

    def test_chunks_partition_keys_and_fit_limit(self):
        keys = list(range(100))
        chunks = membership_chunks("o_custkey", keys, overhead_bytes=40,
                                   limit_bytes=140)
        assert chunks is not None and len(chunks) > 1
        rendered_keys = []
        for chunk in chunks:
            text = chunk.to_sql()
            assert text.startswith("o_custkey IN (") and text.endswith(")")
            assert len(text.encode()) + 40 <= 140
            assert repr(parse_expression(text)) == repr(chunk)
            rendered_keys += [int(v) for v in text[14:-1].split(", ")]
        assert sorted(rendered_keys) == keys

    def test_duplicate_keys_deduplicated(self):
        chunks = membership_chunks("k", [7, 7, 7, 8], overhead_bytes=0,
                                   limit_bytes=1024)
        assert [chunk.to_sql() for chunk in chunks] == ["k IN (7, 8)"]

    def test_unfittable_single_key_returns_none(self):
        assert membership_chunks("k", [123456789], overhead_bytes=0,
                                 limit_bytes=10) is None

    def test_degraded_join_uses_chunked_scans_and_stays_correct(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(build_predicate=parse_expression("c_acctbal <= 0"))
        reference = baseline_join(ctx, catalog, query)
        probe_partitions = catalog.get("orders").partitions
        mark = ctx.metrics.mark()
        # A limit too small for any Bloom filter but large enough for
        # IN-list chunks forces the chunked fallback.
        bloomed = bloom_join(
            ctx, catalog, query, expression_limit_bytes=130
        )
        assert bloomed.report.extras["degraded"]
        chunks = bloomed.report.extras["membership_chunks"]
        assert chunks > 1
        assert_rows_close(reference.rows, bloomed.rows)
        # Metrics must account every chunked request: build partitions +
        # one SELECT per chunk per probe partition.
        build_partitions = catalog.get("customer").partitions
        records = ctx.metrics.records_since(mark)
        assert len(records) == build_partitions + chunks * probe_partitions
        assert bloomed.num_requests == len(records)
        # Each chunk re-scans the probe table: billed scan bytes say so.
        probe_bytes = catalog.get("orders").total_bytes
        scanned_on_probe = sum(
            r.bytes_scanned for r in records if r.key.startswith("orders/")
        )
        assert scanned_on_probe == chunks * probe_bytes

    def test_too_many_chunks_falls_back_to_unfiltered(self, tpch_env):
        ctx, catalog = tpch_env
        query = join_query(build_predicate=None)  # every customer is a key
        reference = baseline_join(ctx, catalog, query)
        bloomed = bloom_join(ctx, catalog, query, expression_limit_bytes=120)
        assert bloomed.report.extras["degraded"]
        assert bloomed.report.extras["membership_chunks"] == 0
        assert_rows_close(reference.rows, bloomed.rows)


class TestAccountingShapes:
    def test_baseline_moves_both_tables(self, tpch_env):
        ctx, catalog = tpch_env
        total = (
            catalog.get("customer").total_bytes + catalog.get("orders").total_bytes
        )
        execution = baseline_join(ctx, catalog, join_query())
        assert execution.bytes_transferred == total

    def test_filtered_single_phase_baseline_style(self, tpch_env):
        ctx, catalog = tpch_env
        execution = filtered_join(ctx, catalog, join_query())
        assert len(execution.phases) == 1  # parallel scans, one phase


class TestSqlJoinsShareTheLadder:
    """The degradation ladder lives on the plan's join node, so SQL joins
    walk it too (they only never reach the lower rungs at 256 KB)."""

    SQL = (
        "SELECT o_custkey, o_totalprice FROM customer, orders"
        " WHERE c_custkey = o_custkey AND c_acctbal <= 0"
    )

    def test_sql_join_forced_into_chunked_in_lists(self, tpch_env, tpch_rows):
        import sqlite3
        from dataclasses import replace

        from repro.planner import physical
        from repro.planner.joins import HashJoinNode
        from repro.planner.planner import build_plan
        from repro.sqlparser.parser import parse
        from repro.workloads.tpch import TABLE_SCHEMAS

        ctx, catalog = tpch_env
        plan = build_plan(ctx, catalog, parse(self.SQL), "optimized")
        (join,) = (
            n for n, _ in physical.walk_plan(plan.root)
            if isinstance(n, HashJoinNode)
        )
        assert join.bloom is not None and join.probe.table.name == "orders"
        join.bloom = replace(join.bloom, limit_bytes=130)
        mark = ctx.metrics.mark()
        execution = physical.execute_plan(ctx, plan)
        records = ctx.metrics.records_since(mark)

        assert join.bloom_outcome.bloom is None  # no filter fits 130 bytes
        chunks = len(join.bloom_clauses)
        assert 1 < chunks <= 16
        assert all(c.to_sql().startswith("o_custkey IN (") for c in join.bloom_clauses)
        # Every chunk re-scans every probe partition, and is metered.
        partitions = {n: catalog.get(n).partitions for n in ("customer", "orders")}
        assert len(records) == execution.num_requests == (
            partitions["customer"] - join.build.pruned_partitions
            + chunks * partitions["orders"]
        )
        assert sum(
            r.bytes_scanned for r in records if r.key.startswith("orders/")
        ) == chunks * catalog.get("orders").total_bytes
        assert len(execution.phases[-1].streams) == partitions["orders"]

        oracle = sqlite3.connect(":memory:")
        for name in ("customer", "orders"):
            columns = TABLE_SCHEMAS[name].names
            oracle.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            oracle.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
                tpch_rows[name],
            )
        assert_rows_close(execution.rows, oracle.execute(self.SQL).fetchall())
        oracle.close()
