"""Tests for the SQL planner and the PushdownDB facade."""

import pytest

from helpers import assert_rows_close
from repro.common.errors import CatalogError, PlanError
from repro.planner.database import PushdownDB
from repro.planner.planner import plan_and_execute
from repro.workloads.tpch import (
    CUSTOMER_SCHEMA,
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    TpchGenerator,
)


@pytest.fixture(scope="module")
def db():
    database = PushdownDB()
    gen = TpchGenerator(scale_factor=0.002)
    database.load_table("lineitem", gen.lineitem(), LINEITEM_SCHEMA)
    database.load_table("customer", gen.customer(), CUSTOMER_SCHEMA)
    database.load_table("orders", gen.orders(), ORDERS_SCHEMA)
    return database


def both_modes(db, sql):
    baseline = db.execute(sql, mode="baseline")
    optimized = db.execute(sql, mode="optimized")
    assert_rows_close(baseline.rows, optimized.rows)
    return baseline, optimized


class TestSingleTable:
    def test_projection_and_filter(self, db):
        _, optimized = both_modes(
            db,
            "SELECT l_orderkey, l_extendedprice FROM lineitem"
            " WHERE l_shipdate < '1992-06-01'",
        )
        assert optimized.column_names == ["l_orderkey", "l_extendedprice"]
        assert len(optimized.rows) > 0

    def test_fully_pushed_aggregate(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem"
            " WHERE l_quantity < 24",
        )
        assert optimized.strategy == "optimized single-table"
        # Baseline moved the whole table; optimized returned one number.
        assert optimized.bytes_returned < baseline.bytes_transferred / 1000

    def test_avg_aggregate_runs_locally_but_matches(self, db):
        both_modes(db, "SELECT AVG(l_quantity) AS q FROM lineitem")

    def test_group_by_order_limit(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n"
            " FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
        )
        assert optimized.column_names == ["l_returnflag", "q", "n"]

    def test_order_by_unselected_column(self, db):
        """SQL allows ORDER BY keys outside the select list; projection
        must defer until after the sort so the key stays in scope."""
        baseline, optimized = both_modes(
            db,
            "SELECT l_orderkey FROM lineitem ORDER BY l_extendedprice LIMIT 5",
        )
        assert optimized.column_names == ["l_orderkey"]
        assert len(optimized.rows) == 5
        with_price = db.execute(
            "SELECT l_orderkey, l_extendedprice FROM lineitem"
            " ORDER BY l_extendedprice LIMIT 5"
        )
        assert optimized.rows == [(r[0],) for r in with_price.rows]

    def test_order_by_mixes_alias_and_unselected_column(self, db):
        """ORDER BY may mix an output alias with a hidden raw column."""
        baseline, optimized = both_modes(
            db,
            "SELECT l_orderkey AS k FROM lineitem"
            " ORDER BY l_extendedprice DESC, k LIMIT 4",
        )
        assert optimized.column_names == ["k"]
        assert len(optimized.rows) == 4

    def test_order_by_alias_inside_expression(self, db):
        """Aliases resolve even inside composite ORDER BY expressions."""
        _, optimized = both_modes(
            db,
            "SELECT l_orderkey AS k FROM lineitem"
            " ORDER BY k + l_tax LIMIT 3",
        )
        assert optimized.column_names == ["k"]
        assert len(optimized.rows) == 3

    def test_order_by_limit_uses_topk(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT l_orderkey, l_extendedprice FROM lineitem"
            " ORDER BY l_extendedprice LIMIT 7",
        )
        assert len(optimized.rows) == 7
        prices = [r[1] for r in optimized.rows]
        assert prices == sorted(prices)

    def test_select_star(self, db):
        _, optimized = both_modes(
            db, "SELECT * FROM customer WHERE c_acctbal <= -990"
        )
        assert optimized.column_names == list(CUSTOMER_SCHEMA.names)

    def test_unknown_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nope")

    def test_unknown_mode_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT * FROM customer", mode="turbo")


class TestJoins:
    def test_aggregate_join(self, db):
        both_modes(
            db,
            "SELECT SUM(o_totalprice) AS t FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal <= -900",
        )

    def test_join_with_group_by(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT c_mktsegment, COUNT(*) AS n FROM customer, orders"
            " WHERE c_custkey = o_custkey AND o_orderdate < '1993-01-01'"
            " GROUP BY c_mktsegment ORDER BY c_mktsegment",
        )
        assert len(optimized.rows) == 5  # five market segments

    def test_join_key_order_irrelevant(self, db):
        a = db.execute(
            "SELECT COUNT(*) AS n FROM customer, orders WHERE c_custkey = o_custkey"
        )
        b = db.execute(
            "SELECT COUNT(*) AS n FROM customer, orders WHERE o_custkey = c_custkey"
        )
        assert a.rows == b.rows

    def test_residual_cross_table_predicate(self, db):
        both_modes(
            db,
            "SELECT COUNT(*) AS n FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal < o_totalprice / 100",
        )

    def test_bloom_used_for_selective_builds(self, db):
        execution = db.execute(
            "SELECT SUM(o_totalprice) AS t FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal <= -950",
            mode="optimized",
        )
        # The Bloom-filtered probe scan must return far less than the
        # whole orders table.
        assert execution.bytes_returned < db.table("orders").total_bytes / 3

    def test_cross_product_fallback_for_missing_join_condition(self, db):
        """Two tables without an equi-join now run as a guarded cross
        product (both modes agree with each other)."""
        baseline, optimized = both_modes(
            db,
            "SELECT COUNT(*) AS n FROM customer, orders"
            " WHERE c_acctbal <= -998",
        )
        assert "multi-join" in optimized.strategy
        n_matching = db.execute(
            "SELECT COUNT(*) AS n FROM customer WHERE c_acctbal <= -998"
        ).rows[0][0]
        assert optimized.rows[0][0] == n_matching * db.table("orders").num_rows

    def test_large_cross_product_rejected(self, db):
        """The cross-product fallback is guarded by an estimated-rows
        cap; big disconnected FROM lists still fail to plan."""
        with pytest.raises(PlanError, match="connect"):
            db.execute("SELECT COUNT(*) AS n FROM customer, lineitem")


class TestMultiwayJoins:
    SQL2 = (
        "SELECT COUNT(*) AS n FROM customer, orders"
        " WHERE c_custkey = o_custkey AND c_acctbal < 0"
    )
    SQL3 = (
        "SELECT c_mktsegment, SUM(l_extendedprice) AS revenue"
        " FROM customer, orders, lineitem"
        " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
        " AND o_orderdate < '1995-01-01'"
        " GROUP BY c_mktsegment ORDER BY c_mktsegment"
    )

    def test_three_way_join_modes_agree(self, db):
        baseline, optimized = both_modes(db, self.SQL3)
        assert "multi-join" in optimized.strategy
        assert len(optimized.rows) == 5  # five market segments

    def test_three_way_auto_matches(self, db):
        auto = db.execute(self.SQL3, mode="auto")
        fixed = db.execute(self.SQL3, mode="optimized")
        assert_rows_close(auto.rows, fixed.rows)
        summary = auto.report.optimizer
        assert summary["picked"] in ("baseline", "optimized")
        assert summary["join_orders"], "join-order candidates missing"
        assert any(c["picked"] for c in summary["join_orders"])

    def test_forced_orders_all_agree(self, db):
        from repro.optimizer.joinorder import (
            build_join_graph,
            enumerate_left_deep_orders,
        )
        from repro.planner.binder import bind
        from repro.planner.planner import execute_forced_join
        from repro.sqlparser.parser import parse

        graph = build_join_graph(bind(parse(self.SQL3), db.catalog))
        orders = enumerate_left_deep_orders(graph)
        assert len(orders) == 4  # chain c-o-l: o can never come last
        reference = None
        for order in orders:
            execution = execute_forced_join(
                db.ctx, db.catalog, self.SQL3, order=order
            )
            if reference is None:
                reference = execution.rows
            else:
                assert_rows_close(execution.rows, reference)

    def test_three_way_order_by_unselected_column(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT o_orderkey FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " ORDER BY l_extendedprice LIMIT 5",
        )
        assert optimized.column_names == ["o_orderkey"]
        assert len(optimized.rows) == 5

    def test_three_way_with_limit(self, db):
        baseline, optimized = both_modes(
            db,
            "SELECT o_orderkey, l_extendedprice FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " ORDER BY l_extendedprice DESC, o_orderkey LIMIT 9",
        )
        assert len(optimized.rows) == 9

    def test_three_way_residual_predicate(self, db):
        both_modes(
            db,
            "SELECT COUNT(*) AS n FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " AND c_acctbal < o_totalprice / 100",
        )

    def test_explain_lists_join_orders(self, db):
        report = db.explain(self.SQL3)
        assert "join-order search" in report
        assert "->" in report

    def test_cross_join_rejected(self, db):
        with pytest.raises(PlanError, match="connect"):
            db.execute(
                "SELECT COUNT(*) AS n FROM customer, orders, lineitem"
                " WHERE c_custkey = o_custkey"
            )

    def test_duplicate_from_table_rejected(self, db):
        with pytest.raises(PlanError, match="duplicate table"):
            db.execute(
                "SELECT COUNT(*) AS n FROM customer, orders, customer"
                " WHERE c_custkey = o_custkey"
            )

    @pytest.mark.parametrize("sql", ["SQL2", "SQL3"])
    def test_auto_runs_one_join_order_search(self, db, monkeypatch, sql):
        """``auto`` builds both candidate plans from one search and runs
        the plan it priced: no second search to rebuild the pick."""
        from repro.optimizer.joinorder import JoinOrderSearch

        built = []
        init = JoinOrderSearch.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JoinOrderSearch, "__init__", counting_init)
        db.execute(getattr(self, sql), mode="auto")
        assert len(built) == 1
        db.explain(getattr(self, sql))
        assert len(built) == 2

    def test_two_table_query_is_the_join_builder_at_n_2(self, db):
        """A 2-table query and the same query forced through
        ``execute_forced_join`` on the searched shape are one plan:
        same strategy, rows and metering."""
        from repro.planner.planner import execute_forced_join

        for mode in ("baseline", "optimized"):
            planned = db.execute(self.SQL2, mode=mode)
            forced = execute_forced_join(
                db.ctx, db.catalog, self.SQL2,
                shape=["hash", "customer", "orders"], mode=mode,
            )
            assert planned.strategy == f"{mode} multi-join (customer >< orders)"
            assert forced.strategy == planned.strategy
            assert forced.rows == planned.rows
            for metered in (
                "num_requests", "bytes_scanned", "bytes_returned",
                "bytes_transferred", "runtime_seconds",
            ):
                assert getattr(forced, metered) == getattr(planned, metered)
            assert forced.cost.total == planned.cost.total


class TestFacade:
    def test_table_names(self, db):
        assert set(db.table_names()) == {"lineitem", "customer", "orders"}

    def test_execution_reports_costs(self, db):
        execution = db.execute("SELECT COUNT(*) AS n FROM customer")
        assert execution.runtime_seconds > 0
        assert execution.cost.total > 0
        assert execution.num_requests > 0

    def test_calibration_changes_pricing(self):
        database = PushdownDB()
        gen = TpchGenerator(scale_factor=0.001)
        database.load_table("customer", gen.customer(), CUSTOMER_SCHEMA)
        scale = database.calibrate_to_paper_scale(10e9)
        assert 0 < scale < 1e-3
        assert database.ctx.pricing.select_scan_per_gb > 0.002
