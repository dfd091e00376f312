"""Tests for mid-flight adaptive join re-optimization (``mode="adaptive"``).

The contract under test, matching the PR's acceptance criteria:

* estimates within the Q-error threshold execute **byte-identically**
  (rows, bytes, requests, runtime, cost) to the static optimized plan;
* misestimated builds (the correlated-predicate star) fire a re-plan
  that never measures worse than the static plan and wins at least one
  swept point;
* re-planning never changes result rows;
* the ``adaptive_threshold`` knob gates firing.
"""

import pytest

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.planner.database import PushdownDB
from repro.planner.planner import plan_and_execute
from repro.workloads.synthetic import (
    CORRELATED_STAR_SCHEMAS,
    correlated_star_tables,
)
from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

STAR_TABLES = ("fact", "dima", "dimb", "dimc")

METERED = (
    "num_requests", "bytes_scanned", "bytes_returned", "bytes_transferred",
    "runtime_seconds",
)


def star_session(fact_rows=4000, seed=11, threshold=None):
    ctx = CloudContext(adaptive_threshold=threshold)
    catalog = Catalog()
    tables = correlated_star_tables(fact_rows, seed=seed)
    for name in STAR_TABLES:
        load_table(
            ctx, catalog, name, tables[name], CORRELATED_STAR_SCHEMAS[name]
        )
    return ctx, catalog


def star_sql(t, b=12):
    return (
        "SELECT SUM(f_v) AS total FROM fact, dima, dimb, dimc"
        " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id"
        f" AND a_x < {t} AND a_y < {t} AND b_sel < {b}"
    )


def tpch_session(scale=0.002):
    gen = TpchGenerator(scale_factor=scale)
    db = PushdownDB()
    for table in ("customer", "orders", "lineitem"):
        db.load_table(table, gen.table(table), TABLE_SCHEMAS[table])
    return db


def assert_byte_identical(a, b):
    assert a.rows == b.rows
    for metric in METERED:
        assert getattr(a, metric) == getattr(b, metric), metric
    assert a.cost.total == b.cost.total


class TestByteIdentity:
    def test_accurate_estimates_match_static_plan(self):
        """TPC-H uniform keys estimate well: adaptive == optimized."""
        sql = (
            "SELECT SUM(l_extendedprice) FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " AND o_orderdate < '1995-06-01'"
        )
        static = tpch_session().execute(sql, mode="optimized")
        adaptive = tpch_session().execute(sql, mode="adaptive")
        assert_byte_identical(static, adaptive)
        assert adaptive.report.adaptive.replans == 0

    def test_huge_threshold_disables_replanning(self):
        """Even the adversarial workload executes identically when the
        knob is slack — the wrapper alone must not change metering."""
        sql = star_sql(15)
        ctx_s, cat_s = star_session()
        static = plan_and_execute(ctx_s, cat_s, sql, mode="optimized")
        ctx_a, cat_a = star_session(threshold=1e9)
        adaptive = plan_and_execute(ctx_a, cat_a, sql, mode="adaptive")
        assert_byte_identical(static, adaptive)
        assert adaptive.report.adaptive.replans == 0

    def test_pairwise_and_single_table_pass_through(self):
        """< 3 relations: nothing to reorder; plans equal optimized."""
        for sql in (
            "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice < 1000",
            "SELECT COUNT(*) AS n FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal > 0",
        ):
            static = tpch_session().execute(sql, mode="optimized")
            adaptive = tpch_session().execute(sql, mode="adaptive")
            assert_byte_identical(static, adaptive)
            assert adaptive.report.adaptive is None

    def test_threshold_knob_validated(self):
        with pytest.raises(ValueError):
            CloudContext(adaptive_threshold=0.5)

    def test_threshold_knob_validated_at_facade(self):
        """PushdownDB forwards the knob to CloudContext's validation —
        a sub-1.0 Q-error bound must fail at construction, not at the
        first adaptive execution."""
        from repro.planner.database import PushdownDB

        with pytest.raises(ValueError):
            PushdownDB(adaptive_threshold=0.99)
        # The boundary itself is legal: Q-error 1.0 means "re-plan on
        # any misestimate at all".
        assert PushdownDB(adaptive_threshold=1.0).ctx.adaptive_threshold == 1.0

    def test_cyclic_extra_edges_do_not_fire_spuriously(self):
        """A join whose subtree defers an extra equi edge to the residual
        emits pre-residual rows; the trigger must compare against the
        commensurate estimate, not the all-edges one, or every
        accurately-planned cyclic query would re-plan for nothing."""
        from repro.storage.schema import TableSchema

        def session():
            ctx, catalog = CloudContext(), Catalog()
            schemas = {
                "ta": TableSchema.of("a1:int", "a3:int"),
                "tb": TableSchema.of("b1:int", "b2:int"),
                "tc": TableSchema.of("c2:int", "c3:int", "c4:int"),
                "td": TableSchema.of("d4:int", "d_v:int"),
            }
            rows = {
                "ta": [(i % 7, i % 5) for i in range(60)],
                "tb": [(i % 7, i % 6) for i in range(50)],
                "tc": [(i % 6, i % 5, i % 4) for i in range(40)],
                "td": [(i % 4, i) for i in range(30)],
            }
            for name, schema in schemas.items():
                load_table(ctx, catalog, name, rows[name], schema, partitions=2)
            return ctx, catalog

        sql = (
            "SELECT COUNT(*) AS n FROM ta, tb, tc, td"
            " WHERE a1 = b1 AND b2 = c2 AND a3 = c3 AND c4 = d4"
        )
        ctx_s, cat_s = session()
        static = plan_and_execute(ctx_s, cat_s, sql, mode="optimized")
        ctx_a, cat_a = session()
        adaptive = plan_and_execute(ctx_a, cat_a, sql, mode="adaptive")
        report = adaptive.report.adaptive
        # Uniform keys estimate well: no event may report a blow-up just
        # because an extra edge was deferred, and nothing re-plans.
        assert all(e["q_error"] < 2.0 for e in report.events)
        assert report.replans == 0
        assert_byte_identical(static, adaptive)


class TestReplanning:
    def test_correlated_predicates_fire_and_win(self):
        """The quadratic underestimate fires a re-plan that beats the
        static plan on measured cost and runtime, same result rows."""
        sql = star_sql(15)
        ctx_s, cat_s = star_session()
        static = plan_and_execute(ctx_s, cat_s, sql, mode="optimized")
        ctx_a, cat_a = star_session()
        adaptive = plan_and_execute(ctx_a, cat_a, sql, mode="adaptive")
        report = adaptive.report.adaptive
        assert report.replans >= 1
        fired = [e for e in report.events if e["replanned"]]
        assert fired and fired[0]["q_error"] > 2.0
        assert "old_tree" in fired[0] and "new_tree" in fired[0]
        assert adaptive.rows[0][0] == pytest.approx(static.rows[0][0])
        assert adaptive.cost.total < static.cost.total
        assert adaptive.runtime_seconds < static.runtime_seconds
        # Billed scan bytes never shrink (every table is still scanned
        # once); the win comes from returned bytes and local work.
        assert adaptive.bytes_scanned == static.bytes_scanned
        assert adaptive.num_requests == static.num_requests

    def test_replanned_session_plans_statically_next_time(self):
        """After one adaptive run the session's feedback makes the plain
        optimized planner pick the corrected tree up front."""
        sql = star_sql(15)
        ctx, catalog = star_session()
        adaptive = plan_and_execute(ctx, catalog, sql, mode="adaptive")
        assert adaptive.report.adaptive.replans >= 1
        warm = plan_and_execute(ctx, catalog, sql, mode="optimized")
        assert warm.rows[0][0] == pytest.approx(adaptive.rows[0][0])
        assert warm.cost.total <= adaptive.cost.total * (1 + 1e-9)
        # And a warm *adaptive* run has nothing left to correct.
        warm_adaptive = plan_and_execute(ctx, catalog, sql, mode="adaptive")
        assert warm_adaptive.report.adaptive.replans == 0

    def test_wide_replan_takes_the_greedy_search(self, monkeypatch):
        """Seven relations (over DP_TABLE_LIMIT) still to join when the
        first build misses: the re-plan runs the greedy search, over a
        materialized result and six pending scans, and rows stay those
        of the static plan."""
        from repro.optimizer.joinorder import DP_TABLE_LIMIT, JoinOrderSearch
        from repro.planner.joins import MaterializedNode
        from repro.storage.schema import TableSchema

        n = DP_TABLE_LIMIT + 1

        def session(threshold=None):
            ctx, catalog = CloudContext(adaptive_threshold=threshold), Catalog()
            for i in range(n):
                load_table(
                    ctx, catalog, f"t{i}",
                    [(j % (8 + i), j) for j in range(20 + 3 * i)],
                    TableSchema.of(f"t{i}_k:int", f"t{i}_v:int"), partitions=1,
                )
            return ctx, catalog

        # ``v > k`` is a column-vs-column predicate: its estimate misses
        # on every table, so the very first build fires a re-plan.
        sql = (
            f"SELECT COUNT(*) AS n, SUM(t0_v) AS s"
            f" FROM {', '.join(f't{i}' for i in range(n))} WHERE "
            + " AND ".join(f"t{i}_k = t{i + 1}_k" for i in range(n - 1))
            + "".join(f" AND t{i}_v > t{i}_k" for i in range(n))
        )
        greedy = JoinOrderSearch._greedy_tree
        mid_flight = []

        def spy(search, leaves):
            if any(isinstance(leaf, MaterializedNode) for leaf in leaves):
                mid_flight.append(len(leaves))
            return greedy(search, leaves)

        monkeypatch.setattr(JoinOrderSearch, "_greedy_tree", spy)
        static = plan_and_execute(*session(), sql, mode="optimized")
        adaptive = plan_and_execute(*session(threshold=1.0), sql, mode="adaptive")
        first = adaptive.report.adaptive.events[0]
        assert first["replanned"] and len(first["tables"]) == 1
        assert mid_flight and mid_flight[0] == n
        assert adaptive.rows == static.rows

    def test_replan_events_are_reported(self):
        ctx, catalog = star_session()
        execution = plan_and_execute(ctx, catalog, star_sql(15), mode="adaptive")
        report = execution.report.adaptive
        assert report.threshold == pytest.approx(2.0)
        for event in report.events:
            assert set(event) >= {
                "tables", "est_rows", "actual_rows", "q_error", "replanned"
            }
        # The executed plan tree renders the spliced shape.
        assert "adaptive [threshold=2 replans=" in execution.report.plan
        assert "materialized[" in execution.report.plan

    def test_forced_shape_still_adapts(self):
        """Experiment-forced trees (execute_forced_join) adapt too."""
        from repro.planner.planner import build_plan, execute_plan
        from repro.sqlparser.parser import parse

        sql = star_sql(15)
        ctx_s, cat_s = star_session()
        static_plan = build_plan(ctx_s, cat_s, parse(sql), "optimized")
        shape_label = static_plan.strategy
        del shape_label
        static = plan_and_execute(ctx_s, cat_s, sql, mode="optimized")
        ctx, catalog = star_session()
        from repro.planner.joins import AdaptiveJoinNode

        plan = build_plan(ctx, catalog, parse(sql), "adaptive")
        assert isinstance(plan.adaptive_node, AdaptiveJoinNode)
        execution = execute_plan(ctx, plan)
        assert execution.rows[0][0] == pytest.approx(static.rows[0][0])


class TestReplanEvents:
    def test_orientation_only_replan_records_two_shapes(self):
        """Flipping the root's build / probe sides keeps the join label
        (``a >< b >< c`` either way) but not the serialized shape, which
        the event records too."""
        from repro.optimizer.joinorder import JoinOrderSearch, build_join_graph
        from repro.planner.binder import bind
        from repro.planner.joins import AdaptiveJoinNode, MaterializedNode
        from repro.sqlparser.parser import parse
        from repro.storage.schema import TableSchema

        ctx, catalog = CloudContext(), Catalog()
        for name, rows in (
            ("ta", [(i, i) for i in range(8)]),
            ("tb", [(i % 8, i) for i in range(40)]),
            ("tc", [(i % 40, i) for i in range(120)]),
        ):
            load_table(ctx, catalog, name, rows,
                       TableSchema.of(f"{name}_k:int", f"{name}_v:int"))
        query = parse(
            "SELECT COUNT(*) AS n FROM ta, tb, tc"
            " WHERE ta_k = tb_k AND tb_v = tc_k"
        )
        search = JoinOrderSearch(ctx, build_join_graph(bind(query, catalog)))
        old_shape = ["hash", ["hash", "ta", "tb"], "tc"]
        new_shape = ["hash", "tc", ["hash", "ta", "tb"]]
        tree = search.build_tree(old_shape)
        flipped = search.build_tree(new_shape)

        class FlipRoot:
            def replan_remaining(self, leaves):
                return flipped

        node = AdaptiveJoinNode(tree, FlipRoot(), threshold=2.0)
        done = MaterializedNode([(i, i) for i in range(80)], ["ta_k", "ta_v"],
                                search.leaf("ta"))
        assert node._check(tree, done, est_rows=8.0) is flipped
        (event,) = node.events
        assert event["replanned"]
        assert event["old_tree"] == event["new_tree"] == "ta >< tb >< tc"
        assert event["old_shape"] == old_shape
        assert event["new_shape"] == new_shape
