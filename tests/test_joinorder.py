"""Unit tests for the join-graph builder and join-order search."""

from __future__ import annotations

import pytest

from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, load_table
from repro.optimizer.chooser import choose_planner_mode
from repro.optimizer.joinorder import (
    DP_TABLE_LIMIT,
    JoinOrderSearch,
    build_join_graph,
    enumerate_left_deep_orders,
    needed_columns,
    plan_join_order,
)
from repro.planner.binder import bind
from repro.sqlparser.parser import parse
from repro.storage.schema import TableSchema


def _load(ctx, catalog, name, columns, rows, partitions=2):
    schema = TableSchema.of(*columns)
    load_table(ctx, catalog, name, rows, schema, partitions=partitions)


@pytest.fixture()
def env():
    ctx = CloudContext()
    catalog = Catalog()
    _load(ctx, catalog, "a", ["a_id:int", "a_v:int"],
          [(i, i * 2) for i in range(8)])
    _load(ctx, catalog, "b", ["b_id:int", "b_a:int", "b_v:int"],
          [(i, i % 8, i) for i in range(40)])
    _load(ctx, catalog, "c", ["c_b:int", "c_v:str"],
          [(i % 40, f"s{i}") for i in range(120)])
    return ctx, catalog


class TestJoinGraph:
    def test_chain_graph(self, env):
        _, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a_id = b_a AND b_id = c_b AND a_v > 2 AND c_v <> 'x'"
        )
        graph = build_join_graph(bind(query, catalog))
        assert graph.table_names() == ["a", "b", "c"]
        assert len(graph.edges) == 2
        assert graph.predicates["a"] is not None
        assert graph.predicates["b"] is None
        assert graph.predicates["c"] is not None
        assert graph.residual is None

    def test_duplicate_equality_becomes_residual(self, env):
        _, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b"
            " WHERE a_id = b_a AND a_v = b_v"
        )
        graph = build_join_graph(bind(query, catalog))
        assert len(graph.edges) == 1
        assert graph.residual is not None

    def test_qualified_columns_resolve(self, env):
        _, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a.a_id = b.b_a AND b.b_id = c.c_b"
        )
        graph = build_join_graph(bind(query, catalog))
        assert len(graph.edges) == 2

    def test_qualified_column_typo_fails_fast(self, env):
        """A qualifier naming a FROM table whose schema lacks the column
        must fail at graph build, not deep inside execution."""
        _, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a.b_a = b.b_a AND b_id = c_b"
        )
        with pytest.raises(PlanError, match="has no column"):
            build_join_graph(bind(query, catalog))

    def test_disconnected_graph_reports_components(self, env):
        _, catalog = env
        query = parse("SELECT COUNT(*) AS n FROM a, b, c WHERE a_id = b_a")
        graph = build_join_graph(bind(query, catalog))
        assert graph.connected_components() == [["a", "b"], ["c"]]
        assert not graph.is_connected()

    def test_small_disconnected_plans_as_cross_product(self, env):
        from repro.planner.joins import CrossProductNode

        ctx, catalog = env
        query = parse("SELECT COUNT(*) AS n FROM a, b, c WHERE a_id = b_a")
        decision = plan_join_order(ctx, catalog, query)
        assert isinstance(decision.tree, CrossProductNode)
        assert decision.method.endswith("+cross")

    def test_large_cross_product_rejected(self, env, monkeypatch):
        from repro.optimizer import joinorder

        ctx, catalog = env
        monkeypatch.setattr(joinorder, "CROSS_PRODUCT_LIMIT", 10.0)
        query = parse("SELECT COUNT(*) AS n FROM a, b, c WHERE a_id = b_a")
        with pytest.raises(PlanError, match="connect"):
            plan_join_order(ctx, catalog, query)

    def test_needed_columns_include_join_keys(self, env):
        _, catalog = env
        query = parse(
            "SELECT a_v FROM a, b, c WHERE a_id = b_a AND b_id = c_b"
        )
        graph = build_join_graph(bind(query, catalog))
        needed = needed_columns(graph)
        assert needed["a"] == ["a_id", "a_v"]
        assert needed["b"] == ["b_id", "b_a"]
        assert needed["c"] == ["c_b"]


class TestSearch:
    def test_dp_orders_are_connected(self, env):
        ctx, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a_id = b_a AND b_id = c_b"
        )
        decision = plan_join_order(ctx, catalog, query)
        assert decision.method == "dp"
        graph = decision.graph
        order = decision.order
        assert sorted(order) == ["a", "b", "c"]
        for i in range(1, len(order)):
            assert graph.edges_between(order[i], set(order[:i]))
        # Candidate table covers the top-level expansions and marks one.
        table = decision.candidate_table()
        assert any(row["picked"] for row in table)

    def test_dp_pick_is_minimal_over_all_orders(self, env):
        ctx, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a_id = b_a AND b_id = c_b AND a_v < 6"
        )
        graph = build_join_graph(bind(query, catalog))
        decision = plan_join_order(ctx, catalog, query, graph=graph)
        search = JoinOrderSearch(ctx, graph)
        exhaustive = min(
            search.price_order(order).total_cost
            for order in enumerate_left_deep_orders(graph)
        )
        assert decision.estimate.total_cost <= exhaustive * (1 + 1e-12)

    def test_enumerate_left_deep_orders_chain(self, env):
        ctx, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a_id = b_a AND b_id = c_b"
        )
        graph = build_join_graph(bind(query, catalog))
        orders = enumerate_left_deep_orders(graph)
        # b (the middle of the chain) can never be joined last.
        assert all(o[-1] != "b" for o in orders)
        assert len(orders) == 4

    def test_estimates_price_through_context(self, env):
        ctx, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, b, c"
            " WHERE a_id = b_a AND b_id = c_b"
        )
        decision = plan_join_order(ctx, catalog, query)
        assert decision.estimate.runtime_seconds > 0
        assert decision.estimate.total_cost > 0
        assert decision.estimate.bytes_scanned > 0
        baseline = choose_planner_mode(ctx, catalog, query).candidates[0]
        assert baseline.strategy == "baseline"
        assert baseline.bytes_transferred > 0

    def test_greedy_fallback_above_dp_limit(self):
        ctx = CloudContext()
        catalog = Catalog()
        n = DP_TABLE_LIMIT + 1
        names = [f"t{i}" for i in range(n)]
        for i, name in enumerate(names):
            _load(ctx, catalog, name, [f"t{i}_k:int", f"t{i}_v:int"],
                  [(j, j + i) for j in range(10 + i)], partitions=1)
        conds = " AND ".join(
            f"t{i}_k = t{i + 1}_k" for i in range(n - 1)
        )
        query = parse(f"SELECT COUNT(*) AS n FROM {', '.join(names)}"
                      f" WHERE {conds}")
        decision = plan_join_order(ctx, catalog, query)
        assert decision.method == "greedy"
        assert sorted(decision.order) == sorted(names)
        graph = decision.graph
        for i in range(1, n):
            assert graph.edges_between(
                decision.order[i], set(decision.order[:i])
            )

    def test_price_order_bloom_reduces_returned_bytes(self, env):
        ctx, catalog = env
        query = parse(
            "SELECT COUNT(*) AS n FROM a, c, b"
            " WHERE a_id = b_a AND b_id = c_b AND a_v < 4"
        )
        graph = build_join_graph(bind(query, catalog))
        search = JoinOrderSearch(ctx, graph)
        with_bloom = search.price_order(["a", "b", "c"])
        assert with_bloom.notes["order"] == ["a", "b", "c"]
        baseline = choose_planner_mode(ctx, catalog, query).candidates[0]
        assert baseline.strategy == "baseline"
        assert with_bloom.bytes_returned < baseline.bytes_transferred


class TestBushySearch:
    """The DP enumerates subset *pairs*, so bushy trees are reachable."""

    @pytest.fixture(scope="class")
    def snowflake(self):
        from repro.workloads.synthetic import (
            SNOWFLAKE_SCHEMAS,
            snowflake_tables,
        )

        from repro.experiments.harness import calibrate_tables

        ctx = CloudContext()
        catalog = Catalog()
        # Default partitioning, as in the fig13 harness: with very few
        # partitions the serial per-stream scan time dominates and the
        # returned-bytes advantage of bushy plans stops mattering.
        for name, rows in snowflake_tables(fact_rows=9000, seed=7).items():
            load_table(ctx, catalog, name, rows, SNOWFLAKE_SCHEMAS[name])
        # Paper-scale calibration: byte costs dominate the fixed
        # per-request terms, as in the fig13 harness.
        calibrate_tables(
            ctx, catalog, ["fact", "dim1", "sub1", "dim2", "sub2"], 10e9
        )
        sql = (
            "SELECT SUM(f_v) AS total FROM fact, dim1, sub1, dim2, sub2"
            " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND f_d2 = d2_id"
            " AND d2_s2 = s2_id AND s1_attr < 10 AND s2_attr < 10"
        )
        return ctx, catalog, parse(sql)

    def test_dp_picks_a_bushy_tree_on_snowflakes(self, snowflake):
        from repro.planner.joins import is_left_deep, join_tree_label

        ctx, catalog, query = snowflake
        decision = plan_join_order(ctx, catalog, query)
        assert not is_left_deep(decision.tree)
        assert "><" in join_tree_label(decision.tree)

    def test_bushy_estimate_beats_every_left_deep_order(self, snowflake):
        ctx, catalog, query = snowflake
        graph = build_join_graph(bind(query, catalog))
        decision = plan_join_order(ctx, catalog, query, graph=graph)
        search = JoinOrderSearch(ctx, graph)
        best_left_deep = min(
            search.price_order(order).total_cost
            for order in enumerate_left_deep_orders(graph)
        )
        assert decision.estimate.total_cost < best_left_deep

    def test_search_never_mutates_a_memoized_subtree(self, snowflake):
        """combine copies nothing: a Bloom goes on a fresh probe scan, so
        one search prices an order the same before a search, after it
        and again, and every DP candidate prices as its fresh rebuild."""
        ctx, catalog, query = snowflake
        graph = build_join_graph(bind(query, catalog))
        search = JoinOrderSearch(ctx, graph)
        orders = enumerate_left_deep_orders(graph)
        before = [search.price_order(order) for order in orders]
        decision = search.search()
        assert [search.price_order(order) for order in orders] == before
        assert [search.price_order(order) for order in orders] == before
        assert len(decision.candidates) > 1
        for candidate in decision.candidates:
            rebuilt = search.build_tree(candidate.notes["tree"])
            assert search.price_tree(rebuilt) == candidate
        assert search.search().estimate == decision.estimate

    def test_inner_probe_scans_carry_bloom_estimates(self, snowflake):
        """price/execution symmetry: probe-side leaf scans below the
        root join are Bloom-annotated when the build key is an int."""
        from repro.planner.joins import HashJoinNode
        from repro.planner.nodes import ScanNode

        ctx, catalog, query = snowflake
        decision = plan_join_order(ctx, catalog, query)
        bloomed = []

        def walk(node):
            if isinstance(node, HashJoinNode):
                if isinstance(node.probe, ScanNode) and node.bloom:
                    bloomed.append(node.probe.table.name)
                walk(node.build)
                walk(node.probe)

        walk(decision.tree)
        assert len(bloomed) >= 2  # both dims (and the fact) get one


class TestZoneMapsOncePerSearch:
    """A search refutes each pushdown table's zone maps once, and every
    leaf it builds carries what a freshly built scan would."""

    @pytest.fixture()
    def sorted_star(self):
        ctx, catalog = CloudContext(), Catalog()
        _load(ctx, catalog, "fact", ["f_d1:int", "f_d2:int", "f_v:int"],
              [(i % 40, (i * 7) % 40, i) for i in range(400)], partitions=4)
        _load(ctx, catalog, "dim1", ["d1_id:int", "d1_attr:int"],
              [(i, i) for i in range(40)], partitions=4)
        _load(ctx, catalog, "dim2", ["d2_id:int", "d2_attr:int"],
              [(i, i) for i in range(40)], partitions=4)
        _load(ctx, catalog, "dim3", ["d3_id:int", "d3_f:int"],
              [(i, i % 40) for i in range(40)], partitions=2)
        query = parse(
            "SELECT SUM(f_v) AS total FROM fact, dim1, dim2, dim3"
            " WHERE f_d1 = d1_id AND f_d2 = d2_id AND d3_f = f_d1"
            " AND d1_attr < 10 AND d2_attr >= 30 AND f_v < 100"
        )
        return ctx, catalog, query

    def test_keep_partitions_runs_once_per_table(self, sorted_star, monkeypatch):
        from collections import Counter

        from repro.optimizer import pruning
        from repro.planner.joins import HashJoinNode
        from repro.planner.nodes import ScanNode

        ctx, catalog, query = sorted_star
        graph = build_join_graph(bind(query, catalog))
        calls: Counter = Counter()
        keep_partitions = pruning.keep_partitions

        def counting(table, predicate):
            calls[table.name] += 1
            return keep_partitions(table, predicate)

        monkeypatch.setattr(pruning, "keep_partitions", counting)
        search = JoinOrderSearch(ctx, graph)
        trees = []
        phases = search.costs.phases

        def recording(tree):
            trees.append(tree)
            return phases(tree)

        # Every candidate tree the search prices enters its cost walk here.
        monkeypatch.setattr(search.costs, "phases", recording)
        decision = search.search()
        assert len(decision.candidates) > 1
        assert {"fact", "dim1", "dim2"} <= set(calls)
        assert max(calls.values()) == 1

        monkeypatch.setattr(pruning, "keep_partitions", keep_partitions)
        pruned = set()

        def leaves(node):
            if isinstance(node, ScanNode):
                yield node
            elif isinstance(node, HashJoinNode):
                yield from leaves(node.build)
                yield from leaves(node.probe)

        for tree in trees:
            for leaf in leaves(tree):
                fresh = ScanNode(leaf.table, leaf.columns, leaf.predicate, True)
                assert leaf.keep_partitions == fresh.keep_partitions
                if leaf.keep_partitions is not None:
                    pruned.add(leaf.table.name)
        # The data is sorted so the zone maps really refute partitions.
        assert pruned == {"fact", "dim1", "dim2"}

    def test_pruning_off_keeps_every_partition(self, sorted_star):
        ctx, catalog, query = sorted_star
        ctx.prune_partitions = False
        search = JoinOrderSearch(ctx, build_join_graph(bind(query, catalog)))
        assert search.leaf("dim1").keep_partitions is None
        ctx.prune_partitions = True
        assert search.leaf("dim1").keep_partitions == [0]
        assert search.leaf("dim1", pushdown=False).keep_partitions is None


class TestOneTable:
    """A one-table query is the join builder's one-leaf tree: its table
    owns every conjunct, and there is no order to search."""

    MODES = ("baseline", "optimized", "auto", "adaptive")

    @pytest.fixture()
    def one(self):
        import sqlite3

        ctx, catalog = CloudContext(), Catalog()
        tables = {
            "t": (["a:int", "b:int"], [(i, i % 7) for i in range(40)], 4),
            "u": (["c:int", "d:int"], [(i % 10, i) for i in range(20)], 2),
        }
        oracle = sqlite3.connect(":memory:")
        for name, (columns, rows, partitions) in tables.items():
            _load(ctx, catalog, name, columns, rows, partitions=partitions)
            oracle.execute(
                f"CREATE TABLE {name} ({', '.join(c.split(':')[0] for c in columns)})"
            )
            oracle.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", rows
            )
        yield ctx, catalog, oracle
        oracle.close()

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE 1 = 0 AND a < 5",
        "SELECT a FROM t WHERE EXISTS (SELECT c FROM u WHERE d > 15) AND a < 5",
    ])
    def test_column_free_conjuncts_stay_on_the_table(self, one, sql):
        from repro.planner.nodes import FilterNode
        from repro.planner.physical import walk_plan
        from repro.planner.planner import execute_parsed, plan_parsed
        from repro.planner.subquery import prepare_query
        from repro.sqlparser import ast

        ctx, catalog, oracle = one
        query = parse(sql)
        query = prepare_query(ctx, catalog, bind(query, catalog), "optimized").query
        graph = build_join_graph(bind(query, catalog))
        assert ast.split_conjuncts(graph.predicates["t"]) == (
            ast.split_conjuncts(query.where)
        )
        assert len(ast.split_conjuncts(query.where)) == 2
        assert graph.residual is None

        expected = sorted(oracle.execute(sql).fetchall())
        for mode in self.MODES:
            plan, _ = plan_parsed(ctx, catalog, parse(sql), mode)
            assert not any(
                isinstance(node, FilterNode) for node, _ in walk_plan(plan.root)
            ), (mode, plan.describe())
            got = execute_parsed(ctx, catalog, parse(sql), mode).rows
            assert sorted(got) == expected, mode

    @pytest.mark.parametrize("mode", MODES)
    def test_one_table_costs_no_search(self, one, mode, monkeypatch):
        from collections import Counter

        from repro.optimizer import pruning
        from repro.planner.planner import plan_parsed

        ctx, catalog, _ = one

        def no_search(self, objective="cost"):
            raise AssertionError("a one-table query ran the join-order search")

        calls: Counter = Counter()
        keep_partitions = pruning.keep_partitions

        def counting(table, predicate):
            calls[table.name] += 1
            return keep_partitions(table, predicate)

        monkeypatch.setattr(JoinOrderSearch, "search", no_search)
        monkeypatch.setattr(pruning, "keep_partitions", counting)
        for sql in (
            "SELECT a, b FROM t WHERE a < 10",
            "SELECT SUM(b) AS s, COUNT(*) AS n FROM t WHERE a >= 30",
            "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d < 5)",
        ):
            calls.clear()
            plan, choice = plan_parsed(ctx, catalog, parse(sql), mode)
            if mode == "baseline":
                assert not calls, sql
            else:
                assert max(calls.values(), default=0) <= 1, (sql, calls)
            assert plan.join_decision is None
            assert (choice is not None) == (mode == "auto")
            if choice is not None:
                assert "join_orders" not in choice.summary()
