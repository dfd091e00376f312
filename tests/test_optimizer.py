"""Tests for the cost model, chooser, and `auto` wiring."""

import pytest

from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import calibrate_tables
from repro.optimizer import (
    CostModel,
    choose,
    choose_filter_strategy,
    choose_top_k_strategy,
    explain_choice,
    run_auto,
)
from repro.optimizer.chooser import STRATEGY_RUNNERS, choose_planner_mode
from repro.planner.database import PushdownDB
from repro.sqlparser import ast
from repro.sqlparser.parser import parse, parse_expression
from repro.strategies.filter import FilterQuery
from repro.strategies.groupby import AggSpec, GroupByQuery
from repro.strategies.join import JoinQuery
from repro.strategies.topk import TopKQuery
from repro.workloads.synthetic import FILTER_SCHEMA, filter_table


@pytest.fixture(scope="module")
def fig1_env():
    """Calibrated fig01-style environment with an index on `key`."""
    ctx, catalog = CloudContext(), Catalog()
    rows = filter_table(10_000, seed=3)
    load_table(
        ctx, catalog, "filter_data", rows, FILTER_SCHEMA,
        bucket="opt", index_columns=["key"],
    )
    calibrate_tables(ctx, catalog, ["filter_data"], 10e9)
    ctx.client.range_request_weight = 60_000_000 / 10_000
    return ctx, catalog


def _filter_query(matched):
    return FilterQuery(
        table="filter_data",
        predicate=ast.Binary("<", ast.Column("key"), ast.Literal(matched)),
    )


class TestCostModelAccuracy:
    """Predictions must track what the strategies actually meter."""

    @pytest.mark.parametrize("matched", [5, 500])
    def test_filter_estimates_close_to_measured(self, fig1_env, matched):
        ctx, catalog = fig1_env
        model = CostModel(ctx, catalog)
        estimates = {e.strategy: e for e in model.estimate_filter(_filter_query(matched))}
        assert set(estimates) == {
            "server-side filter", "s3-side filter", "s3-side indexing"
        }
        for name, estimate in estimates.items():
            execution = STRATEGY_RUNNERS[name](ctx, catalog, _filter_query(matched))
            assert estimate.runtime_seconds == pytest.approx(
                execution.runtime_seconds, rel=0.1
            ), name
            assert estimate.total_cost == pytest.approx(
                execution.total_cost, rel=0.1
            ), name
            assert estimate.requests == pytest.approx(
                execution.num_requests
                if name != "s3-side indexing"
                else sum(p.requests for p in execution.phases),
                rel=0.1,
            ), name

    def test_estimates_are_pure(self, fig1_env):
        """Estimating must not issue storage requests (no probe asked)."""
        ctx, catalog = fig1_env
        mark = ctx.metrics.mark()
        CostModel(ctx, catalog).estimate_filter(_filter_query(50))
        assert ctx.metrics.records_since(mark) == []

    def test_indexing_skipped_without_index(self, fig1_env):
        ctx, catalog = fig1_env
        query = FilterQuery(
            table="filter_data", predicate=parse_expression("p0 < 1000")
        )
        names = [e.strategy for e in CostModel(ctx, catalog).estimate_filter(query)]
        assert "s3-side indexing" not in names


class TestChooser:
    def test_picks_min_predicted_cost(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose_filter_strategy(ctx, catalog, _filter_query(50))
        best = min(choice.candidates, key=lambda e: e.total_cost)
        assert choice.picked == best.strategy
        assert choice.best is best

    def test_runtime_objective(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose_filter_strategy(
            ctx, catalog, _filter_query(50), objective="runtime"
        )
        best = min(choice.candidates, key=lambda e: e.runtime_seconds)
        assert choice.picked == best.strategy

    def test_unknown_objective_rejected(self, fig1_env):
        ctx, catalog = fig1_env
        with pytest.raises(PlanError, match="objective"):
            choose_filter_strategy(ctx, catalog, _filter_query(50), objective="vibes")

    def test_dispatch_on_query_type(self, fig1_env):
        ctx, catalog = fig1_env
        assert choose(ctx, catalog, _filter_query(5)).query_kind == "filter"
        with pytest.raises(PlanError, match="cannot optimize"):
            choose(ctx, catalog, object())

    def test_probe_updates_selectivity_and_is_reported(self, fig1_env):
        ctx, catalog = fig1_env
        mark = ctx.metrics.mark()
        choice = choose_filter_strategy(
            ctx, catalog, _filter_query(100), probe=True, probe_fraction=0.2
        )
        assert len(ctx.metrics.records_since(mark)) > 0
        assert choice.summary()["probe"]["requests"] > 0

    def test_explain_lists_every_candidate(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose_filter_strategy(ctx, catalog, _filter_query(50))
        report = explain_choice(choice)
        for estimate in choice.candidates:
            assert estimate.strategy in report
        for column in ("requests", "scanned", "returned", "runtime", "cost"):
            assert column in report
        assert f"picked {choice.picked!r}" in report

    def test_run_auto_executes_pick_and_attaches_report(self, fig1_env):
        ctx, catalog = fig1_env
        execution = run_auto(ctx, catalog, _filter_query(5))
        assert execution.strategy == execution.details["optimizer"]["picked"]
        candidates = execution.details["optimizer"]["candidates"]
        assert set(candidates) >= {"server-side filter", "s3-side filter"}
        for estimate in candidates.values():
            assert {"requests", "bytes_scanned", "bytes_returned",
                    "runtime_s", "cost"} <= set(estimate)
        assert len(execution.rows) == 5


class TestOtherFamilies:
    def test_group_by_candidates(self, fig1_env):
        ctx, catalog = fig1_env
        query = GroupByQuery(
            table="filter_data", group_columns=["tag"],
            aggregates=[AggSpec("sum", "p0")],
        )
        choice = choose(ctx, catalog, query)
        names = {e.strategy for e in choice.candidates}
        assert {"server-side group-by", "filtered group-by",
                "s3-side group-by", "hybrid group-by"} == names

    def test_top_k_large_k_excludes_sampling(self, fig1_env):
        ctx, catalog = fig1_env
        n = catalog.get("filter_data").num_rows
        query = TopKQuery(table="filter_data", order_column="p0", k=n + 5)
        choice = choose_top_k_strategy(ctx, catalog, query)
        assert [e.strategy for e in choice.candidates] == ["server-side top-k"]
        assert choice.picked == "server-side top-k"

    def test_join_candidates_respect_key_type(self, tpch_env):
        ctx, catalog = tpch_env
        query = JoinQuery(
            build_table="customer", probe_table="orders",
            build_key="c_name", probe_key="o_clerk",
        )
        names = {e.strategy for e in choose(ctx, catalog, query).candidates}
        assert "bloom join" not in names  # string keys cannot Bloom


class TestExtensionCoverage:
    """ROADMAP "optimizer coverage": extension strategies + hybrid split."""

    def test_multirange_is_opt_in(self, fig1_env):
        ctx, catalog = fig1_env
        model = CostModel(ctx, catalog)
        default = {e.strategy for e in model.estimate_filter(_filter_query(50))}
        assert "multirange indexed filter" not in default
        extended = {
            e.strategy
            for e in model.estimate_filter(
                _filter_query(50), include_extensions=True
            )
        }
        assert "multirange indexed filter" in extended

    def test_multirange_estimate_tracks_measured(self, fig1_env):
        ctx, catalog = fig1_env
        model = CostModel(ctx, catalog)
        estimate = next(
            e for e in model.estimate_filter(
                _filter_query(50), include_extensions=True
            )
            if e.strategy == "multirange indexed filter"
        )
        execution = STRATEGY_RUNNERS["multirange indexed filter"](
            ctx, catalog, _filter_query(50)
        )
        assert estimate.runtime_seconds == pytest.approx(
            execution.runtime_seconds, rel=0.1
        )
        assert estimate.total_cost == pytest.approx(
            execution.total_cost, rel=0.1
        )

    def test_chooser_picks_multirange_when_offered(self, fig1_env):
        """Multi-range GETs collapse the indexing strategy's request
        flood, so once offered the extension wins the selective end."""
        ctx, catalog = fig1_env
        choice = choose_filter_strategy(
            ctx, catalog, _filter_query(5), include_extensions=True
        )
        assert choice.picked == "multirange indexed filter"
        execution = run_auto(
            ctx, catalog, _filter_query(5), include_extensions=True
        )
        assert len(execution.rows) == 5

    def test_partial_groupby_is_opt_in(self, fig1_env):
        ctx, catalog = fig1_env
        model = CostModel(ctx, catalog)
        query = GroupByQuery(
            table="filter_data", group_columns=["tag"],
            aggregates=[AggSpec("sum", "p0"), AggSpec("avg", "p1")],
        )
        default = {e.strategy for e in model.estimate_group_by(query)}
        assert "partial group-by pushdown" not in default
        extended = {
            e.strategy
            for e in model.estimate_group_by(query, include_extensions=True)
        }
        assert "partial group-by pushdown" in extended

    def test_partial_groupby_estimate_tracks_measured(self, fig1_env):
        ctx, catalog = fig1_env
        model = CostModel(ctx, catalog)
        query = GroupByQuery(
            table="filter_data", group_columns=["tag"],
            aggregates=[AggSpec("sum", "p0"), AggSpec("avg", "p1")],
        )
        estimate = next(
            e for e in model.estimate_group_by(query, include_extensions=True)
            if e.strategy == "partial group-by pushdown"
        )
        execution = STRATEGY_RUNNERS["partial group-by pushdown"](
            ctx, catalog, query
        )
        assert estimate.requests == execution.num_requests
        assert estimate.bytes_scanned == pytest.approx(
            execution.bytes_scanned, rel=0.01
        )
        assert estimate.runtime_seconds == pytest.approx(
            execution.runtime_seconds, rel=0.15
        )
        assert estimate.total_cost == pytest.approx(
            execution.total_cost, rel=0.15
        )

    def test_run_auto_executes_partial_groupby_pick(self, fig1_env):
        """When offered and predicted cheapest, the chooser's pick runs
        through `run_auto` and returns the real grouped result."""
        from repro.optimizer.chooser import choose_group_by_strategy

        ctx, catalog = fig1_env
        query = GroupByQuery(
            table="filter_data", group_columns=["key"],
            aggregates=[AggSpec("sum", "p0")],
        )
        choice = choose_group_by_strategy(
            ctx, catalog, query, include_extensions=True
        )
        assert "partial group-by pushdown" in {
            c.strategy for c in choice.candidates
        }
        execution = run_auto(ctx, catalog, query, include_extensions=True)
        assert execution.details["optimizer"]["picked"] == choice.picked
        assert len(execution.rows) == 10_000  # every key is its own group

    def test_hybrid_split_point_is_swept(self, fig1_env):
        from repro.optimizer.cost import HYBRID_SPLIT_CANDIDATES

        ctx, catalog = fig1_env
        query = GroupByQuery(
            table="filter_data", group_columns=["tag"],
            aggregates=[AggSpec("sum", "p0")],
        )
        hybrids = [
            e for e in CostModel(ctx, catalog).estimate_group_by(query)
            if e.strategy == "hybrid group-by"
        ]
        assert len(hybrids) == 1  # one candidate, best split folded in
        best = hybrids[0]
        assert best.notes["s3_groups"] in (
            *HYBRID_SPLIT_CANDIDATES, 8,
        )
        swept = best.notes["split_candidates"]
        assert len(swept) >= 3
        assert min(swept.values()) == pytest.approx(best.total_cost, rel=1e-6)


class TestPlannerAuto:
    @pytest.fixture(scope="class")
    def db(self, tpch_rows):
        from repro.workloads.tpch import TABLE_SCHEMAS

        db = PushdownDB()
        for name in ("customer", "orders", "lineitem"):
            db.load_table(name, tpch_rows[name], TABLE_SCHEMAS[name])
        db.calibrate_to_paper_scale()
        return db

    def test_auto_matches_cheaper_measured_mode(self, db):
        for sql in (
            "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_discount > 0.05",
            "SELECT * FROM orders",
            "SELECT o_orderdate, SUM(o_totalprice) FROM orders, customer"
            " WHERE o_custkey = c_custkey AND c_acctbal < 0"
            " GROUP BY o_orderdate",
        ):
            auto = db.execute(sql, mode="auto")
            summary = auto.details["optimizer"]
            measured = {
                mode: db.execute(sql, mode=mode).total_cost
                for mode in ("baseline", "optimized")
            }
            assert summary["picked"] == min(measured, key=measured.get), sql

    def test_auto_results_match_fixed_modes(self, db):
        sql = "SELECT o_orderdate, COUNT(1) FROM orders GROUP BY o_orderdate"
        from helpers import assert_rows_close

        auto = db.execute(sql, mode="auto")
        fixed = db.execute(sql, mode=summary_mode(auto))
        assert_rows_close(auto.rows, fixed.rows)

    def test_strategy_alias(self, db):
        execution = db.execute("SELECT COUNT(1) FROM orders", strategy="auto")
        assert "optimizer" in execution.details

    def test_explain_without_execution(self, db):
        mark = db.ctx.metrics.mark()
        report = db.explain("SELECT SUM(o_totalprice) FROM orders")
        assert "picked" in report and "baseline" in report and "optimized" in report
        assert db.ctx.metrics.records_since(mark) == []

    def test_unknown_mode_still_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT COUNT(1) FROM orders", mode="warp-speed")


def summary_mode(execution):
    return execution.details["optimizer"]["picked"]


class TestAutoRunsThePlanItPriced:
    """The chooser's candidates are plan objects: what it priced is what
    ``auto`` executes and what EXPLAIN renders."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.experiments.tpch_suite import load_suite_tables

        ctx, catalog = CloudContext(), Catalog()
        load_suite_tables(ctx, catalog, 0.002, seed=11).close()
        names = catalog.table_names()
        ctx.calibrate_to_paper_scale(
            sum(catalog.get(t).total_bytes for t in names), 10e9
        )
        return ctx, catalog

    def test_tpch_auto_equals_its_pick(self, suite):
        """Per TPC-H query: the picked candidate's predicted requests are
        the metered ones, and running the priced plan meters exactly what
        the picked fixed mode's plan does (pre-executed subquery legs
        excluded: they are shared, and each made its own choice)."""
        from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR
        from repro.planner.planner import build_plan, execute_plan
        from repro.planner.subquery import needs_rewrite, prepare_query

        ctx, catalog = suite
        picks = set()
        for name in ALL_QUERIES:
            query = parse((QUERY_DIR / f"{name}.sql").read_text())
            prepared = None
            if needs_rewrite(query):
                prepared = prepare_query(ctx, catalog, query, "auto")
                query = prepared.query
                if prepared.derived_rows is not None:
                    continue  # reads no storage: nothing to choose
            ctx.feedback.reset()
            choice = choose_planner_mode(ctx, catalog, query, prepared=prepared)
            auto = execute_plan(ctx, choice.plan)
            assert choice.best.requests == auto.num_requests, name
            ctx.feedback.reset()
            fixed = execute_plan(ctx, build_plan(
                ctx, catalog, query, choice.picked, prepared=prepared
            ))
            assert auto.rows == fixed.rows, name
            for metered in (
                "num_requests", "bytes_scanned", "bytes_returned",
                "bytes_transferred", "runtime_seconds",
            ):
                assert getattr(auto, metered) == getattr(fixed, metered), (
                    name, metered
                )
            picks.add(choice.picked)
        assert picks == {"baseline", "optimized"}

    def test_tpch_auto_rows_match_picked_mode_end_to_end(self, suite):
        from helpers import assert_rows_close
        from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR
        from repro.planner.planner import execute_parsed

        ctx, catalog = suite
        for name in ALL_QUERIES:
            query = parse((QUERY_DIR / f"{name}.sql").read_text())
            ctx.feedback.reset()
            auto = execute_parsed(ctx, catalog, query, "auto")
            if "optimizer" not in auto.details:
                continue  # derived-table outer query: legs chose, it did not
            ctx.feedback.reset()
            fixed = execute_parsed(ctx, catalog, query, summary_mode(auto))
            assert_rows_close(auto.rows, fixed.rows, rel=1e-6)

    @pytest.mark.parametrize("sql", [
        "SELECT o_orderkey FROM orders WHERE o_totalprice < 1000",
        "SELECT SUM(l_extendedprice) AS s FROM lineitem WHERE l_discount > 0.05",
        "SELECT COUNT(*) AS n FROM customer, orders"
        " WHERE c_custkey = o_custkey AND c_acctbal < 0",
        "SELECT COUNT(*) AS n FROM customer, orders, lineitem"
        " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
    ], ids=["scan", "pushed-aggregate", "join-2", "join-3"])
    def test_explain_is_self_consistent(self, suite, sql):
        """The picked candidate's cost *is* the rendered root's est_cost
        (same phases, same pricing), for either pick."""
        from repro.planner.planner import choose_plan

        ctx, catalog = suite
        plan, choice = choose_plan(ctx, catalog, parse(sql), "auto")
        assert plan is choice.plan and plan.mode == choice.picked
        assert plan.root.est_cost == choice.best.total_cost
        assert plan.describe().splitlines()[0].endswith(
            f"est_cost=${plan.root.est_cost:.6g})"
        )
