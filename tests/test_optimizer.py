"""Tests for the cost model, chooser, and `auto` wiring."""

import pytest

from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import calibrate_tables
from repro.optimizer import choose, run_auto
from repro.optimizer.chooser import HYBRID_SPLIT_CANDIDATES, choose_planner_mode
from repro.planner.physical import execute_plan
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


MULTIRANGE = "indexing + multirange GET (suggestion 1)"
PARTIAL_GROUP_BY = "partial group-by pushdown (suggestion 4)"


def _tag_group_by(*aggregates):
    return GroupByQuery(
        table="filter_data", group_columns=["tag"], aggregates=list(aggregates)
    )


def _join_query(build_where):
    return JoinQuery(
        build_table="customer", probe_table="orders",
        build_key="c_custkey", probe_key="o_custkey",
        build_predicate=parse_expression(build_where),
        build_projection=["c_custkey"],
        probe_projection=["o_custkey", "o_totalprice"],
        output=[ast.SelectItem(
            ast.Aggregate("SUM", ast.Column("o_totalprice")), "total"
        )],
    )


def _candidates(ctx, catalog, query, **options):
    """Each candidate's name -> (its estimate, the priced plan to meter)."""
    choice = choose(ctx, catalog, query, **options)
    return {plan.strategy: (plan.estimate, plan) for plan in choice.plans}


class TestCostModelAccuracy:
    """Predictions must track what the strategies actually meter."""

    @pytest.mark.parametrize("matched", [5, 500])
    def test_filter_estimates_close_to_measured(self, fig1_env, matched):
        ctx, catalog = fig1_env
        candidates = _candidates(ctx, catalog, _filter_query(matched))
        assert set(candidates) == {
            "server-side filter", "s3-side filter", "s3-side indexing"
        }
        for name, (estimate, plan) in candidates.items():
            execution = execute_plan(ctx, plan)
            assert execution.strategy == name
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

    @pytest.mark.parametrize("build_where", ["c_acctbal <= -950", "c_acctbal <= 5000"])
    def test_join_estimates_close_to_measured(self, tpch_env, build_where):
        """Baseline / filtered / Bloom join, priced by the walker from the
        plans' containment and Bloom-pass estimates, against the meter."""
        ctx, catalog = tpch_env
        candidates = _candidates(ctx, catalog, _join_query(build_where))
        assert list(candidates) == ["baseline join", "filtered join", "bloom join"]
        for name, (estimate, plan) in candidates.items():
            ctx.feedback.reset()
            execution = execute_plan(ctx, plan)
            assert estimate.requests == execution.num_requests, name
            assert estimate.runtime_seconds == pytest.approx(
                execution.runtime_seconds, rel=0.15
            ), name
            assert estimate.total_cost == pytest.approx(
                execution.total_cost, rel=0.15
            ), name

    def test_estimates_are_pure(self, fig1_env):
        """Choosing must not issue storage requests (no probe asked)."""
        ctx, catalog = fig1_env
        mark = ctx.metrics.mark()
        choose(ctx, catalog, _filter_query(50), include_extensions=True)
        choose(ctx, catalog, _tag_group_by(AggSpec("sum", "p0")),
               include_extensions=True)
        choose(ctx, catalog, TopKQuery("filter_data", "p0", 10))
        assert ctx.metrics.records_since(mark) == []

    def test_indexing_skipped_without_index(self, fig1_env):
        ctx, catalog = fig1_env
        query = FilterQuery(
            table="filter_data", predicate=parse_expression("p0 < 1000")
        )
        names = [e.strategy for e in choose(ctx, catalog, query).candidates]
        assert "s3-side indexing" not in names


class TestChooser:
    def test_picks_min_predicted_cost(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose(ctx, catalog, _filter_query(50))
        best = min(choice.candidates, key=lambda e: e.total_cost)
        assert choice.picked == best.strategy
        assert choice.best is best is choice.plan.estimate

    def test_runtime_objective(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose(ctx, catalog, _filter_query(50), objective="runtime")
        best = min(choice.candidates, key=lambda e: e.runtime_seconds)
        assert choice.picked == best.strategy

    def test_unknown_objective_rejected(self, fig1_env):
        ctx, catalog = fig1_env
        with pytest.raises(PlanError, match="objective"):
            choose(ctx, catalog, _filter_query(50), objective="vibes")

    def test_dispatch_on_query_type(self, fig1_env):
        ctx, catalog = fig1_env
        assert choose(ctx, catalog, _filter_query(5)).query_kind == "filter"
        with pytest.raises(PlanError, match="cannot optimize"):
            choose(ctx, catalog, object())

    def test_probe_updates_selectivity_and_is_reported(self, fig1_env):
        ctx, catalog = fig1_env
        query = FilterQuery(
            table="filter_data", predicate=parse_expression("p0 + p1 < 1000")
        )
        cold = choose(ctx, catalog, query).best
        mark = ctx.metrics.mark()
        choice = choose(ctx, catalog, query, probe=True, probe_fraction=0.2)
        assert len(ctx.metrics.records_since(mark)) > 0
        probe = choice.summary()["probe"]
        assert probe["requests"] > 0
        # The candidates are priced at the probed selectivity, not at the
        # statistics' guess for an expression they cannot see into.
        table = catalog.get("filter_data")
        s3_side = next(
            c for c in choice.candidates if c.strategy == "s3-side filter"
        )
        width = table.stats.avg_row_bytes
        assert s3_side.bytes_returned == pytest.approx(
            probe["selectivity"] * table.num_rows * width, rel=1e-9
        )
        assert s3_side.bytes_returned != cold.bytes_returned

    def test_explain_lists_every_candidate(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose(ctx, catalog, _filter_query(50), include_extensions=True)
        report = choice.explain()
        for estimate in choice.candidates:
            assert estimate.strategy in report
        for column in ("requests", "scanned", "returned", "runtime", "cost"):
            assert column in report
        assert f"picked {choice.picked!r}" in report
        # The longest strategy name fits its column: rows stay aligned.
        assert len({len(line) for line in report.splitlines()[1:]}) == 1

    @pytest.mark.parametrize("query, options, rows", [
        (_filter_query(5), {}, 5),
        (_filter_query(5), {"include_extensions": True}, 5),
        (_tag_group_by(AggSpec("sum", "p0")), {}, None),
        (GroupByQuery("filter_data", ["key"], [AggSpec("sum", "p0")]),
         {"include_extensions": True}, 10_000),
        (TopKQuery("filter_data", "p0", 7), {}, 7),
    ], ids=["filter", "multirange", "group-by", "partial-group-by", "top-k"])
    def test_run_auto_executes_pick_and_attaches_report(
        self, fig1_env, query, options, rows
    ):
        ctx, catalog = fig1_env
        execution = run_auto(ctx, catalog, query, **options)
        summary = execution.report.optimizer
        assert execution.strategy == summary["picked"]
        assert summary["picked"] in summary["candidates"]
        for estimate in summary["candidates"].values():
            assert {"requests", "bytes_scanned", "bytes_returned",
                    "runtime_s", "cost"} <= set(estimate)
        if rows is not None:
            assert len(execution.rows) == rows

    def test_run_auto_join(self, tpch_env):
        ctx, catalog = tpch_env
        execution = run_auto(ctx, catalog, _join_query("c_acctbal <= -950"))
        assert execution.strategy == execution.report.optimizer["picked"]
        assert set(execution.report.optimizer["candidates"]) == {
            "baseline join", "filtered join", "bloom join"
        }


    def test_warm_cache_prices_a_cacheable_strategy_at_zero_requests(self):
        """A strategy plan is priced like a SQL plan: a pushed scan the
        semantic cache would answer costs no request, and none is sent."""
        from repro.strategies.filter import s3_side_filter

        ctx, catalog = CloudContext(cache_bytes=10_000_000), Catalog()
        load_table(
            ctx, catalog, "filter_data", filter_table(2_000, seed=3),
            FILTER_SCHEMA, bucket="opt",
        )
        cold = choose(ctx, catalog, _filter_query(50))
        assert cold.best.strategy == "s3-side filter" and cold.best.requests > 0
        s3_side_filter(ctx, catalog, _filter_query(50))
        execution = run_auto(ctx, catalog, _filter_query(50))
        picked = execution.report.optimizer["candidates"]["s3-side filter"]
        assert execution.strategy == "s3-side filter"
        assert picked["requests"] == execution.num_requests == 0


class TestOtherFamilies:
    def test_group_by_candidates(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose(ctx, catalog, _tag_group_by(AggSpec("sum", "p0")))
        names = {e.strategy for e in choice.candidates}
        assert {"server-side group-by", "filtered group-by",
                "s3-side group-by", "hybrid group-by"} == names

    def test_top_k_large_k_excludes_sampling(self, fig1_env):
        ctx, catalog = fig1_env
        n = catalog.get("filter_data").num_rows
        query = TopKQuery(table="filter_data", order_column="p0", k=n + 5)
        choice = choose(ctx, catalog, query)
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
        default = choose(ctx, catalog, _filter_query(50)).candidates
        assert MULTIRANGE not in {e.strategy for e in default}
        extended = choose(
            ctx, catalog, _filter_query(50), include_extensions=True
        ).candidates
        assert MULTIRANGE in {e.strategy for e in extended}

    def test_multirange_estimate_tracks_measured(self, fig1_env):
        ctx, catalog = fig1_env
        estimate, plan = _candidates(
            ctx, catalog, _filter_query(50), include_extensions=True
        )[MULTIRANGE]
        execution = execute_plan(ctx, plan)
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
        choice = choose(ctx, catalog, _filter_query(5), include_extensions=True)
        assert choice.picked == MULTIRANGE

    def test_partial_groupby_is_opt_in(self, fig1_env):
        ctx, catalog = fig1_env
        query = _tag_group_by(AggSpec("sum", "p0"), AggSpec("avg", "p1"))
        default = choose(ctx, catalog, query).candidates
        assert PARTIAL_GROUP_BY not in {e.strategy for e in default}
        extended = choose(ctx, catalog, query, include_extensions=True).candidates
        assert PARTIAL_GROUP_BY in {e.strategy for e in extended}

    def test_partial_groupby_estimate_tracks_measured(self, fig1_env):
        ctx, catalog = fig1_env
        query = _tag_group_by(AggSpec("sum", "p0"), AggSpec("avg", "p1"))
        estimate, plan = _candidates(
            ctx, catalog, query, include_extensions=True
        )[PARTIAL_GROUP_BY]
        execution = execute_plan(ctx, plan)
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

    def test_hybrid_split_point_is_swept(self, fig1_env):
        ctx, catalog = fig1_env
        choice = choose(
            ctx, catalog, _tag_group_by(AggSpec("sum", "p0")), include_hybrid=True
        )
        hybrids = [
            e for e in choice.candidates if e.strategy == "hybrid group-by"
        ]
        assert len(hybrids) == 1  # one candidate: the best split
        swept = choice.notes["split_candidates"]
        assert set(swept) == set(HYBRID_SPLIT_CANDIDATES)
        assert min(swept.values()) == pytest.approx(
            hybrids[0].total_cost, rel=1e-6
        )
        # The winner is a plan object: running it runs that split.
        choice.picked = "hybrid group-by"
        assert swept[choice.plan.root.s3_groups] == min(swept.values())


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
            summary = auto.report.optimizer
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
        execution = db.execute("SELECT COUNT(1) FROM orders", mode="auto")
        assert execution.report.optimizer is not None

    def test_explain_without_execution(self, db):
        mark = db.ctx.metrics.mark()
        report = db.explain("SELECT SUM(o_totalprice) FROM orders")
        assert "picked" in report and "baseline" in report and "optimized" in report
        assert db.ctx.metrics.records_since(mark) == []

    def test_unknown_mode_still_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT COUNT(1) FROM orders", mode="warp-speed")


def summary_mode(execution):
    return execution.report.optimizer["picked"]


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
        the metered ones — the whole query's, subquery legs included —
        and running the priced plan meters exactly what the picked fixed
        mode's plan over the same legs does."""
        from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR
        from repro.planner.binder import bind
        from repro.planner.planner import build_plan, execute_plan
        from repro.planner.subquery import prepare_query

        ctx, catalog = suite
        picks = set()
        for name in ALL_QUERIES:
            query = parse((QUERY_DIR / f"{name}.sql").read_text())
            prepared = prepare_query(ctx, catalog, bind(query, catalog), "auto")
            query = prepared.query
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
