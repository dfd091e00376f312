"""Tests for the command-line interface and the explain report."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_tables_command(self, capsys):
        assert main(["tables", "--scale-factor", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "customer" in out

    def test_query_command_optimized(self, capsys):
        code = main([
            "query",
            "SELECT COUNT(*) AS n FROM customer",
            "--scale-factor", "0.001",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimized" in out
        assert "(150,)" in out

    def test_query_command_compare(self, capsys):
        code = main([
            "query",
            "SELECT SUM(l_quantity) AS q FROM lineitem WHERE l_quantity < 3",
            "--scale-factor", "0.001",
            "--compare",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- baseline ---" in out
        assert "--- optimized ---" in out

    def test_query_command_strategy_auto(self, capsys):
        code = main([
            "query",
            "SELECT SUM(o_totalprice) AS total FROM orders",
            "--scale-factor", "0.001",
            "--strategy", "auto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer:" in out
        assert "picked" in out
        # The EXPLAIN block lists both candidate plans with estimates.
        assert "baseline" in out
        assert "optimized" in out
        for column in ("requests", "scanned", "returned", "runtime", "cost"):
            assert column in out

    def test_experiment_unknown_name_fails(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_experiment_help_derives_from_registry(self, capsys):
        """The valid-names help text can never go stale: it is rendered
        from the experiment registry itself."""
        from repro.experiments import ALL_EXPERIMENTS

        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        help_text = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in help_text
        assert "fig14" in help_text

    def test_explain_command(self, capsys):
        code = main([
            "explain",
            "SELECT SUM(l_extendedprice) AS s FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " AND c_acctbal > 100",
            "--scale-factor", "0.001",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer:" in out
        assert "join-order search" in out
        assert "physical plan" in out
        assert "hash-join" in out

    def test_query_command_strategy_adaptive(self, capsys):
        code = main([
            "query",
            "SELECT COUNT(*) AS n FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey",
            "--scale-factor", "0.001",
            "--strategy", "adaptive",
            "--adaptive-threshold", "3.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive multi-join" in out
        assert "adaptive: threshold=3.5 replans=" in out

    def test_query_command_adaptive_with_cache_renders_no_raw_dict(self, capsys):
        """The adaptive events render as a table and the cache counters as
        one line."""
        sql = (
            "SELECT c_name, o_orderdate, l_quantity FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " AND c_acctbal < 100"
        )
        code = main([
            "query", sql, "--scale-factor", "0.001", "--strategy", "adaptive",
            "--cache-bytes", "100000000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "details:" not in out and "{'" not in out
        lines = out.splitlines()
        at = lines.index("  adaptive: threshold=2 replans=0")
        assert lines[at + 1].split() == [
            "materialized", "est", "rows", "actual", "q-error", "outcome"
        ]
        assert lines[at + 2].split()[0] == "customer"
        assert lines[at + 2].endswith("  kept")
        assert lines[at + 3].split()[0] == "customer+orders"
        (cache,) = [line for line in lines if line.startswith("  cache:")]
        assert cache == (
            "  cache: hit=0 subsumed=0 miss=1 stores=1 (session: hits=0"
            " subsumed=0 misses=1 stores=1 evictions=0 invalidations=0)"
        )

    def test_query_command_auto_leaves_the_report_as_it_ran(self, capsys, monkeypatch):
        """The CLI renders the optimizer's table from ``report.optimizer``
        and mutates no execution."""
        from repro.planner.database import PushdownDB

        executions = []
        execute = PushdownDB.execute

        def spy(self, *args, **kwargs):
            executions.append(execute(self, *args, **kwargs))
            return executions[-1]

        monkeypatch.setattr(PushdownDB, "execute", spy)
        assert main([
            "query", "SELECT SUM(o_totalprice) AS total FROM orders",
            "--scale-factor", "0.001", "--strategy", "auto",
        ]) == 0
        out = capsys.readouterr().out
        (execution,) = executions
        picked = execution.report.optimizer["picked"]
        assert out.count(f"optimizer: sql query, objective=cost, picked {picked!r}") == 1
        assert "{'" not in out

    def test_adaptive_threshold_below_one_rejected(self, capsys):
        """A Q-error bound below 1.0 is meaningless (observed/estimated
        ratios are folded to >= 1); the CLI must refuse it at parse
        time, matching CloudContext's constructor validation."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "query", "SELECT COUNT(*) AS n FROM customer",
                "--adaptive-threshold", "0.5",
            ])
        assert "must be >= 1.0" in capsys.readouterr().err

    def test_adaptive_threshold_boundary_accepted(self):
        args = build_parser().parse_args([
            "query", "SELECT COUNT(*) AS n FROM customer",
            "--adaptive-threshold", "1.0",
        ])
        assert args.adaptive_threshold == 1.0

    @staticmethod
    def _stub_registry(monkeypatch, result):
        """Swap the experiment registry for one stub returning ``result``
        (or raising it, when it is an exception)."""
        import repro.experiments as exp_pkg

        def run():
            if isinstance(result, Exception):
                raise result
            return result

        class StubRegistry(dict):
            def __getitem__(self, name):
                return run

            def __contains__(self, name):
                return name == "stub"

            def __iter__(self):
                return iter(["stub"])

        monkeypatch.setattr(exp_pkg, "ALL_EXPERIMENTS", StubRegistry())

    def test_experiment_json_artifact(self, capsys, tmp_path, monkeypatch):
        """``experiment --json`` writes the per-query rows and notes CI
        uploads; a full-match differential run exits 0."""
        import json

        from repro.experiments.harness import ExperimentResult

        self._stub_registry(monkeypatch, ExperimentResult(
            experiment="tpch", title="stub suite",
            rows=[{"query": "q01", "strategy": "auto", "match": "yes"}],
            notes={"matched": "1/1"},
        ))
        path = tmp_path / "tpch.json"
        assert main(["experiment", "stub", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["stub"]["rows"][0]["match"] == "yes"
        assert data["stub"]["notes"]["matched"] == "1/1"

    def test_experiment_matched_shortfall_fails(self, capsys, monkeypatch):
        """A claim the result does not meet fails the CLI run — CI sees
        exit 1 and the figure, the claim's text and what was observed."""
        from repro.experiments.harness import Claim, ExperimentResult

        self._stub_registry(monkeypatch, ExperimentResult(
            experiment="tpch", title="stub suite",
            rows=[{"query": "q01", "strategy": "auto", "match": "MISMATCH"}],
            claims=(Claim("tpch", "Every query returns sqlite3's rows",
                          lambda r: [row["query"] for row in r.rows
                                     if row["match"] != "yes"], lambda bad: not bad),),
        ))
        assert main(["experiment", "stub"]) == 1
        out = capsys.readouterr().out
        assert "stub: 0/1 claims hold" in out
        assert "tpch: Every query returns sqlite3's rows — observed ['q01']" in out

    def test_experiment_disagreeing_rows_fail(self, capsys, monkeypatch):
        from repro.experiments.harness import Disagreement

        self._stub_registry(monkeypatch, Disagreement("fig9 k=3 sampling: rows disagree"))
        assert main(["experiment", "stub"]) == 1
        assert "fig9 k=3 sampling: rows disagree" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        *(pytest.param([command, "SELECT 1", "--workers", "2"], id=command)
          for command in ("query", "explain", "experiment")),
        pytest.param(["query", "SELECT 1", "--mode", "auto"], id="query-mode"),
        pytest.param(["explain", "SELECT 1", "--batch-size", "64"],
                     id="explain-batch-size"),
        pytest.param(["explain", "SELECT 1", "--cache-bytes", "1"],
                     id="explain-cache-bytes"),
    ])
    def test_workers_is_a_usage_error(self, argv, capsys):
        """The engine is serial: no subcommand takes ``--workers``.  Nor
        does ``query`` take ``--mode`` (``--strategy`` names the plan),
        nor ``explain`` the knobs that change nothing when planning."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in err

    def test_experiment_takes_no_batch_size(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiment", "fig1", "--batch-size", "64"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExplain:
    def test_explain_contains_phases_and_cost(self):
        from repro import PushdownDB
        from repro.workloads.tpch import CUSTOMER_SCHEMA, TpchGenerator

        db = PushdownDB()
        gen = TpchGenerator(scale_factor=0.001)
        db.load_table("customer", gen.customer(), CUSTOMER_SCHEMA)
        execution = db.execute("SELECT COUNT(*) AS n FROM customer")
        report = execution.explain(db.ctx.perf)
        assert "strategy:" in report
        assert "phase" in report
        assert "cost" in report
        assert "1 row(s)" in report

    def test_explain_without_perf(self):
        from repro import PushdownDB
        from repro.workloads.tpch import CUSTOMER_SCHEMA, TpchGenerator

        db = PushdownDB()
        gen = TpchGenerator(scale_factor=0.001)
        db.load_table("customer", gen.customer(), CUSTOMER_SCHEMA)
        execution = db.execute("SELECT c_custkey FROM customer LIMIT 3")
        report = execution.explain()
        assert "3 row(s)" in report
