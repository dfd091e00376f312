"""Tests for the session feedback store and the learned-estimate loop.

Covers the PR's tentpole contract: executions populate the store for
free, measurements take precedence over System-R heuristics, sessions
are isolated and resettable, the store survives concurrent use, and
probe spend drops to zero once a selectivity has been measured.
"""

import threading

import pytest

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.optimizer.feedback import (
    FeedbackStore,
    estimate_selectivity_with_feedback,
    harvest_plan,
    predicate_signature,
)
from repro.optimizer.selectivity import estimate_selectivity, probe_selectivity
from repro.planner.database import PushdownDB
from repro.sqlparser.parser import parse_expression
from repro.storage.schema import TableSchema
from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

SCHEMA = TableSchema.of("k:int", "a:int", "b:int")


def _rows(n=400):
    # a == b exactly: the adversarial correlation for the independence
    # assumption (estimate of `a < t AND b < t` is quadratically low).
    return [(i, i % 100, i % 100) for i in range(n)]


def _db(n=400, partitions=4):
    db = PushdownDB()
    db.load_table("t", _rows(n), SCHEMA, partitions=partitions)
    return db


class TestStore:
    def test_signature_normalizes_conjunct_order(self):
        p1 = parse_expression("a < 10 AND b = 3")
        p2 = parse_expression("b = 3 AND a < 10")
        assert predicate_signature(p1) == predicate_signature(p2)

    def test_signature_names_one_predicate(self):
        """The rendering drops parentheses its parser does not need, so
        the conjuncts are wrapped: one OR over an AND and an AND over an
        OR must not share a feedback record or a cache entry."""
        one = parse_expression("a < 10 OR b = 3 AND k < 5")
        two = parse_expression("(a < 10 OR b = 3) AND k < 5")
        assert predicate_signature(one) != predicate_signature(two)
        db = PushdownDB(cache_bytes=1 << 20)
        db.load_table("t", _rows(), SCHEMA, partitions=4)
        keeps = {
            "a < 10 OR b = 3 AND k < 5": lambda k, a, b: a < 10 or (b == 3 and k < 5),
            "(a < 10 OR b = 3) AND k < 5": lambda k, a, b: (a < 10 or b == 3) and k < 5,
        }
        for where, keep in keeps.items():
            got = db.execute(f"SELECT k FROM t WHERE {where}").rows
            assert sorted(got) == sorted((k,) for k, a, b in _rows() if keep(k, a, b))

    def test_measurement_overrides_system_r(self):
        store = FeedbackStore()
        predicate = parse_expression("a < 10 AND b < 10")
        db = _db()
        stats = db.table("t").stats
        cold = estimate_selectivity_with_feedback(store, "t", predicate, stats)
        assert cold == pytest.approx(estimate_selectivity(predicate, stats))
        store.record_selectivity("t", predicate, 0.1)
        assert estimate_selectivity_with_feedback(
            store, "t", predicate, stats
        ) == pytest.approx(0.1)

    def test_per_conjunct_feedback_combines(self):
        """A measured conjunct improves *similar* queries sharing it."""
        store = FeedbackStore()
        db = _db()
        stats = db.table("t").stats
        store.record_selectivity("t", parse_expression("a < 10"), 0.5)
        combined = estimate_selectivity_with_feedback(
            store, "t", parse_expression("a < 10 AND b = 3"), stats
        )
        system_r_b = estimate_selectivity(parse_expression("b = 3"), stats)
        assert combined == pytest.approx(0.5 * system_r_b)

    def test_join_feedback_roundtrip(self):
        from repro.planner.joins import HashJoinNode, tree_signature
        from repro.planner.nodes import ScanNode

        store = FeedbackStore()
        table = _db().table("t")

        def scan(where):
            predicate = parse_expression(where) if where else None
            return ScanNode(table, ["k"], predicate, pushdown=True)

        sig = tree_signature(
            HashJoinNode(scan("a < 5 AND b = 2"), scan(None), "k", "K")
        )
        assert store.lookup_join(sig) is None
        store.record_join(sig, 123.0)
        assert store.lookup_join(sig) == pytest.approx(123.0)
        # Same content, other orientation and conjunct order -> same signature.
        sig2 = tree_signature(
            HashJoinNode(scan(None), scan("b = 2 AND a < 5"), "K", "k")
        )
        assert store.lookup_join(sig2) == pytest.approx(123.0)
        # A precomputed table signature stands in for the predicate's own.
        precomputed = {"t": ("t", predicate_signature(parse_expression("a < 5")))}
        assert tree_signature(scan("b = 1"), precomputed) == (
            (("t", "(a < 5)"),), ()
        )
        # Shapes feedback does not model have no signature.
        semi = HashJoinNode(scan(None), scan(None), "k", "k", join_type="semi")
        assert tree_signature(semi) is None

    def test_reset_and_isolation(self):
        db1, db2 = _db(), _db()
        db1.execute("SELECT k FROM t WHERE a < 10")
        assert db1.feedback.summary()["selectivities"] == 1
        assert db2.feedback.summary()["selectivities"] == 0  # isolated
        db1.reset_feedback()
        assert db1.feedback.summary()["selectivities"] == 0

    def test_thread_safety_under_concurrent_sessions(self):
        """Hammer one store from many threads: a caller may share one
        session across its own threads."""
        store = FeedbackStore()
        predicate = parse_expression("a < 10")
        errors = []

        def worker(i):
            try:
                for j in range(200):
                    store.record_selectivity("t", predicate, (j % 10) / 10.0)
                    value = store.lookup_selectivity("t", predicate)
                    assert value is None or 0.0 <= value <= 1.0
                    store.record_join((("t", ""),), float(j))
                    store.lookup_join((("t", ""),))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.summary()["selectivities"] == 1

    def test_reloading_a_table_forgets_its_measurements(self):
        """Measurements die with the data they were taken on: reloading
        a table drops its selectivities and every join involving it,
        and the next probe is a real metered measurement again."""
        gen = TpchGenerator(scale_factor=0.002)
        db = PushdownDB()
        for table in ("customer", "orders"):
            db.load_table(table, gen.table(table), TABLE_SCHEMAS[table])
        db.load_table("t", _rows(), SCHEMA, partitions=4)
        db.execute(
            "SELECT c_custkey FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal < 5000"
        )
        db.execute("SELECT k FROM t WHERE a < 10")
        assert db.feedback.summary()["joins"] == 1
        # The customer scan is the (un-Bloomed) build side: harvested.
        assert db.feedback.lookup_selectivity(
            "customer", parse_expression("c_acctbal < 5000")
        ) is not None
        # Reload `customer` with different rows: its selectivity and the
        # join that touched it are gone; the untouched table's survive.
        db.load_table(
            "customer", gen.table("customer")[:50], TABLE_SCHEMAS["customer"]
        )
        assert db.feedback.lookup_selectivity(
            "customer", parse_expression("c_acctbal < 5000")
        ) is None
        assert db.feedback.summary()["joins"] == 0
        assert db.feedback.lookup_selectivity(
            "t", parse_expression("a < 10")
        ) is not None
        # A fresh probe against the reloaded table is metered again.
        mark = db.ctx.metrics.mark()
        probe_selectivity(
            db.ctx, db.table("customer"),
            parse_expression("c_acctbal < 5000"), fraction=0.5,
        )
        assert len(db.ctx.metrics.records_since(mark)) > 0


class TestHarvest:
    def test_scan_actuals_populate_store(self):
        db = _db()
        db.execute("SELECT k FROM t WHERE a < 10 AND b < 10")
        predicate = parse_expression("a < 10 AND b < 10")
        measured = db.feedback.lookup_selectivity("t", predicate)
        assert measured == pytest.approx(0.1)  # truth, not the 0.01 estimate

    def test_baseline_scans_harvest_too(self):
        db = _db()
        db.execute("SELECT k FROM t WHERE a < 10", mode="baseline")
        assert db.feedback.lookup_selectivity(
            "t", parse_expression("a < 10")
        ) == pytest.approx(0.1)

    def test_limit_cut_scans_are_not_recorded(self):
        """A streaming LIMIT stops the pull early: the observed count is
        a lower bound, not a measurement, so it must not be learned."""
        db = _db()
        db.execute("SELECT k FROM t WHERE a < 50 LIMIT 3")
        assert db.feedback.lookup_selectivity(
            "t", parse_expression("a < 50")
        ) is None

    def test_harvest_plan_returns_entry_count(self):
        db = _db()
        execution = db.execute("SELECT k FROM t WHERE a < 10")
        del execution
        store = FeedbackStore()
        # Re-harvest from a fresh execution's plan through the public hook.
        db2 = _db()
        exec2 = db2.execute("SELECT k FROM t WHERE b < 20")
        del exec2
        assert store.summary()["selectivities"] == 0
        # The planner path harvests internally; the standalone API is
        # exercised against a hand-built scan.
        from repro.planner.nodes import ScanNode

        scan = ScanNode(
            db2.table("t"), ["k"], parse_expression("b < 20"), pushdown=True
        )
        scan.actual_rows = 80
        assert harvest_plan(store, scan) == 1
        assert store.lookup_selectivity(
            "t", parse_expression("b < 20")
        ) == pytest.approx(0.2)

    def test_join_actuals_improve_next_plan(self):
        """A repeated 3-way join plans with measured cardinalities: the
        second run's est_rows matches the first run's actuals."""
        gen = TpchGenerator(scale_factor=0.002)
        db = PushdownDB()
        for table in ("customer", "orders", "lineitem"):
            db.load_table(table, gen.table(table), TABLE_SCHEMAS[table])
        sql = (
            "SELECT SUM(l_extendedprice) FROM customer, orders, lineitem"
            " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
            " AND o_orderdate < '1995-06-01'"
        )
        first = db.execute(sql)
        second = db.execute(sql)
        assert first.rows == second.rows
        actual_by_depth = {(r.node, r.depth): r for r in second.report.nodes}
        for record in actual_by_depth.values():
            if record.q_error is not None and "hash-join" in record.node:
                assert record.q_error == pytest.approx(1.0, abs=1e-3)


class TestProbeCache:
    def test_probe_pays_once_per_session(self):
        db = _db(partitions=4)
        ctx, table = db.ctx, db.table("t")
        predicate = parse_expression("a < 30")
        mark = ctx.metrics.mark()
        first = probe_selectivity(ctx, table, predicate, fraction=0.5)
        paid = len(ctx.metrics.records_since(mark))
        assert paid == 4  # one ScanRange select per partition
        mark = ctx.metrics.mark()
        second = probe_selectivity(ctx, table, predicate, fraction=0.5)
        assert len(ctx.metrics.records_since(mark)) == 0
        assert second == first

    def test_reset_feedback_forces_measurement(self):
        db = _db(partitions=4)
        ctx, table = db.ctx, db.table("t")
        predicate = parse_expression("a < 30")
        probe_selectivity(ctx, table, predicate, fraction=0.5)
        db.reset_feedback()
        mark = ctx.metrics.mark()
        probe_selectivity(ctx, table, predicate, fraction=0.5)
        assert len(ctx.metrics.records_since(mark)) == 4

    def test_execution_feedback_short_circuits_probe(self):
        """An executed scan's exact measurement also answers probes."""
        db = _db(partitions=4)
        db.execute("SELECT k FROM t WHERE a < 30")
        mark = db.ctx.metrics.mark()
        value = probe_selectivity(
            db.ctx, db.table("t"), parse_expression("a < 30"), fraction=0.5
        )
        assert len(db.ctx.metrics.records_since(mark)) == 0
        assert value == pytest.approx(0.3)
