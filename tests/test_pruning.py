"""Zone-map partition pruning: refutation unit tests + on/off differentials.

The refutation engine's contract is one-sided: it may keep a partition
it could have skipped, but it must never skip a partition holding a row
the predicate matches.  The unit tests pin the three-valued edge cases
(all-NULL partitions, IS NULL, OR, missing zone-map columns); the
differential tests execute the same SQL with pruning forced on and off
and require identical rows with no more requests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.optimizer.chooser import choose_planner_mode
from repro.optimizer.pruning import keep_partitions, partition_may_match
from repro.optimizer.stats import ColumnZone, PartitionZoneMap
from repro.planner.database import PushdownDB
from repro.sqlparser import ast
from repro.sqlparser.parser import parse
from repro.storage.schema import TableSchema

SCHEMA = TableSchema.of("k:int", "v:float", "tag:str")


def make_rows() -> list[tuple]:
    """80 rows clustered by ``k`` plus a trailing all-NULL-``k`` block.

    With partitions=4 the contiguous 32-row slices are: k in [0,31],
    k in [32,63], k in [64,79] mixed with the first NULLs, and an
    all-NULL tail — every edge case the refutation engine must handle.
    """
    rows = [
        (k, float(k) / 2 if k % 10 else None, f"row-{k:04d}")
        for k in range(80)
    ]
    rows += [(None, None, f"null-{i}") for i in range(48)]
    return rows


@pytest.fixture(scope="module")
def db() -> PushdownDB:
    database = PushdownDB(bucket="prune-test")
    database.load_table("t", make_rows(), SCHEMA, partitions=4)
    return database


def zone(lo, hi, nulls=0) -> PartitionZoneMap:
    return PartitionZoneMap(
        row_count=10, columns={"k": ColumnZone(lo, hi, nulls)}
    )


def pred(text: str) -> ast.Expr:
    return parse(f"SELECT * FROM t WHERE {text}").where


class TestZoneMapCollection:
    def test_load_table_attaches_zone_maps(self, db):
        table = db.table("t")
        assert len(table.zone_maps) == table.partitions
        assert len(table.partition_bytes) == table.partitions
        assert sum(table.partition_bytes) == table.total_bytes
        first = table.zone_maps[0].column("k")
        assert (first.min_value, first.max_value) == (0, 31)
        mixed = table.zone_maps[2].column("k")
        assert (mixed.min_value, mixed.max_value, mixed.null_count) == (64, 79, 16)
        assert table.zone_maps[3].column("k").min_value is None  # all NULL


class TestRefutation:
    def test_range_prunes_disjoint_partitions(self, db):
        table = db.table("t")
        assert keep_partitions(table, pred("k < 20")) == [0]
        assert keep_partitions(table, pred("k >= 40")) == [1, 2]
        assert keep_partitions(table, pred("k BETWEEN 34 AND 40")) == [1]
        assert keep_partitions(table, pred("k IN (2, 70)")) == [0, 2]

    def test_all_refuted_keeps_one_partition(self, db):
        assert keep_partitions(db.table("t"), pred("k < 0")) == [0]

    def test_unprunable_predicates_return_none(self, db):
        table = db.table("t")
        assert keep_partitions(table, None) is None
        assert keep_partitions(table, pred("k >= 0 OR k IS NULL")) is None
        assert keep_partitions(table, pred("v + 1.0 > 0.0")) is None
        assert keep_partitions(table, pred("tag LIKE 'row-%'")) is None

    def test_is_null_must_not_prune_nullable_partitions(self, db):
        table = db.table("t")
        # v carries NULLs in every partition; k only in the last two
        # (partition 2 mixed, partition 3 entirely NULL).
        assert keep_partitions(table, pred("v IS NULL")) is None
        assert keep_partitions(table, pred("k IS NULL")) == [2, 3]
        assert keep_partitions(table, pred("k IS NOT NULL")) == [0, 1, 2]

    def test_or_keeps_partitions_either_branch_allows(self, db):
        table = db.table("t")
        assert keep_partitions(
            table, pred("k < 20 OR k IS NULL")
        ) == [0, 2, 3]
        assert keep_partitions(table, pred("k < 20 OR k > 70")) == [0, 2]

    def test_all_null_partition_refutes_comparisons(self, db):
        # The trailing all-NULL partition: every comparison is NULL
        # there, so even a whole-domain range predicate skips it...
        assert keep_partitions(
            db.table("t"), pred("k >= 0")
        ) == [0, 1, 2]
        # ...and so does its negation (NOT NULL is still NULL).
        assert keep_partitions(
            db.table("t"), pred("NOT (k >= 0)")
        ) == [0]

    def test_not_like_refuted_only_on_all_null_columns(self):
        all_null = PartitionZoneMap(
            row_count=4, columns={"tag": ColumnZone(None, None, 4)}
        )
        some = PartitionZoneMap(
            row_count=4, columns={"tag": ColumnZone("a", "z", 0)}
        )
        p = pred("tag NOT LIKE 'x%'")
        assert not partition_may_match(p, all_null)
        assert partition_may_match(p, some)

    def test_column_absent_from_zone_map_never_prunes(self):
        incomplete = PartitionZoneMap(
            row_count=10, columns={"k": ColumnZone(0, 9, 0)}
        )
        assert partition_may_match(pred("v > 1e9"), incomplete)
        assert partition_may_match(pred("k < 5 OR v > 1e9"), incomplete)
        # but the conjunct on the mapped column still refutes
        assert not partition_may_match(pred("k > 50 AND v > 1e9"), incomplete)

    def test_empty_partition_always_prunes(self):
        empty = PartitionZoneMap(row_count=0, columns={})
        assert not partition_may_match(pred("k IS NULL"), empty)
        assert not partition_may_match(pred("tag LIKE 'x%'"), empty)

    def test_incomparable_literal_never_prunes(self):
        assert partition_may_match(pred("k = 'oops'"), zone(0, 9))

    def test_null_literal_comparison_refutes(self):
        assert not partition_may_match(pred("k = NULL"), zone(0, 9))

    def test_zone_map_desync_disables_pruning(self, db):
        table = db.table("t")
        broken = replace(table, name="b", zone_maps=table.zone_maps[:2])
        assert keep_partitions(broken, pred("k < 5")) is None


DIFFERENTIAL_QUERIES = (
    "SELECT k, v FROM t WHERE k < 20",
    "SELECT k, v FROM t WHERE k >= 70",
    "SELECT k FROM t WHERE k BETWEEN 30 AND 40",
    "SELECT k FROM t WHERE k IN (2, 50, 78)",
    "SELECT k FROM t WHERE NOT (k < 50)",
    "SELECT k, tag FROM t WHERE k IS NULL",
    "SELECT k FROM t WHERE k < 10 OR v IS NULL",
    "SELECT k FROM t WHERE k < 0",
    "SELECT tag FROM t WHERE tag LIKE 'row-000%'",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k < 20",
    "SELECT SUM(v) AS s FROM t WHERE k > 1000",
    "SELECT k, COUNT(*) AS n FROM t WHERE k < 40 GROUP BY k ORDER BY k",
)


def _normalized(rows) -> list:
    return sorted(
        tuple((v is None, str(type(v)), v) for v in row) for row in rows
    )


class TestPruningDifferential:
    """Pruning on vs off: identical rows, never more requests."""

    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("mode", ("optimized", "auto"))
    def test_rows_identical_and_requests_bounded(self, db, sql, mode):
        db.ctx.prune_partitions = True
        pruned = db.execute(sql, mode=mode)
        db.ctx.prune_partitions = False
        unpruned = db.execute(sql, mode=mode)
        db.ctx.prune_partitions = True
        assert _normalized(pruned.rows) == _normalized(unpruned.rows)
        assert pruned.num_requests <= unpruned.num_requests

    def test_selective_scan_actually_saves_requests(self, db):
        db.ctx.prune_partitions = True
        pruned = db.execute("SELECT k FROM t WHERE k < 20")
        db.ctx.prune_partitions = False
        unpruned = db.execute("SELECT k FROM t WHERE k < 20")
        db.ctx.prune_partitions = True
        assert pruned.num_requests == 1
        assert unpruned.num_requests == db.table("t").partitions

    @pytest.mark.parametrize("sql", (
        "SELECT k FROM t WHERE k < 20",
        "SELECT SUM(v) AS s FROM t WHERE k < 20",
    ), ids=["scan", "pushed-aggregate"])
    def test_pruning_is_decided_when_the_plan_is_built(self, db, sql):
        """A plan built with pruning on requests exactly what it was
        priced at, even if the context's switch flips before it runs."""
        from repro.planner.planner import build_plan, execute_plan

        db.ctx.prune_partitions = True
        plan = build_plan(db.ctx, db.catalog, parse(sql), "optimized")
        db.ctx.prune_partitions = False
        try:
            execution = execute_plan(db.ctx, plan)
        finally:
            db.ctx.prune_partitions = True
        assert plan.estimate.requests == 1
        assert execution.num_requests == plan.estimate.requests

    def test_join_scans_prune(self, db):
        sql = (
            "SELECT COUNT(*) AS n FROM t, t2"
            " WHERE k = k2 AND k < 20 AND k2 < 20"
        )
        db.load_table(
            "t2", [(k, f"pad-{k}") for k in range(80)],
            TableSchema.of("k2:int", "pad:str"), partitions=4,
        )
        db.ctx.prune_partitions = True
        pruned = db.execute(sql)
        db.ctx.prune_partitions = False
        unpruned = db.execute(sql)
        db.ctx.prune_partitions = True
        assert pruned.rows == unpruned.rows
        assert pruned.num_requests < unpruned.num_requests


class TestExplainAndCost:
    def test_explain_reports_pruned_partitions(self, db):
        report = db.explain("SELECT k FROM t WHERE k < 20")
        assert "partitions pruned: 3/4" in report

    def test_explain_omits_annotation_when_nothing_pruned(self, db):
        report = db.explain("SELECT k FROM t WHERE v IS NULL")
        assert "partitions pruned" not in report

    def test_chooser_predicts_pruned_requests(self, db):
        query = parse("SELECT k FROM t WHERE k < 20")
        choice = choose_planner_mode(db.ctx, db.catalog, query)
        baseline, optimized = choice.candidates
        assert (baseline.strategy, optimized.strategy) == (
            "baseline", "optimized"
        )
        assert optimized.requests == 1
        assert baseline.requests == db.table("t").partitions

    def test_pushed_aggregate_prediction_prunes(self, db):
        query = parse("SELECT SUM(v) AS s FROM t WHERE k < 20")
        choice = choose_planner_mode(db.ctx, db.catalog, query)
        assert choice.picked == "optimized"
        assert choice.plan.strategy == "optimized single-table"
        assert choice.plan.root.pruned_partitions == 3
        assert choice.best.requests == 1

    @pytest.mark.parametrize("sql, warm_up", [
        ("SELECT k FROM t WHERE k < 20", None),
        ("SELECT SUM(v) AS s FROM t WHERE k < 20", None),
        # One prunable side (16 partitions -> 1) beside a small dimension.
        ("SELECT COUNT(*) AS n FROM d, wide WHERE dk = wk AND wk < 2000",
         None),
        ("SELECT COUNT(*) AS n FROM d, wide, t"
         " WHERE dk = wk AND wk = k AND wk < 2000", None),
        # The warm-up run caches the build scan of the join below.
        ("SELECT COUNT(*) AS n FROM d, wide WHERE dk = wk AND wk < 2000",
         "SELECT dk FROM d"),
    ], ids=["scan", "pushed-aggregate", "join-2", "join-3", "join-2-warm"])
    def test_predicted_requests_match_measured(self, sql, warm_up):
        """``auto`` runs the plan it priced: the picked candidate's
        predicted request count is the metered one — zone-map pruning
        and a warm semantic cache included — and on the joins, whose
        cardinalities the statistics get right, so is its cost."""
        db = PushdownDB(bucket="prune-predict", cache_bytes=1 << 20)
        db.load_table("t", make_rows(), SCHEMA, partitions=4)
        db.load_table(
            "wide", [(k, f"pad-{k:05d}") for k in range(32_000)],
            TableSchema.of("wk:int", "wpad:str"), partitions=16,
        )
        db.load_table(
            "d", [(k, k % 7) for k in range(0, 4000, 2)],
            TableSchema.of("dk:int", "dv:int"), partitions=2,
        )
        db.calibrate_to_paper_scale()
        if warm_up is not None:
            db.execute(warm_up, mode="optimized")
        execution = db.execute(sql, mode="auto")
        optimizer = execution.report.optimizer
        picked = optimizer["candidates"][optimizer["picked"]]
        assert picked["requests"] == execution.num_requests
        if warm_up is not None:
            assert execution.report.cache.hit == 1
        if "wide" in sql:
            assert optimizer["picked"] == "optimized"
            assert picked["cost"] == pytest.approx(
                execution.cost.total, rel=0.01
            )
