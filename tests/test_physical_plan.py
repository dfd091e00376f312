"""Physical-plan IR tests: golden EXPLAIN snapshots + bushy differentials.

The golden strings pin the rendered operator trees (shape, pushdown
annotations, Bloom placement, per-node est_rows/est_cost) for every plan
family: single-table, pushed aggregate, pairwise, left-deep, bushy,
cross-product.  A shape or annotation regression shows up as a readable
diff.  The differential tests assert that bushy trees, forced left-deep
orders and the auto planner all produce identical row sets on
snowflake-shaped queries, and that executions record per-node
estimate-vs-actual cardinalities.
"""

from __future__ import annotations

import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from helpers import calls_by_name

from repro.cloud.context import CloudContext
from repro.engine.batch import Batch
from repro.engine.catalog import Catalog, load_table
from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
from repro.planner import physical
from repro.planner.database import PushdownDB
from repro.planner.joins import (
    HashJoinNode,
    is_left_deep,
    join_leaf_order,
    join_tree_label,
    serialize_shape,
)
from repro.planner.nodes import (
    LimitNode,
    PlanNode,
    PushedAggregateNode,
    ScanNode,
    whole_table_select,
)
from repro.planner.planner import (
    build_plan,
    execute_parsed,
    execute_forced_join,
    plan_and_execute,
    plan_parsed,
)
from repro.planner.report import render_execution_report
from repro.sqlparser.parser import parse
from repro.storage.schema import TableSchema
from repro.workloads.synthetic import (
    CORRELATED_STAR_SCHEMAS,
    SNOWFLAKE_SCHEMAS,
    correlated_star_tables,
    snowflake_tables,
)

SNOWFLAKE_SQL = (
    "SELECT SUM(f_v) AS total FROM fact, dim1, sub1, dim2, sub2"
    " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND f_d2 = d2_id"
    " AND d2_s2 = s2_id AND s1_attr < 10 AND s2_attr < 10"
)

BUSHY_SHAPE = [
    "hash",
    ["hash", "sub1", "dim1"],
    ["hash", ["hash", "sub2", "dim2"], "fact"],
]


@pytest.fixture(scope="module")
def db():
    database = PushdownDB()
    tables = snowflake_tables(fact_rows=800, seed=3)
    for name, rows in tables.items():
        database.load_table(name, rows, SNOWFLAKE_SCHEMAS[name], partitions=2)
    database.load_table(
        "tiny", [(i, i % 5, float(i)) for i in range(20)],
        TableSchema.of("y_id:int", "y_g:int", "y_v:float"), partitions=2,
    )
    return database


def rendered(db, sql, mode="optimized", shape=None) -> str:
    plan = build_plan(db.ctx, db.catalog, parse(sql), mode, shape=shape)
    return plan.describe()


class TestGoldenPlans:
    """Exact rendered-tree snapshots, one per plan family."""

    def test_single_table(self, db):
        assert rendered(
            db,
            "SELECT s1_id, s1_attr FROM sub1 WHERE s1_attr < 10"
            " ORDER BY s1_attr",
        ) == textwrap.dedent("""\
            sort [s1_attr ASC]  (est_cost=$1.22256e-05)
            `- project [s1_id, s1_attr]  (est_cost=$1.22256e-05)
               `- scan sub1 [select] cols=2 pred=(s1_attr < 10) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)""")

    def test_pushed_aggregate(self, db):
        assert rendered(
            db,
            "SELECT SUM(s1_attr) AS total, COUNT(*) AS n FROM sub1"
            " WHERE s1_attr < 10",
        ) == (
            "pushed-aggregate sub1 [-] [SUM(s1_attr) AS total, COUNT(*) AS n]"
            " pred=(s1_attr < 10) partitions pruned: 1/2"
            "  (est_rows=1.0, est_cost=$1.2228e-05)"
        )

    def test_pairwise_join(self, db):
        assert rendered(
            db,
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10",
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$2.48917e-05)
            `- hash-join [s1_id = d1_s1] streamed  (est_rows=12.6, est_cost=$2.48917e-05)
               +- build: scan sub1 [select] cols=1 pred=(s1_attr < 10) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
               `- probe: scan dim1 [select+bloom(d1_s1)] cols=1  (est_rows=13.3, est_cost=$1.26661e-05)""")

    def test_left_deep_chain(self, db):
        """A forced left-deep order renders as a probe-side spine with a
        Bloom on the inner probe scan — the pre-IR executor could not
        bloom that scan at all."""
        plan = build_plan(
            db.ctx, db.catalog,
            parse(
                "SELECT SUM(f_v) AS total FROM fact, dim1, sub1"
                " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND s1_attr < 10"
            ),
            "optimized", force_order=["sub1", "dim1", "fact"],
        )
        assert plan.describe() == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$3.81894e-05)
            `- hash-join [d1_id = f_d1] streamed  (est_rows=126.3, est_cost=$3.81894e-05)
               +- build: hash-join [s1_id = d1_s1]  (est_rows=12.6, est_cost=$2.48917e-05)
               |  +- build: scan sub1 [select] cols=1 pred=(s1_attr < 10) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
               |  `- probe: scan dim1 [select+bloom(d1_s1)] cols=2  (est_rows=13.3, est_cost=$1.26661e-05)
               `- probe: scan fact [select+bloom(f_d1)] cols=2  (est_rows=133.1, est_cost=$1.32977e-05)""")

    def test_bushy_tree(self, db):
        assert rendered(
            db, SNOWFLAKE_SQL, shape=BUSHY_SHAPE,
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$6.31108e-05)
            `- hash-join [d1_id = f_d1] streamed  (est_rows=0.0, est_cost=$6.31108e-05)
               +- build: hash-join [s1_id = d1_s1]  (est_rows=12.6, est_cost=$2.48917e-05)
               |  +- build: scan sub1 [select] cols=1 pred=(s1_attr < 10) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
               |  `- probe: scan dim1 [select+bloom(d1_s1)] cols=2  (est_rows=13.3, est_cost=$1.26661e-05)
               `- probe: hash-join [d2_id = f_d2]  (est_rows=0.0, est_cost=$3.82191e-05)
                  +- build: hash-join [s2_id = d2_s2]  (est_rows=0.0, est_cost=$2.49223e-05)
                  |  +- build: scan sub2 [select] cols=1 pred=(s2_attr < 10) partitions pruned: 1/2  (est_rows=0.0, est_cost=$1.22267e-05)
                  |  `- probe: scan dim2 [select+bloom(d2_s2)] cols=2  (est_rows=6.4, est_cost=$1.26956e-05)
                  `- probe: scan fact [select+bloom(f_d2)] cols=3  (est_rows=14.0, est_cost=$1.32968e-05)""")

    def test_bushy_baseline_tree(self, db):
        """The baseline plan of a forced bushy shape: the search rebuilds
        it on GET scans, so no Bloom and pre-Bloom scan estimates."""
        assert rendered(
            db, SNOWFLAKE_SQL, mode="baseline", shape=BUSHY_SHAPE,
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$1.63185e-05)
            `- hash-join [d1_id = f_d1] streamed  (est_rows=0.0, est_cost=$1.63185e-05)
               +- build: hash-join [s1_id = d1_s1]  (est_rows=12.6, est_cost=$1.34561e-05)
               |  +- build: scan sub1 [get] cols=2 pred=(s1_attr < 10)  (est_rows=3.0, est_cost=$1.26287e-05)
               |  `- probe: scan dim1 [get] cols=2  (est_rows=80.0, est_cost=$1.26481e-05)
               `- probe: hash-join [d2_id = f_d2]  (est_rows=0.0, est_cost=$1.46844e-05)
                  +- build: hash-join [s2_id = d2_s2]  (est_rows=0.0, est_cost=$1.34761e-05)
                  |  +- build: scan sub2 [get] cols=2 pred=(s2_attr < 10)  (est_rows=0.0, est_cost=$1.26307e-05)
                  |  `- probe: scan dim2 [get] cols=2  (est_rows=133.0, est_cost=$1.26653e-05)
                  `- probe: scan fact [get] cols=3  (est_rows=800.0, est_cost=$1.30409e-05)""")

    def test_cross_product(self, db):
        assert rendered(
            db, "SELECT COUNT(*) AS n FROM sub1, tiny WHERE s1_attr < 5",
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$1.30293e-05)
            `- cross-product streamed  (est_rows=40.0, est_cost=$1.3029e-05)
               +- build: scan sub1 [select] cols=1 pred=(s1_attr < 5) partitions pruned: 1/2  (est_rows=2.0, est_cost=$1.22256e-05)
               `- probe: scan tiny [select] cols=1  (est_rows=20.0, est_cost=$1.26274e-05)""")

    def test_baseline_get_scans_print_the_decoded_width(self, db):
        """``cols=`` of a ``[get]`` scan is what it decodes: the columns
        the plan above reads plus its own predicate's (sub1: 2 of 3,
        fact: 2 of 7) — the whole schema only for ``SELECT *``."""
        assert rendered(
            db,
            "SELECT SUM(f_v) AS total FROM fact, dim1, sub1"
            " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND s1_attr < 10",
            mode="baseline",
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$1.46799e-05)
            `- hash-join [s1_id = d1_s1] streamed  (est_rows=126.3, est_cost=$1.4679e-05)
               +- build: scan sub1 [get] cols=2 pred=(s1_attr < 10)  (est_rows=3.0, est_cost=$1.26287e-05)
               `- probe: hash-join [d1_id = f_d1]  (est_rows=800.0, est_cost=$1.38583e-05)
                  +- build: scan dim1 [get] cols=2  (est_rows=80.0, est_cost=$1.26481e-05)
                  `- probe: scan fact [get] cols=2  (est_rows=800.0, est_cost=$1.30409e-05)""")
        assert rendered(
            db, "SELECT s1_id FROM sub1 WHERE s1_attr < 10 ORDER BY s1_id",
            mode="baseline",
        ).endswith(
            "scan sub1 [get] cols=2 pred=(s1_attr < 10)"
            "  (est_rows=3.0, est_cost=$1.26255e-05)"
        )
        assert rendered(
            db, "SELECT * FROM sub1 WHERE s1_attr < 10", mode="baseline"
        ).startswith("scan sub1 [get] cols=3 ")

    def test_baseline_plan_uses_get_scans(self, db):
        text = rendered(
            db,
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10",
            mode="baseline",
        )
        assert "[get]" in text
        assert "bloom" not in text


class TestShapeRoundTrip:
    def test_serialize_rebuild_is_stable(self, db):
        query = parse(SNOWFLAKE_SQL)
        plan = build_plan(db.ctx, db.catalog, query, "optimized",
                          shape=BUSHY_SHAPE)
        join_root = plan.root
        while not isinstance(join_root, HashJoinNode):
            join_root = join_root.children()[0]
        assert serialize_shape(join_root) == BUSHY_SHAPE
        assert not is_left_deep(join_root)
        assert join_tree_label(join_root) == (
            "((sub1 >< dim1) >< ((sub2 >< dim2) >< fact))"
        )

    def test_left_deep_label_and_order(self, db):
        plan = build_plan(
            db.ctx, db.catalog,
            parse(
                "SELECT SUM(f_v) AS total FROM fact, dim1, sub1"
                " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND s1_attr < 10"
            ),
            "optimized", force_order=["sub1", "dim1", "fact"],
        )
        join_root = plan.root
        while not isinstance(join_root, HashJoinNode):
            join_root = join_root.children()[0]
        assert is_left_deep(join_root)
        assert join_leaf_order(join_root) == ["sub1", "dim1", "fact"]
        assert join_tree_label(join_root) == "sub1 >< dim1 >< fact"


class TestBushyDifferential:
    """Bushy, left-deep and auto plans must agree row-for-row."""

    def test_bushy_matches_every_left_deep_order(self, db):
        from repro.optimizer.joinorder import (
            build_join_graph,
            enumerate_left_deep_orders,
        )
        from repro.planner.binder import bind

        graph = build_join_graph(bind(parse(SNOWFLAKE_SQL), db.catalog))
        bushy = execute_forced_join(
            db.ctx, db.catalog, SNOWFLAKE_SQL, shape=BUSHY_SHAPE
        )
        orders = enumerate_left_deep_orders(graph)
        assert len(orders) == 16  # 5-node path graph: 2^4 interval orders
        for order in orders:
            forced = execute_forced_join(
                db.ctx, db.catalog, SNOWFLAKE_SQL, order=order
            )
            assert forced.rows[0][0] == pytest.approx(bushy.rows[0][0])

    def test_bushy_matches_baseline_and_auto(self, db):
        bushy = execute_forced_join(
            db.ctx, db.catalog, SNOWFLAKE_SQL, shape=BUSHY_SHAPE
        )
        for mode in ("baseline", "auto"):
            execution = db.execute(SNOWFLAKE_SQL, mode=mode)
            assert execution.rows[0][0] == pytest.approx(bushy.rows[0][0])

    def test_bushy_blooms_both_dimension_scans(self, db):
        """The snowflake payoff: both dims Bloom-reduced by their own
        filtered sub-dimension, which no left-deep order achieves."""
        bushy = execute_forced_join(
            db.ctx, db.catalog, SNOWFLAKE_SQL, shape=BUSHY_SHAPE
        )
        bloomed = [
            r.node for r in bushy.report.nodes
            if "bloom" in r.node and "dim" in r.node
        ]
        assert len(bloomed) == 2


class TestActualsFeedback:
    def test_actuals_recorded_with_q_error(self, db):
        execution = db.execute(
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10"
        )
        scans = [r for r in execution.report.nodes if r.node.startswith("scan ")]
        assert len(scans) == 2
        for record in scans:
            assert record.actual_rows is not None
            assert record.est_rows is not None
            assert record.q_error >= 1.0

    def test_report_renders_estimate_vs_actual(self, db):
        execution = db.execute(SNOWFLAKE_SQL)
        report = render_execution_report(execution)
        assert "q-error" in report
        assert "est rows" in report and "actual" in report
        assert "hash-join" in report

    def test_limit_skips_downstream_actuals(self, db):
        """Nodes past a LIMIT cut-off report what actually flowed."""
        execution = db.execute(
            "SELECT s1_id FROM sub1 ORDER BY s1_id LIMIT 3"
        )
        assert execution.report.nodes[0].actual_rows == 3

    def test_explain_includes_physical_plan(self, db):
        report = db.explain(SNOWFLAKE_SQL)
        assert "physical plan" in report
        assert "scan fact" in report
        assert "est_rows" in report


def _plan_node_classes(cls=PlanNode):
    for sub in cls.__subclasses__():
        yield sub
        yield from _plan_node_classes(sub)


@pytest.fixture()
def batch_streams(monkeypatch):
    """Check the type of every batch any plan node's stream yields;
    returns the per-node-class batch counts."""
    seen: Counter = Counter()
    for cls in _plan_node_classes():
        if "run" not in vars(cls):
            continue

        def run(self, *args, _run=cls.run, **kwargs):
            names, stream = _run(self, *args, **kwargs)

            def checked():
                for batch in stream:
                    assert type(batch) is Batch, (self.describe(), type(batch))
                    assert len(batch.columns) == len(names), self.describe()
                    seen[type(self).__name__] += 1
                    yield batch

            return names, checked()

        monkeypatch.setattr(cls, "run", run)
    return seen


def test_every_plan_node_stream_yields_batches(batch_streams):
    """One currency: whatever the plan shape, format or cache state, a
    node hands its parent `Batch` objects and nothing else."""
    ctx, catalog = CloudContext(), Catalog()
    load_suite_tables(ctx, catalog, 0.002, seed=11).close()
    for name in ALL_QUERIES:
        query = parse((QUERY_DIR / f"{name}.sql").read_text())
        for mode in ("baseline", "optimized"):
            execute_parsed(ctx, catalog, query, mode)

    # A Parquet-loaded table, GET'd whole and pushed down; then the same
    # pushed scan replayed from the semantic cache.
    ctx, catalog = CloudContext(cache_bytes=1 << 20), Catalog()
    load_table(
        ctx, catalog, "pq", [(i, i % 5, float(i)) for i in range(300)],
        TableSchema.of("p_id:int", "p_g:int", "p_v:float"),
        partitions=2, data_format="parquet", row_group_rows=64,
    )
    sql = "SELECT p_g, SUM(p_v) AS s FROM pq WHERE p_id < 200 GROUP BY p_g"
    rows = {
        mode: sorted(plan_and_execute(ctx, catalog, sql, mode=mode).rows)
        for mode in ("baseline", "optimized")
    }
    replay = plan_and_execute(ctx, catalog, sql, mode="optimized")
    assert replay.report.cache.hit == 1 and replay.num_requests == 0
    assert rows["baseline"] == rows["optimized"] == sorted(replay.rows)
    count = plan_and_execute(ctx, catalog, "SELECT COUNT(*) AS n FROM pq")
    assert count.rows == [(300,)]
    load_table(
        ctx, catalog, "tiny", [(i,) for i in range(4)], TableSchema.of("y_id:int"),
        partitions=1,
    )
    for mode in ("baseline", "optimized"):
        crossed = plan_and_execute(
            ctx, catalog, "SELECT p_id, y_id FROM pq, tiny WHERE p_id < 3 LIMIT 7",
            mode=mode,
        )
        assert len(crossed.rows) == 7
        assert set(crossed.rows) <= {(p, y) for p in range(3) for y in range(4)}

    # An adaptive execution whose misestimated build fires a re-plan.
    ctx, catalog = CloudContext(), Catalog()
    for name, table in correlated_star_tables(4000, seed=11).items():
        load_table(ctx, catalog, name, table, CORRELATED_STAR_SCHEMAS[name])
    adaptive = plan_and_execute(
        ctx, catalog,
        "SELECT SUM(f_v) AS total FROM fact, dima, dimb, dimc"
        " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id"
        " AND a_x < 15 AND a_y < 15 AND b_sel < 12",
        mode="adaptive",
    )
    assert adaptive.report.adaptive.replans >= 1

    assert set(batch_streams) >= {
        "ScanNode", "PushedAggregateNode", "HashJoinNode", "MaterializedNode",
        "AdaptiveJoinNode", "FilterNode", "ProjectNode", "GroupByNode",
        "SortNode", "TopKNode", "LimitNode", "CrossProductNode",
    }


#: Join shapes whose state a plan holds on to, and the EXPLAIN text that
#: shows each one ran (per mode where they differ): a left join with an
#: ON residual, a cross product, init-plan legs feeding hash builds (a
#: semi join, a left join, nested legs under a residual), an adaptive
#: execution's materialized results.
_HELD_STATE = {
    "left_on": (
        "SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders"
        " ON c_custkey = o_custkey AND o_totalprice < c_acctbal * 20",
        ("left hash-join", " on ("),
    ),
    "cross": (
        "SELECT n_name, r_name FROM nation, region"
        " WHERE r_regionkey < 2 AND n_nationkey < 5",
        ("cross-product",),
    ),
    # Measured by its baseline run, Q4's leg makes the optimized run hash
    # the core: a right semi join, and no init plan.
    "q04": (None, {
        "baseline": ("semi hash-join", "init plan"),
        "optimized": ("right_semi hash-join",),
    }),
    "q13": (None, ("left hash-join", "init plan")),
    "q20": (None, (" on (", "init plan")),
    "q05": (None, ("materialized[",)),
}


def test_join_state_legs_and_materialized_results_stay_batches():
    """No row-tuple round trip between batches: hash and cross builds,
    materialized results, init-plan legs and the cache tee hold one
    batch, so no row list is drained (``materialize``) or transposed
    back (``Batch.from_rows``)."""
    ctx, catalog = CloudContext(cache_bytes=1 << 24), Catalog()
    load_suite_tables(ctx, catalog, 0.002, seed=11).close()
    for name, (sql, shows) in _HELD_STATE.items():
        sql = sql or (QUERY_DIR / f"{name}.sql").read_text()
        modes = ("adaptive",) if name == "q05" else ("baseline", "optimized")
        for mode in modes:
            executions = []
            calls = calls_by_name(lambda: executions.append(
                plan_and_execute(ctx, catalog, sql, mode=mode)
            ))
            (execution,) = executions
            assert execution.rows, (name, mode)
            wanted = shows[mode] if isinstance(shows, dict) else shows
            assert all(text in execution.report.plan for text in wanted), (name, mode)
            assert calls["from_rows"] == calls["materialize"] == 0, (name, mode)
    assert ctx.result_cache.stats.stores > 0


def _scan_leaves(node):
    if isinstance(node, ScanNode):
        yield node
    for child in node.children():
        yield from _scan_leaves(child)


def test_baseline_get_scans_decode_needed_columns_and_bill_full_rows(monkeypatch):
    """GET-path projection pruning, over the 22 TPC-H files: a baseline
    scan decodes exactly its pushdown twin's projection plus the columns
    its local predicate reads — nothing the query does not name — while
    its phase keeps ingesting whole rows (a GET transfers every byte)."""
    from repro.planner import planner
    from repro.sqlparser import ast
    from repro.strategies import scans

    db = PushdownDB()
    ctx, catalog = db.ctx, db.catalog
    load_suite_tables(ctx, catalog, 0.002, seed=11).close()

    decoded: list[tuple[str, tuple]] = []
    real_decode = scans._decode_partition

    def decode(table, data, batch_size, columns=None, memo=None):
        decoded.append((table.name, tuple(columns)))  # never None: never "all"
        assert memo is not None  # a stored CSV object's bytes travel with its memo
        return real_decode(table, data, batch_size, columns, memo)

    monkeypatch.setattr(scans, "_decode_partition", decode)

    twins: dict[int, physical.PhysicalPlan] = {}
    real_choose = planner.choose_plan

    def choose(ctx, catalog, query, mode, prepared=None):
        plan, choice = real_choose(ctx, catalog, query, mode, prepared)
        twins[id(plan)] = (
            query, build_plan(ctx, catalog, query, "optimized", prepared=prepared)
        )
        return plan, choice

    monkeypatch.setattr(planner, "choose_plan", choose)

    # Every plan run, subquery legs (init plans) included.
    executed: list[tuple[physical.PhysicalPlan, object]] = []
    real_execute = physical._execute

    def execute(ctx, plan, **kwargs):
        execution, result = real_execute(ctx, plan, **kwargs)
        executed.append((plan, execution))
        return execution, result

    monkeypatch.setattr(physical, "_execute", execute)

    narrower = 0
    for name in ALL_QUERIES:
        sql = (QUERY_DIR / f"{name}.sql").read_text()
        words = set(re.findall(r"[a-z_0-9]+", sql.lower()))
        decoded.clear(), executed.clear(), twins.clear()
        execute_parsed(ctx, catalog, parse(sql), "baseline")
        expected_decodes = set()
        for plan, execution in executed:
            query, twin = twins[id(plan)]
            twin_scans = {n.table.name: n for n in _scan_leaves(twin.root)}
            for scan in _scan_leaves(plan.root):
                assert not scan.pushdown, (name, scan.describe())
                schema = scan.table.schema
                if scan.table.name in twin_scans:
                    needed = set(twin_scans[scan.table.name].columns)
                else:  # the twin pushed the whole aggregate S3-side
                    assert isinstance(twin.root, PushedAggregateNode)
                    needed = set().union(*(
                        ast.referenced_columns(i.expr) for i in query.select_items
                    ))
                if scan.predicate is not None:
                    needed |= ast.referenced_columns(scan.predicate)
                assert scan.columns == [
                    n for n in schema.names if n in needed
                ], (name, scan.describe())
                assert set(scan.columns) <= words, (name, scan.describe())
                narrower += len(scan.columns) < len(schema)
                expected_decodes.add((scan.table.name, tuple(scan.columns)))
            # Metering is blind to the decoded width.
            last = execution.phases[-1]
            tables = [scan.table for scan in _scan_leaves(plan.root)]
            if plan.combined_label is not None:
                assert last.name == "load+join"
                assert last.server_records == sum(t.num_rows for t in tables)
                # (the executor multiplies records by a mean float width)
                assert last.server_fields == pytest.approx(
                    sum(t.num_rows * len(t.schema) for t in tables), rel=1e-12
                )
            elif tables:
                (spine,) = (
                    s for s in _scan_leaves(plan.root) if s.phase_label == "scan"
                )
                assert last.name == "scan"
                assert last.server_records == spine.actual_rows
                assert last.server_fields == (
                    last.server_records * len(tables[0].schema)
                )
        assert set(decoded) == expected_decodes, name
    assert narrower >= 60  # nearly every scan: Q2 alone reads all of supplier

    q6 = (QUERY_DIR / "q06.sql").read_text()
    assert "scan lineitem [get] cols=4 " in db.explain(q6)


# ----------------------------------------------------------------------
# one executor: every paper strategy and hand-written variant is a plan
# ----------------------------------------------------------------------

def _strategy_runners():
    from repro.queries.micro import _JOIN_QUERY, MICRO_QUERIES
    from repro.queries.tpch_queries import TPCH_QUERIES
    from repro.sqlparser.parser import parse_expression
    from repro.strategies import extensions, filter, groupby, join, topk

    by_index = filter.FilterQuery(
        table="customer", predicate=parse_expression("c_custkey < 40"),
        projection=["c_custkey", "c_acctbal"],
    )
    grouped = groupby.GroupByQuery(
        table="lineitem", group_columns=["l_returnflag"],
        aggregates=[groupby.AggSpec("sum", "l_quantity"), groupby.AggSpec("avg", "l_tax")],
        predicate=parse_expression("l_quantity < 30"),
    )
    top = topk.TopKQuery(table="lineitem", order_column="l_extendedprice", k=10)
    runners, plans = {}, {}
    for module, query, names in (
        (filter, by_index, ("server_side_filter", "s3_side_filter", "indexed_filter")),
        (extensions, by_index, ("multirange_indexed_filter",)),
        (groupby, grouped, ("server_side_group_by", "filtered_group_by",
                            "s3_side_group_by", "hybrid_group_by")),
        (extensions, grouped, ("partial_pushdown_group_by",)),
        (topk, top, ("server_side_top_k", "sampling_top_k")),
        (join, _JOIN_QUERY, ("baseline_join", "filtered_join", "bloom_join")),
    ):
        for name in names:
            runners[name] = (
                lambda ctx, catalog, fn=getattr(module, name), query=query:
                fn(ctx, catalog, query)
            )
            # The constructor whose plan the runner executes.
            plans[name] = (
                lambda ctx, catalog, fn=getattr(module, f"{name}_plan"), query=query:
                fn(ctx, catalog, query)
            )
    for family in (MICRO_QUERIES, TPCH_QUERIES):
        for name, variants in family.items():
            runners[f"{name}.baseline"] = variants.baseline
            runners[f"{name}.optimized"] = variants.optimized
    return runners, plans


STRATEGY_RUNNERS, STRATEGY_PLANS = _strategy_runners()
STRATEGY_LEAVES = {
    "IndexFetchNode", "CaseGroupByNode", "HybridGroupByNode",
    "SampledThresholdScan", "PushedAggregateNode",
}


def _patch_execute_plan(monkeypatch, execute_plan):
    """Route every plan run through ``execute_plan`` the way
    `bench/tracing.py` patches it: the physical module's name and the
    one the SQL planner imported (the SQL TPC-H variants run there)."""
    from repro.planner import planner

    monkeypatch.setattr(physical, "execute_plan", execute_plan)
    monkeypatch.setattr(planner, "execute_plan", execute_plan)


@pytest.fixture()
def executed_plans(monkeypatch):
    """Every execution `physical.execute_plan` finalizes."""
    executions = []
    real = physical.execute_plan

    def execute_plan(ctx, plan, **kwargs):
        executions.append(real(ctx, plan, **kwargs))
        return executions[-1]

    _patch_execute_plan(monkeypatch, execute_plan)
    return executions


def test_there_are_34_public_runners():
    """14 strategies, the 4 micro queries' 8 variants and the 6 TPC-H
    queries' 12 (Q6 ``baseline`` and both Q17s hand-built, the rest
    their ``.sql`` files)."""
    assert len(STRATEGY_RUNNERS) == 14 + 8 + 12


@pytest.mark.parametrize("name", sorted(STRATEGY_RUNNERS))
def test_every_strategy_runner_is_a_plan(tpch_env, executed_plans, batch_streams, name):
    """A strategy run is `build a tree -> physical.execute_plan`: it is
    explainable like any SQL plan and streams nothing but `Batch`."""
    ctx, catalog = tpch_env
    execution = STRATEGY_RUNNERS[name](ctx, catalog)
    assert executed_plans and executed_plans[-1] is execution
    assert execution.report.plan.startswith(execution.report.nodes[0].node)
    assert render_execution_report(execution).startswith(
        f"physical plan: {execution.strategy}\n"
    )
    assert "  plan:\n" in execution.explain(ctx.perf)
    assert sum(batch_streams.values()) > 0


def test_strategy_leaves_stream_batches(tpch_env, batch_streams):
    ctx, catalog = tpch_env
    for name in (
        "indexed_filter", "multirange_indexed_filter", "s3_side_group_by",
        "hybrid_group_by", "partial_pushdown_group_by", "sampling_top_k",
    ):
        STRATEGY_RUNNERS[name](ctx, catalog)
    assert set(batch_streams) >= STRATEGY_LEAVES


def test_fig11_point_runs_through_the_executor(executed_plans):
    from repro.experiments import fig11_parquet

    result = fig11_parquet.run(
        num_rows=400, column_counts=(2,), selectivities=(0.1,)
    )
    assert len(executed_plans) == len(result.rows) == 2
    for row, execution in zip(result.rows, executed_plans):
        assert execution.report.nodes
        assert [p.name for p in execution.phases] == ["scan"]
        assert row["rows_out"] == len(execution.rows) == execution.phases[0].server_records


def test_ctx_finalize_has_one_call_site():
    """`execute_plan` is the only place that turns work into a
    `QueryExecution`."""
    import repro

    sites = [
        (path.name, line_no)
        for path in Path(repro.__file__).parent.rglob("*.py")
        for line_no, line in enumerate(path.read_text().splitlines(), start=1)
        if "ctx.finalize(" in line
    ]
    assert [name for name, _ in sites] == ["physical.py"]


def test_price_phases_has_two_callers():
    """One cost model: predicted work becomes seconds and dollars only
    under the plan cost walker and the join-order search, and the pricing
    module knows no strategy."""
    import repro

    root = Path(repro.__file__).parent
    callers = {
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        for line in path.read_text().splitlines()
        if "price_phases(" in line and not line.startswith("def ")
    }
    assert callers == {"planner/costing.py", "optimizer/joinorder.py"}
    assert "repro.strategies" not in (root / "optimizer/cost.py").read_text()


def _sources(*packages: str) -> dict[str, str]:
    """``{path under src/repro: text}`` of every module in ``packages``."""
    import repro

    root = Path(repro.__file__).parent
    return {
        str(path.relative_to(root)): path.read_text()
        for package in packages
        for path in sorted((root / package).rglob("*.py"))
    }


def test_no_planner_module_passes_a_thousand_lines():
    sizes = {
        path: text.count("\n") for path, text in _sources("planner").items()
    }
    assert max(sizes.values()) <= 1000, sizes


def test_only_the_executor_reads_the_clock():
    """Nodes are timed by the one run entry, never by themselves."""
    sites = {
        path for path, text in _sources("planner", "strategies").items()
        if "perf_counter(" in text
    }
    assert sites == {"planner/physical.py"}


def test_the_cost_walker_names_no_table_leaf():
    """Every leaf predicts its own phase beside the run that meters it;
    the walker only assembles them, so it branches on no leaf type."""
    text = _sources("planner")["planner/costing.py"]
    assert "ScanNode" not in text and "PushedAggregateNode" not in text


def test_nodes_reach_the_executor_through_its_state():
    """One run signature, one dispatch: ``ExecState.run`` branches on no
    node type, and no module outside the executor reaches run / drain
    helpers of its own."""
    import inspect

    assert "isinstance" not in inspect.getsource(physical.ExecState.run)
    private = ("_run_node", "_drain_node", "_materialize_node")
    reaching = {
        path for path, text in _sources("").items()
        if path != "planner/physical.py" and any(name in text for name in private)
    }
    assert reaching == set()


#: Phases whose request count depends on how many rows match.
_DATA_DEPENDENT_REQUESTS = {"record-fetch", "multirange-fetch"}


#: The query variants: the micro queries' and TPC-H's, hand-built or SQL.
QUERY_VARIANTS = sorted(name for name in STRATEGY_RUNNERS if "." in name)


@pytest.mark.parametrize("name", sorted(STRATEGY_PLANS) + QUERY_VARIANTS)
def test_strategy_plan_predicts_the_phases_it_meters(tpch_env, monkeypatch, name):
    """The cost walker names the phases a strategy or query variant's plan
    will meter, in order, with the requests each will issue (ROADMAP item
    2's "predicted == metered requests" gate, for the paper strategies).
    Each plan is predicted as `annotate_costs` prices it, init plans
    first, when its runner hands it to `physical.execute_plan`."""
    from repro.planner.costing import plan_phases

    ctx, catalog = tpch_env
    ctx.feedback.reset()
    runs = []
    execute = physical.execute_plan

    def predict_and_execute(ctx, plan, **kwargs):
        runs.append((plan_phases(plan, ctx)[1], execute(ctx, plan, **kwargs)))
        return runs[-1][1]

    _patch_execute_plan(monkeypatch, predict_and_execute)
    STRATEGY_RUNNERS[name](ctx, catalog)
    ((predicted, execution),) = runs
    assert [p.name for p in predicted] == [p.name for p in execution.phases]
    for guess, metered in zip(predicted, execution.phases):
        if guess.name not in _DATA_DEPENDENT_REQUESTS:
            assert guess.requests == metered.requests, guess.name


def test_combined_pushed_scans_predict_their_scanned_bytes(tpch_env):
    """The combined-phase collapse keeps what pushed scans scan, return
    and evaluate (the paper's filtered join: two selects, one phase)."""
    from repro.planner.costing import CostWalk
    from repro.queries.micro import _JOIN_QUERY
    from repro.strategies.join import filtered_join_plan

    ctx, catalog = tpch_env
    plan = filtered_join_plan(ctx, catalog, _JOIN_QUERY)
    (predicted,) = CostWalk(ctx, plan.combined_label).phases(plan.root)
    execution = physical.execute_plan(ctx, plan)
    (metered,) = execution.phases
    assert predicted.name == metered.name == "select+join"
    assert predicted.select_scan_bytes == pytest.approx(
        metered.select_scan_bytes, rel=1e-12
    )
    assert predicted.select_scan_bytes == pytest.approx(
        execution.bytes_scanned, rel=1e-12
    )
    assert predicted.select_returned_bytes == pytest.approx(
        metered.select_returned_bytes, rel=0.15
    )
    assert sum(s.term_evals for s in predicted.streams) == pytest.approx(
        sum(s.term_evals for s in metered.streams), rel=1e-12
    )


class TestStrategyLaziness:
    """What the row stack could not do: a LIMIT above a strategy's scan
    stops typing batches, while every request stays metered."""

    @pytest.fixture()
    def small_batches(self):
        from repro.workloads.synthetic import FILTER_SCHEMA, filter_table

        ctx, catalog = CloudContext(batch_size=8), Catalog()
        table = load_table(
            ctx, catalog, "data", filter_table(400, seed=7), FILTER_SCHEMA,
            bucket="lazy", partitions=4, index_columns=["key"],
        )
        return ctx, table

    @staticmethod
    def _limited(ctx, node, batch_streams, limit=3):
        plan = physical.PhysicalPlan(LimitNode(node, limit), "optimized", "lazy")
        mark = ctx.metrics.mark()
        execution = physical.execute_plan(ctx, plan)
        assert len(execution.rows) == limit
        return execution, ctx.metrics.records_since(mark)

    def test_index_fetch_decodes_only_the_batch_it_stops_in(
        self, small_batches, batch_streams
    ):
        from repro.sqlparser.parser import parse_expression
        from repro.strategies.filter import IndexFetchNode

        ctx, table = small_batches
        fetch = IndexFetchNode(table, parse_expression("key < 60"), ["key", "p0"])
        execution, records = self._limited(ctx, fetch, batch_streams)
        assert batch_streams["IndexFetchNode"] == 1  # of 8 batches of 8
        assert fetch.actual_rows == 8
        # ... yet all 60 ranged GETs (and the 4 index lookups) were issued.
        assert len(records) == execution.num_requests == 4 + 60
        assert [p.name for p in execution.phases] == ["index-lookup", "record-fetch"]
        assert execution.phases[1].server_records == 60
        assert execution.report.extras["matched_rows"] == 60

    def test_get_scan_decodes_only_the_batch_it_stops_in(
        self, small_batches, batch_streams
    ):
        from repro.sqlparser.parser import parse_expression
        from repro.strategies.filter import FilterQuery, server_side_filter_node

        ctx, table = small_batches
        query = FilterQuery(table="data", predicate=parse_expression("key >= 0"))
        execution, records = self._limited(
            ctx, server_side_filter_node(ctx, table, query), batch_streams
        )
        assert batch_streams["ScanNode"] == 1
        assert len(records) == 4
        assert execution.bytes_transferred == table.total_bytes
        (phase,) = execution.phases
        assert (phase.name, phase.server_records) == ("load+filter", 8)
        assert phase.server_fields == 8 * len(table.schema)


class TestCombinedPhase:
    """One phase for scans that load in parallel: GET scans ingest whole
    tables by formula, pushed scans what they measured."""

    def test_filtered_join_ingests_what_its_scans_returned(self, tpch_env):
        from repro.sqlparser.parser import parse_expression
        from repro.strategies.join import JoinQuery, filtered_join

        ctx, catalog = tpch_env
        execution = filtered_join(ctx, catalog, JoinQuery(
            build_table="customer", probe_table="orders",
            build_key="c_custkey", probe_key="o_custkey",
            build_predicate=parse_expression("c_acctbal <= 0"),
            build_projection=["c_custkey"],
            probe_projection=["o_custkey", "o_totalprice"],
        ))
        (phase,) = execution.phases
        scans = [r for r in execution.report.nodes if r.node.startswith("scan ")]
        build_rows, probe_rows = (r.actual_rows for r in scans)
        assert probe_rows == catalog.get("orders").num_rows
        assert 0 < build_rows < catalog.get("customer").num_rows
        assert phase.name == "select+join"
        assert phase.server_records == build_rows + probe_rows
        assert phase.server_fields == pytest.approx(
            build_rows * 1 + probe_rows * 2, rel=1e-12
        )
        assert len(phase.streams) == (
            catalog.get("customer").partitions + catalog.get("orders").partitions
        )

    def test_sql_baseline_join_ingests_whole_tables_by_formula(self, tpch_env):
        ctx, catalog = tpch_env
        execution = plan_and_execute(
            ctx, catalog,
            "SELECT SUM(o_totalprice) AS total FROM customer, orders"
            " WHERE c_custkey = o_custkey AND c_acctbal <= -950",
            mode="baseline",
        )
        (phase,) = execution.phases
        tables = [catalog.get("customer"), catalog.get("orders")]
        assert phase.name == "load+join"
        assert phase.server_records == sum(t.num_rows for t in tables)
        assert phase.server_fields == pytest.approx(
            sum(t.num_rows * len(t.schema) for t in tables), rel=1e-12
        )


class TestTwoTableJoinOrder:
    def test_both_orders_of_a_two_table_query_run(self, db):
        """Two tables are the join builder at n = 2.  A forced order says
        which tables join first — no choice at n = 2 — and the hash-build
        side still goes to the smaller filtered estimate, so both orders
        are one plan, metered alike."""
        sql = (
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10"
        )
        plain = db.execute(sql)
        for order in (["sub1", "dim1"], ["dim1", "sub1"]):
            forced = execute_forced_join(db.ctx, db.catalog, sql, order=order)
            assert forced.rows == plain.rows
            assert forced.strategy == "optimized multi-join (sub1 >< dim1)"
            assert "probe: scan dim1 [select+bloom(d1_s1)]" in forced.report.plan
            assert (forced.num_requests, forced.bytes_scanned, forced.bytes_returned) == (
                plain.num_requests, plain.bytes_scanned, plain.bytes_returned
            )
        baseline = execute_forced_join(
            db.ctx, db.catalog, sql, order=["dim1", "sub1"], mode="baseline"
        )
        assert baseline.rows == plain.rows and baseline.bytes_scanned == 0

    def test_single_table_query_is_rejected(self, db):
        from repro.common.errors import PlanError

        with pytest.raises(PlanError, match="multi-table"):
            execute_forced_join(
                db.ctx, db.catalog, "SELECT s1_id FROM sub1", order=["sub1"]
            )

    @pytest.mark.parametrize("forced", [{}, {"order": ["sub1", "dim1"],
                                             "shape": ["hash", "sub1", "dim1"]}])
    def test_exactly_one_forced_tree_is_accepted(self, db, forced):
        from repro.common.errors import PlanError

        sql = "SELECT d1_id FROM dim1, sub1 WHERE d1_s1 = s1_id"
        with pytest.raises(PlanError, match="exactly one"):
            execute_forced_join(db.ctx, db.catalog, sql, **forced)


def test_a_sort_over_a_strategy_leaf_charges_the_last_phase(tpch_env):
    """A local operator above S3-side group-by bills its CPU to the
    leaf's phase, the last one."""
    from repro.planner.nodes import SortNode
    from repro.sqlparser import ast
    from repro.strategies.groupby import AggSpec, GroupByQuery, s3_side_group_by_plan

    ctx, catalog = tpch_env
    query = GroupByQuery(
        table="lineitem", group_columns=["l_returnflag", "l_linestatus"],
        aggregates=[AggSpec("sum", "l_quantity"), AggSpec("count", "1")],
    )
    bare = physical.execute_plan(ctx, s3_side_group_by_plan(ctx, catalog, query))
    plan = s3_side_group_by_plan(ctx, catalog, query)
    plan.root = SortNode(plan.root, [ast.OrderItem(expr=e) for e in query.group_exprs()])
    execution = physical.execute_plan(ctx, plan)
    assert execution.report.plan.startswith("sort [l_returnflag ASC")
    assert execution.rows == sorted(bare.rows)
    assert [p.name for p in execution.phases] == [p.name for p in bare.phases]
    assert execution.phases[-1].server_cpu_seconds > bare.phases[-1].server_cpu_seconds
    assert execution.report.extras["num_groups"] == len(execution.rows)


def test_plan_errors_are_raised_before_any_request(tpch_env):
    from repro.common.errors import PlanError
    from repro.queries.micro import _JOIN_QUERY
    from repro.sqlparser.parser import parse_expression
    from repro.strategies import extensions, filter, groupby, join, topk
    from dataclasses import replace

    ctx, catalog = tpch_env
    two_columns = filter.FilterQuery(
        table="customer", predicate=parse_expression("c_custkey < 5 AND c_acctbal < 0")
    )
    unindexed = filter.FilterQuery(
        table="customer", predicate=parse_expression("c_nationkey = 3")
    )
    bad = [
        (filter.indexed_filter, two_columns),
        (extensions.multirange_indexed_filter, unindexed),
        (groupby.hybrid_group_by, groupby.GroupByQuery(
            table="lineitem", group_columns=["l_returnflag", "l_linestatus"],
            aggregates=[groupby.AggSpec("sum", "l_quantity")],
        )),
        (topk.sampling_top_k, topk.TopKQuery(
            table="customer", order_column="c_acctbal",
            k=catalog.get("customer").num_rows + 1,
        )),
        (join.bloom_join, replace(_JOIN_QUERY, build_key="c_name", probe_key="o_clerk")),
    ]
    before = ctx.metrics.mark()
    for runner, query in bad:
        with pytest.raises(PlanError):
            runner(ctx, catalog, query)
    assert ctx.metrics.mark() == before


# ----------------------------------------------------------------------
# one clock: the executor times and counts every node
# ----------------------------------------------------------------------

_REQUEST_SLEEP_S = 0.002


@pytest.fixture()
def slow_requests(monkeypatch):
    """Every S3 request sleeps 2 ms; returns the list of requests made."""
    import time

    from repro.cloud.client import S3Client

    made = []
    for method in (
        "select_object_content", "get_object", "get_object_range",
        "get_object_ranges",
    ):
        def slowed(self, *args, _real=getattr(S3Client, method), **kwargs):
            made.append(args[1])
            time.sleep(_REQUEST_SLEEP_S)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(S3Client, method, slowed)
    return made


def _tpch_sql(name):
    return parse((QUERY_DIR / f"{name}.sql").read_text())


@pytest.mark.parametrize("case, leaf", [
    ("q01-optimized", "scan lineitem [select]"),
    ("q01-baseline", "scan lineitem [get]"),
    ("sampling_top_k", "sampled["),
    ("q06-optimized", "pushed-aggregate lineitem"),
    ("indexed_filter", "index-fetch customer"),
])
def test_storage_time_lands_on_the_issuing_node(tpch_env, slow_requests, case, leaf):
    """A leaf's requests run inside its ``run()``: they are on its clock,
    not on no node's (a pushed or GET scan issues them before its first
    batch, a sampled scan samples first)."""
    ctx, catalog = tpch_env
    if "-" in case:
        name, mode = case.split("-")
        execution = execute_parsed(ctx, catalog, _tpch_sql(name), mode)
    else:
        execution = STRATEGY_RUNNERS[case](ctx, catalog)
    (issuer,) = [r for r in execution.report.nodes if r.node.startswith(leaf)]
    assert slow_requests
    assert issuer.seconds >= _REQUEST_SLEEP_S * len(slow_requests)


def _assert_one_clock(execution):
    times = execution.report.nodes
    for at, record in enumerate(times):
        materialized = record.node.startswith("materialized[")
        if record.actual_rows is not None and not materialized:
            assert record.seconds is not None, record
        if record.seconds is None:
            continue
        children, depth = [], record.depth
        for later in times[at + 1:]:
            if later.depth <= depth:
                break
            if later.depth == depth + 1 and not later.node.startswith(
                "materialized["
            ):
                children.append(later.seconds or 0.0)
        assert record.self_seconds >= 0.0, record
        assert record.seconds >= sum(children), record
    root = times[0]
    assert sum(
        r.self_seconds for r in times if r.self_seconds is not None
    ) == pytest.approx(root.seconds, abs=1e-6)


@pytest.fixture(scope="module")
def suite_env():
    ctx, catalog = CloudContext(), Catalog()
    load_suite_tables(ctx, catalog, 0.002, seed=11).close()
    return ctx, catalog


def test_one_clock_over_the_tpch_suite(suite_env):
    """Every node that ran is timed; no self time is negative; self times
    sum to the root's time."""
    ctx, catalog = suite_env
    for name in ALL_QUERIES:
        query = _tpch_sql(name)
        for mode in ("baseline", "optimized"):
            _assert_one_clock(execute_parsed(ctx, catalog, query, mode))


@pytest.mark.parametrize("mode", ["baseline", "optimized"])
def test_suite_plans_predict_the_phases_they_meter(suite_env, mode):
    """Every TPC-H query's plan names the phases it meters, in order,
    init plans' first.  A root whose work starts on its legs' results
    (Q7-Q9, Q13, Q15 and Q22 here) charges that CPU to the last leg's
    phase, as the executor bills it, and predicts no phase of its own
    for it."""
    from repro.planner.costing import plan_phases

    ctx, catalog = suite_env
    for name in ALL_QUERIES:
        plan, _ = plan_parsed(ctx, catalog, _tpch_sql(name), mode)
        predicted = [p.name for p in plan_phases(plan, ctx)[1]]
        metered = [p.name for p in physical.execute_plan(ctx, plan).phases]
        assert predicted == metered, name


@pytest.mark.parametrize("name", sorted(STRATEGY_PLANS))
def test_one_clock_over_the_strategy_runners(tpch_env, name):
    ctx, catalog = tpch_env
    _assert_one_clock(STRATEGY_RUNNERS[name](ctx, catalog))


def test_an_init_plan_runs_on_its_executions_clock(tpch_env):
    """The hand-written Q17 lists its candidate join as an init plan: the
    one execution runs it first, times its nodes and reports them under
    the root, ahead of the root's own children."""
    from repro.queries.tpch_queries import q17_optimized

    ctx, catalog = tpch_env
    execution = q17_optimized(ctx, catalog)
    leg = execution.report.nodes[1]
    assert leg.node.startswith("hash-join [p_partkey")
    assert leg.depth == 1
    assert leg.actual_rows is not None and leg.seconds is not None
    _assert_one_clock(execution)


# ----------------------------------------------------------------------
# pushed statements are trees: the wire text is a to_sql() that parses
# back to the tree
# ----------------------------------------------------------------------


@pytest.fixture()
def prepared(monkeypatch):
    """``(wire text, tree)`` of every statement prepared while the test
    runs — ``(text, None)`` for one that entered as text, which the text
    entry prepares with ``expression_limit=None`` (it weighed the text);
    a tree whose ``to_sql()`` does not parse back to it (``repr``-equal)
    fails on the spot."""
    from repro.s3select import engine as select_engine
    from repro.s3select.validator import EXPRESSION_LIMIT_BYTES

    seen = []
    init = select_engine.PreparedSelect.__init__

    def checked(self, query, expression_limit=EXPRESSION_LIMIT_BYTES, *args, **kwargs):
        sql = query.to_sql()
        assert repr(parse(sql)) == repr(query), sql[:300]
        seen.append((sql, None if expression_limit is None else query))
        init(self, query, expression_limit, *args, **kwargs)

    monkeypatch.setattr(select_engine.PreparedSelect, "__init__", checked)
    return seen


@pytest.mark.parametrize("seed", [11, 5])
def test_tpch_suite_statements_are_their_texts_parse(prepared, seed):
    ctx, catalog = CloudContext(), Catalog()
    load_suite_tables(ctx, catalog, 0.002, seed=seed).close()
    for name in ALL_QUERIES:
        query = parse((QUERY_DIR / f"{name}.sql").read_text())
        execute_parsed(ctx, catalog, query, "optimized")
    handed = [sql for sql, query in prepared if query is not None]
    assert len(handed) > 40 and len(handed) == len(prepared)
    assert any("SUBSTRING('" in sql for sql in handed)  # Bloom statements
    assert any("SUM(" in sql for sql in handed)         # pushed aggregates


def test_fuzzer_statements_are_their_texts_parse(prepared):
    import random

    import test_sql_differential as fuzz

    rng = random.Random(fuzz.SEED)
    db = PushdownDB()
    for name, (schema, rows) in fuzz._make_tables(rng).items():
        db.load_table(name, rows, schema, partitions=4)
    rng = random.Random(fuzz.SEED + 1)
    for _ in range(fuzz.NUM_QUERIES):
        db.execute(fuzz._generate_query(rng), mode="optimized")
    handed = [sql for sql, query in prepared if query is not None]
    assert len(handed) > fuzz.NUM_QUERIES and len(handed) == len(prepared)


def test_paper_join_variants_hand_over_their_bloom_statements(tpch_env, prepared):
    """``bloom_join``, the hand-written Q17 and the SQL planner's Q3 / Q14:
    every statement, the Bloom probes included, is handed over its tree."""
    from repro.queries.micro import _JOIN_QUERY
    from repro.queries.tpch_queries import TPCH_QUERIES
    from repro.strategies.join import bloom_join

    ctx, catalog = tpch_env
    bloom_join(ctx, catalog, _JOIN_QUERY)
    for name in ("q3", "q14", "q17"):
        TPCH_QUERIES[name].optimized(ctx, catalog)
    bloomed = [query for sql, query in prepared if "SUBSTRING('" in sql]
    assert len(bloomed) >= 4 and None not in [query for _, query in prepared]


@pytest.fixture()
def lexed(monkeypatch):
    """Every text the SQL lexer is handed while the test runs."""
    from repro.sqlparser import parser

    texts, tokenize = [], parser.tokenize
    monkeypatch.setattr(parser, "tokenize", lambda sql: texts.append(sql) or tokenize(sql))
    return texts


_PROBED = parse("SELECT a FROM t WHERE l_quantity < 20").where


def _probe(ctx, catalog):
    from repro.optimizer.selectivity import probe_selectivity

    ctx.feedback.reset()  # an earlier measurement would answer without a probe
    measured = probe_selectivity(ctx, catalog.get("lineitem"), _PROBED)
    assert 0 < measured < 1


@pytest.mark.parametrize("name", [*sorted(STRATEGY_RUNNERS), "selectivity-probe"])
def test_strategies_never_parse(tpch_env, prepared, lexed, name):
    """A strategy builds every statement it pushes as a tree and prepares
    it from that tree: the only texts lexed during a run are the
    ``prepared`` fixture's own re-parses, one a statement."""
    ctx, catalog = tpch_env
    (STRATEGY_RUNNERS.get(name) or _probe)(ctx, catalog)
    assert None not in [query for _, query in prepared]
    assert lexed == [sql for sql, _ in prepared]


UNICODE_SCHEMAS = {
    "petit": TableSchema.of("clé:int", "poids:int"),
    "grand": TableSchema.of("réf:int", "prix:float"),
}


@pytest.mark.parametrize(
    "limit_bytes, rung",
    [(256 * 1024, "bloom"), (4_000, "raised"), (170, "in-lists"), (90, "unfiltered")],
)
def test_every_membership_rung_hands_over_its_texts_parse(prepared, limit_bytes, rung):
    """Down the ladder under a non-ASCII attribute: a Bloom filter, one at
    a raised FPR, chunked IN lists, nothing — same rows every time."""
    from repro.strategies.join import JoinQuery, bloom_join

    db = PushdownDB()
    db.load_table("petit", [(k, k % 7) for k in range(0, 900, 3)], UNICODE_SCHEMAS["petit"])
    db.load_table("grand", [(k % 1200, k / 4) for k in range(2000)], UNICODE_SCHEMAS["grand"])
    query = JoinQuery(
        "petit", "grand", "clé", "réf", parse("SELECT a FROM t WHERE poids < 5").where
    )
    execution = bloom_join(
        db.ctx, db.catalog, query, seed=3, expression_limit_bytes=limit_bytes
    )
    want = sorted(
        (k, k % 7, r % 1200, r / 4)
        for k in range(0, 900, 3) if k % 7 < 5
        for r in range(2000) if r % 1200 == k
    )
    assert sorted(execution.rows) == want
    probes = [(sql, query) for sql, query in prepared if "réf" in sql]
    assert probes and all(query is not None for _, query in probes)
    extras = execution.report.extras
    assert {
        "bloom": not extras["degraded"] and extras["achieved_fpr"] == 0.01,
        "raised": not extras["degraded"] and extras["achieved_fpr"] > 0.01,
        "in-lists": extras["membership_chunks"] > 1,
        "unfiltered": extras["degraded"] and extras["membership_chunks"] == 0,
    }[rung]
    assert len(probes) == max(1, extras["membership_chunks"])
    assert all((" IN (" in sql) == (rung == "in-lists") for sql, _ in probes)


def test_over_limit_planner_statement_raises_before_any_request(tpch_env):
    """The text is still what is weighed: a statement prepared from its
    tree fails the 256 KB check with its rendered text's size, as that
    text does through the text entry, nothing metered."""
    from repro.common.errors import ExpressionLimitExceededError
    from repro.s3select.engine import PreparedSelect

    ctx, catalog = tpch_env
    table = catalog.get("customer")
    wide = parse(f"SELECT a FROM t WHERE c_name <> '{'x' * 300_000}'").where
    scan = whole_table_select(table, ["c_custkey"], wide)
    sql = scan.statement().to_sql()
    mark = ctx.metrics.mark()
    for run in (
        lambda: physical.execute_plan(ctx, physical.PhysicalPlan(scan, "optimized", "wide")),
        lambda: PreparedSelect(scan.statement()),
        lambda: ctx.client.select_object_content(table.bucket, table.keys[0], sql),
    ):
        with pytest.raises(ExpressionLimitExceededError) as raised:
            run()
        assert raised.value.size == len(sql.encode())
    assert ctx.metrics.records_since(mark) == []


def test_pushed_scan_never_parses_its_statement(tpch_env, monkeypatch):
    """A planner scan — Bloom clause included — prepares its statement
    from the tree and calls ``parser.parse`` 0 times; the statement's
    rendered text through the text entry parses once per request, to the
    same rows."""
    from repro.bloom.filter import BloomPushdown, membership_clauses
    from repro.s3select import engine as select_engine

    ctx, catalog = tpch_env
    scan = whole_table_select(
        catalog.get("orders"), ["o_orderkey", "o_custkey"],
        parse("SELECT a FROM t WHERE o_totalprice > 1000").where, bloom_attr="o_custkey",
    )
    pushed, _ = membership_clauses(
        list(range(1, 200, 2)), "o_custkey", scan.statement(), BloomPushdown(seed=1)
    )
    parsed = []
    real_parse = select_engine.parser.parse
    monkeypatch.setattr(
        select_engine.parser, "parse", lambda sql: parsed.append(sql) or real_parse(sql)
    )
    scan.pushed = pushed
    names, stream = scan.run(physical.ExecState(ctx))
    rows = [row for batch in stream for row in batch]
    assert parsed == []
    (clause,) = pushed
    sql = scan.statement(clause).to_sql()
    assert "SUBSTRING('" in sql
    keys = scan.table.keys
    by_text = [
        row for key in keys
        for row in ctx.client.select_object_content(scan.table.bucket, key, sql).rows
    ]
    assert parsed == [sql] * len(keys) and by_text == rows and rows
