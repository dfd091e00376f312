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

import pytest

from repro.cloud.context import CloudContext
from repro.engine.batch import Batch
from repro.engine.catalog import Catalog, load_table
from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
from repro.planner import physical
from repro.planner.database import PushdownDB
from repro.planner.planner import (
    build_plan,
    execute_parsed,
    execute_with_join_order,
    execute_with_join_tree,
    plan_and_execute,
)
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
               `- scan sub1 [select] cols=2 pred=((s1_attr < 10)) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)""")

    def test_pushed_aggregate(self, db):
        assert rendered(
            db,
            "SELECT SUM(s1_attr) AS total, COUNT(*) AS n FROM sub1"
            " WHERE s1_attr < 10",
        ) == (
            "pushed-aggregate sub1 [SUM(s1_attr) AS total, COUNT(*) AS n]"
            " partitions pruned: 1/2  (est_rows=1.0, est_cost=$1.2228e-05)"
        )

    def test_pairwise_join(self, db):
        assert rendered(
            db,
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10",
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$2.48917e-05)
            `- hash-join [s1_id = d1_s1] streamed  (est_rows=12.6, est_cost=$2.48917e-05)
               +- build: scan sub1 [select] cols=1 pred=((s1_attr < 10)) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
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
               |  +- build: scan sub1 [select] cols=1 pred=((s1_attr < 10)) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
               |  `- probe: scan dim1 [select+bloom(d1_s1)] cols=2  (est_rows=13.3, est_cost=$1.26661e-05)
               `- probe: scan fact [select+bloom(f_d1)] cols=2  (est_rows=133.1, est_cost=$1.32977e-05)""")

    def test_bushy_tree(self, db):
        assert rendered(
            db, SNOWFLAKE_SQL, shape=BUSHY_SHAPE,
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$6.31108e-05)
            `- hash-join [d1_id = f_d1] streamed  (est_rows=0.0, est_cost=$6.31108e-05)
               +- build: hash-join [s1_id = d1_s1]  (est_rows=12.6, est_cost=$2.48917e-05)
               |  +- build: scan sub1 [select] cols=1 pred=((s1_attr < 10)) partitions pruned: 1/2  (est_rows=3.0, est_cost=$1.22256e-05)
               |  `- probe: scan dim1 [select+bloom(d1_s1)] cols=2  (est_rows=13.3, est_cost=$1.26661e-05)
               `- probe: hash-join [d2_id = f_d2]  (est_rows=0.0, est_cost=$3.82191e-05)
                  +- build: hash-join [s2_id = d2_s2]  (est_rows=0.0, est_cost=$2.49223e-05)
                  |  +- build: scan sub2 [select] cols=1 pred=((s2_attr < 10)) partitions pruned: 1/2  (est_rows=0.0, est_cost=$1.22267e-05)
                  |  `- probe: scan dim2 [select+bloom(d2_s2)] cols=2  (est_rows=6.4, est_cost=$1.26956e-05)
                  `- probe: scan fact [select+bloom(f_d2)] cols=3  (est_rows=14.0, est_cost=$1.32968e-05)""")

    def test_cross_product(self, db):
        assert rendered(
            db, "SELECT COUNT(*) AS n FROM sub1, tiny WHERE s1_attr < 5",
        ) == textwrap.dedent("""\
            group-by [-] aggs=1  (est_cost=$2.48541e-05)
            `- cross-product streamed  (est_rows=40.0, est_cost=$2.48538e-05)
               +- build: scan sub1 [select] cols=1 pred=((s1_attr < 5)) partitions pruned: 1/2  (est_rows=2.0, est_cost=$1.22256e-05)
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
               +- build: scan sub1 [get] cols=2 pred=((s1_attr < 10))  (est_rows=3.0, est_cost=$1.26287e-05)
               `- probe: hash-join [d1_id = f_d1]  (est_rows=800.0, est_cost=$1.38583e-05)
                  +- build: scan dim1 [get] cols=2  (est_rows=80.0, est_cost=$1.26481e-05)
                  `- probe: scan fact [get] cols=2  (est_rows=800.0, est_cost=$1.30409e-05)""")
        assert rendered(
            db, "SELECT s1_id FROM sub1 WHERE s1_attr < 10 ORDER BY s1_id",
            mode="baseline",
        ).endswith(
            "scan sub1 [get] cols=2 pred=((s1_attr < 10))"
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
        while not isinstance(join_root, physical.HashJoinNode):
            join_root = join_root.children()[0]
        assert physical.serialize_shape(join_root) == BUSHY_SHAPE
        assert not physical.is_left_deep(join_root)
        assert physical.join_tree_label(join_root) == (
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
        while not isinstance(join_root, physical.HashJoinNode):
            join_root = join_root.children()[0]
        assert physical.is_left_deep(join_root)
        assert physical.join_leaf_order(join_root) == ["sub1", "dim1", "fact"]
        assert physical.join_tree_label(join_root) == "sub1 >< dim1 >< fact"


class TestBushyDifferential:
    """Bushy, left-deep and auto plans must agree row-for-row."""

    def test_bushy_matches_every_left_deep_order(self, db):
        from repro.optimizer.joinorder import (
            build_join_graph,
            enumerate_left_deep_orders,
        )

        graph = build_join_graph(db.catalog, parse(SNOWFLAKE_SQL))
        bushy = execute_with_join_tree(
            db.ctx, db.catalog, SNOWFLAKE_SQL, BUSHY_SHAPE
        )
        orders = enumerate_left_deep_orders(graph)
        assert len(orders) == 16  # 5-node path graph: 2^4 interval orders
        for order in orders:
            forced = execute_with_join_order(
                db.ctx, db.catalog, SNOWFLAKE_SQL, order
            )
            assert forced.rows[0][0] == pytest.approx(bushy.rows[0][0])

    def test_bushy_matches_baseline_and_auto(self, db):
        bushy = execute_with_join_tree(
            db.ctx, db.catalog, SNOWFLAKE_SQL, BUSHY_SHAPE
        )
        for mode in ("baseline", "auto"):
            execution = db.execute(SNOWFLAKE_SQL, mode=mode)
            assert execution.rows[0][0] == pytest.approx(bushy.rows[0][0])

    def test_bushy_blooms_both_dimension_scans(self, db):
        """The snowflake payoff: both dims Bloom-reduced by their own
        filtered sub-dimension, which no left-deep order achieves."""
        bushy = execute_with_join_tree(
            db.ctx, db.catalog, SNOWFLAKE_SQL, BUSHY_SHAPE
        )
        bloomed = [
            r["node"] for r in bushy.details["actuals"]
            if "bloom" in r["node"] and "dim" in r["node"]
        ]
        assert len(bloomed) == 2


class TestActualsFeedback:
    def test_actuals_recorded_with_q_error(self, db):
        execution = db.execute(
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 10"
        )
        actuals = execution.details["actuals"]
        scans = [r for r in actuals if r["node"].startswith("scan ")]
        assert len(scans) == 2
        for record in scans:
            assert record["actual_rows"] is not None
            assert record["est_rows"] is not None
            assert record["q_error"] >= 1.0

    def test_report_renders_estimate_vs_actual(self, db):
        execution = db.execute(SNOWFLAKE_SQL)
        report = physical.render_execution_report(execution)
        assert "q-error" in report
        assert "est rows" in report and "actual" in report
        assert "hash-join" in report

    def test_limit_skips_downstream_actuals(self, db):
        """Nodes past a LIMIT cut-off report what actually flowed."""
        execution = db.execute(
            "SELECT s1_id FROM sub1 ORDER BY s1_id LIMIT 3"
        )
        top = execution.details["actuals"][0]
        assert top["actual_rows"] == 3

    def test_explain_includes_physical_plan(self, db):
        report = db.explain(SNOWFLAKE_SQL)
        assert "physical plan" in report
        assert "scan fact" in report
        assert "est_rows" in report


def _plan_node_classes(cls=physical.PlanNode):
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
    assert replay.details["cache"]["hit"] == 1 and replay.num_requests == 0
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
    assert adaptive.details["adaptive"]["replans"] >= 1

    assert set(batch_streams) >= {
        "ScanNode", "PushedAggregateNode", "HashJoinNode", "MaterializedNode",
        "AdaptiveJoinNode", "FilterNode", "ProjectNode", "GroupByNode",
        "SortNode", "TopKNode", "LimitNode", "CrossProductNode",
    }


def _scan_leaves(node):
    if isinstance(node, physical.ScanNode):
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

    def decode(table, data, batch_size, columns=None):
        decoded.append((table.name, tuple(columns)))  # never None: never "all"
        return real_decode(table, data, batch_size, columns)

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

    executed: list[tuple[physical.PhysicalPlan, object]] = []
    real_execute = planner.execute_plan

    def execute(ctx, plan, **kwargs):
        execution = real_execute(ctx, plan, **kwargs)
        executed.append((plan, execution))
        return execution

    monkeypatch.setattr(planner, "execute_plan", execute)

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
                    assert isinstance(twin.root, physical.PushedAggregateNode)
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
            tables = plan.scan_tables
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
