"""Subqueries are subplans: every leg is an init plan of its query.

The decorrelation pass only *plans* a subquery leg; the executor runs it
before the root that reads it (PostgreSQL's InitPlan).  These tests pin
what follows: planning issues no request, EXPLAIN shows the legs with
what they feed, an uncorrelated value is a ``$n`` bound at run time and
never a cache or feedback key, and the legs run on the executor's clock.
"""

from __future__ import annotations

import sqlite3
import textwrap

import pytest

from repro.common.errors import PlanError
from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
from repro.planner.database import PushdownDB
from repro.planner.planner import plan_parsed
from repro.sqlparser.parser import parse
from repro.storage.schema import TableSchema


@pytest.fixture(scope="module")
def suite_db():
    db = PushdownDB()
    load_suite_tables(db.ctx, db.catalog, 0.002, seed=11).close()
    return db


def _sql(name: str) -> str:
    return (QUERY_DIR / f"{name}.sql").read_text()


def test_planning_never_touches_storage(suite_db):
    """EXPLAIN of the 22 TPC-H queries, and planning them in every mode,
    issue no request: their legs are planned, not run."""
    metrics = suite_db.ctx.metrics
    before = metrics.num_requests
    for name in ALL_QUERIES:
        suite_db.explain(_sql(name))
        for mode in ("baseline", "optimized", "auto", "adaptive"):
            plan_parsed(suite_db.ctx, suite_db.catalog, parse(_sql(name)), mode)
    assert metrics.num_requests == before


@pytest.fixture(scope="module")
def two_tables():
    """Two tables shaped like the SQL fuzzer's ``t0`` and ``t1``."""
    db = PushdownDB()
    db.load_table(
        "t0", [(i % 6, i - 10, i % 4, "oak") for i in range(24)],
        TableSchema.of("t0_key:int", "t0_a:int", "t0_b:int", "t0_s:str"),
        partitions=4,
    )
    db.load_table(
        "t1", [(i % 6, i, i % 3) for i in range(18)],
        TableSchema.of("t1_key:int", "t1_c:int", "t1_d:int"), partitions=4,
    )
    return db


#: A qualifier naming a table outside FROM (in the select list, in WHERE,
#: or a FROM table without that column) and an unknown name in WHERE or
#: ORDER BY: each is a name error, raised by binding before any request.
NAME_ERRORS = [
    ("SELECT t9.t0_a FROM t0", "unknown column"),
    ("SELECT t0_a FROM t0 WHERE t9.t0_a < 3", "unknown column"),
    ("SELECT t1.t0_a FROM t0, t1 WHERE t0_key = t1_key", "has no column"),
    ("SELECT t0_a FROM t0, t1 WHERE t0_key = t1_key AND nope = 1", "unknown column"),
    ("SELECT t0_a FROM t0 ORDER BY nope", "unknown column"),
]


@pytest.mark.parametrize("sql, message", NAME_ERRORS)
@pytest.mark.parametrize("mode", ["baseline", "optimized"])
def test_name_errors_raise_before_any_request(two_tables, sql, message, mode):
    metrics = two_tables.ctx.metrics
    before = metrics.num_requests
    with pytest.raises(PlanError, match=message):
        two_tables.execute(sql, mode=mode)
    assert metrics.num_requests == before


def test_legs_run_first_and_are_priced(suite_db):
    """A query's legs are init plans: priced into its estimate, run before
    its root on the one clock, their phases ahead of the root's."""
    ctx, catalog = suite_db.ctx, suite_db.catalog
    for name in ("q04", "q16", "q22"):
        plan, _ = plan_parsed(ctx, catalog, parse(_sql(name)), "optimized")
        assert plan.init_plans
        execution = suite_db.execute(_sql(name))
        assert plan.estimate.requests == execution.num_requests, name
        times = execution.report.nodes
        # The first init plan's root comes first under the query's.
        assert execution.report.plan.splitlines()[1].startswith(
            "+- init plan 0 (optimized"
        )
        leg = times[1]
        assert leg.depth == 1
        assert leg.seconds is not None and leg.self_seconds >= 0.0
        assert sum(r.self_seconds or 0.0 for r in times) == pytest.approx(
            times[0].seconds, abs=1e-6
        )


GOLDEN_Q04 = """\
optimizer: sql query, objective=cost, picked 'baseline'
     strategy                 requests    scanned   returned      moved    runtime         cost
  -> baseline                     32.0        0 B        0 B    1.61 MB      47 ms    $0.000040
     optimized                    32.0  270.21 KB    4.69 KB    1.34 MB      46 ms    $0.000041
physical plan (baseline):
sort [o_orderpriority ASC]  (est_cost=$4.0312e-05)
+- init plan 0 (baseline, est_rows=4030.0, feeds build of semi join): project [l_orderkey]  (est_cost=$2.17769e-05)
|  `- scan lineitem [get] cols=3 pred=(l_commitdate < l_receiptdate)  (est_rows=4030.0, est_cost=$2.17674e-05)
`- group-by [o_orderpriority] aggs=1  (est_cost=$1.85252e-05)
   `- semi hash-join [__sq0_l_orderkey = o_orderkey] streamed (decorrelated EXISTS)  (est_rows=333.3, est_cost=$1.85229e-05)
      +- build: init plan 0 [__sq0_l_orderkey]  (est_rows=4030.0)
      `- probe: scan orders [get] cols=3 pred=(o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01')  (est_rows=333.3, est_cost=$1.85074e-05)"""

GOLDEN_Q22 = """\
optimizer: sql query, objective=cost, picked 'baseline'
     strategy                 requests    scanned   returned      moved    runtime         cost
  -> baseline                     48.0  270.21 KB   10.86 KB   56.77 KB      61 ms    $0.000056
     optimized                    48.0  270.21 KB   10.86 KB   56.77 KB      61 ms    $0.000056
physical plan (baseline):
sort [cntrycode ASC]  (est_cost=$5.6081e-05)
+- init plan 0 (baseline, est_rows=33.3, feeds derived table custsale): project [SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal]  (est_cost=$5.60799e-05)
|  +- init plan 0 (baseline, est_rows=1.0, feeds $0): group-by [-] aggs=1  (est_cost=$1.82723e-05)
|  |  `- scan customer [get] cols=2 pred=(c_acctbal > 0.0 AND SUBSTR(c_phone, 1, 2) IN ('13', '17', '18', '23', '29', '30', '31'))  (est_rows=91.2, est_cost=$1.82717e-05)
|  +- init plan 1 (optimized, est_rows=3000.0, feeds build of anti join): project [o_custkey]  (est_cost=$1.94951e-05)
|  |  `- scan orders [select] cols=1  (est_rows=3000.0, est_cost=$1.9488e-05)
|  `- anti hash-join [__sq0_o_custkey = c_custkey] streamed (decorrelated NOT EXISTS)  (est_rows=33.3, est_cost=$1.83123e-05)
|     +- build: init plan 1 [__sq0_o_custkey]  (est_rows=3000.0)
|     `- probe: scan customer [get] cols=3 pred=(SUBSTR(c_phone, 1, 2) IN ('13', '17', '18', '23', '29', '30', '31') AND c_acctbal > $0)  (est_rows=33.3, est_cost=$1.82522e-05)
`- group-by [cntrycode] aggs=2  (est_cost=$4.72889e-10)
   `- init plan 0 [cntrycode, c_acctbal]  (est_rows=33.3)"""


@pytest.mark.parametrize("name, golden", [
    ("q04", GOLDEN_Q04), ("q22", GOLDEN_Q22),
], ids=["q04", "q22"])
def test_explain_shows_the_legs(name, golden):
    """Each init plan renders under the root with its mode, est_rows,
    est_cost and what it feeds; Q22's derived table nests its own two
    (the ``$0`` its scan binds, the anti join's build side)."""
    db = PushdownDB()
    load_suite_tables(db.ctx, db.catalog, 0.002, seed=11).close()
    assert db.explain(_sql(name)) == textwrap.dedent(golden)


def test_a_parameter_is_never_a_key():
    """Two queries of one shape whose scalar legs return different values,
    in one cache-enabled session: the second matches sqlite3 (a cache
    keyed on ``$0`` would replay the first's rows), and no feedback
    signature or cache entry holds a ``$``."""
    t_rows = [(i, (i * 37) % 101) for i in range(300)]
    u_rows = [(i, i % 50) for i in range(100)]
    db = PushdownDB(cache_bytes=1 << 20)
    db.load_table("t", t_rows, TableSchema.of("t_k:int", "t_v:int"), partitions=3)
    db.load_table("u", u_rows, TableSchema.of("u_k:int", "u_w:int"), partitions=2)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (t_k, t_v)")
    oracle.execute("CREATE TABLE u (u_k, u_w)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", t_rows)
    oracle.executemany("INSERT INTO u VALUES (?, ?)", u_rows)
    shapes = (
        "SELECT t_k, t_v FROM t WHERE t_v > (SELECT MAX(u_w) FROM u"
        " WHERE u_k < {})",
        "SELECT COUNT(*) AS n FROM t, u WHERE t_k = u_k AND t_v <"
        " (SELECT MAX(u_w) FROM u WHERE u_k < {})",
    )
    for shape in shapes:
        for bound in (10, 40):
            sql = shape.format(bound)
            expected = sorted(oracle.execute(sql).fetchall())
            assert sorted(db.execute(sql).rows) == expected, sql
    feedback = db.feedback
    keys = [*feedback._selectivities, *feedback._joins]
    entries = [(key, entry.predicate) for key, entry in db.cache._entries.items()]
    assert keys and entries
    assert "$" not in repr(keys)
    assert "$" not in repr([(key, p and p.to_sql()) for key, p in entries])


def test_too_many_rows_is_a_run_time_error():
    """A scalar leg is planned without running; its "at most one row" is
    checked when it runs."""
    from repro.common.errors import PlanError

    db = PushdownDB()
    db.load_table("a", [(i,) for i in range(5)], TableSchema.of("a_x:int"))
    sql = "SELECT a_x FROM a WHERE a_x > (SELECT a_x FROM a)"
    assert "$0" in db.explain(sql)
    with pytest.raises(PlanError, match="at most one row"):
        db.execute(sql)


def test_a_parameter_binds_in_a_join_condition():
    """An uncorrelated scalar beside a correlated one lands in the
    decorrelated join's match condition; it is bound there too."""
    c_rows = [(k, k * 7 % 23) for k in range(12)]
    o_rows = [(i, i % 12, (i * 5) % 17) for i in range(60)]
    db = PushdownDB()
    db.load_table("c", c_rows, TableSchema.of("c_key:int", "c_bal:int"), partitions=2)
    db.load_table(
        "o", o_rows, TableSchema.of("o_id:int", "o_ref:int", "o_amt:int"), partitions=2
    )
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE c (c_key, c_bal)")
    oracle.execute("CREATE TABLE o (o_id, o_ref, o_amt)")
    oracle.executemany("INSERT INTO c VALUES (?, ?)", c_rows)
    oracle.executemany("INSERT INTO o VALUES (?, ?, ?)", o_rows)
    sql = (
        "SELECT c_key FROM c WHERE c_bal >"
        " (SELECT AVG(o_amt) FROM o WHERE o_ref = c_key)"
        " - (SELECT MIN(o_amt) FROM o WHERE o_amt > 3)"
    )
    (join,) = [
        line for line in db.explain(sql).splitlines()
        if "(decorrelated scalar subquery)" in line
    ]
    assert " - $" in join
    expected = sorted(oracle.execute(sql).fetchall())
    assert expected and len(expected) < len(c_rows)
    for mode in ("baseline", "optimized"):
        assert sorted(db.execute(sql, mode=mode).rows) == expected, mode


@pytest.mark.parametrize("value_sql, literal", [
    ("SELECT MAX(u_k) FROM u", "390"),
    ("SELECT MIN(u_k) FROM u WHERE u_k < 0", "NULL"),
])
def test_a_bound_value_prunes_at_run_time(value_sql, literal):
    """Zone maps cannot refute ``t_k >= $0`` at plan time; once ``$0`` is
    bound they refute what the literal would have — a NULL, every
    partition (one is kept) — and the query meters its leg plus the
    literal query."""
    db = PushdownDB()
    db.load_table("t", [(i,) for i in range(400)], TableSchema.of("t_k:int"),
                  partitions=4)
    db.load_table("u", [(i,) for i in range(391)], TableSchema.of("u_k:int"),
                  partitions=2)
    sql = f"SELECT t_k FROM t WHERE t_k >= ({value_sql})"
    assert "partitions pruned" not in db.explain(sql).splitlines()[-1]
    execution = db.execute(sql, mode="optimized")
    assert "partitions pruned: 3/4" in execution.report.plan
    parts = [
        db.execute(part, mode="optimized")
        for part in (value_sql, f"SELECT t_k FROM t WHERE t_k >= {literal}")
    ]
    assert execution.num_requests == sum(p.num_requests for p in parts)
    assert execution.rows == parts[1].rows
