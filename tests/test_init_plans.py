"""Subqueries are subplans: every leg is an init plan of its query.

The decorrelation pass only *plans* a subquery leg; the executor runs it
before the root that reads it (PostgreSQL's InitPlan).  These tests pin
what follows: planning issues no request, EXPLAIN shows the legs with
what they feed, an uncorrelated value is a ``$n`` bound at run time and
never a cache or feedback key, and the legs run on the executor's clock.
"""

from __future__ import annotations

import re
import sqlite3
import textwrap

import pytest

from repro.common.errors import PlanError
from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
from repro.planner.database import PushdownDB
from repro.planner.joins import AdaptiveJoinNode, HashJoinNode, JoinNode
from repro.planner.nodes import FilterNode
from repro.planner.physical import execute_plan, walk_plan
from repro.planner.planner import plan_parsed
from repro.sqlparser import ast
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


def _plans(plan):
    """A plan, then its init plans' plans, recursively."""
    yield plan
    for leg in plan.init_plans:
        yield from _plans(leg.plan)


def _cross_table_equalities(plan, catalog) -> list[str]:
    """Every ``col = col`` conjunct of a filter or a join's residual whose
    columns belong to two different tables (a leg's ``__sq<N>_`` column
    to the table it was read from; ``__val`` and aliases to none)."""
    owner = {
        column: name for name in catalog.table_names()
        for column in catalog.get(name).schema.names
    }
    found = []
    for p in _plans(plan):
        for node, _ in walk_plan(p.root):
            cond = node.predicate if isinstance(node, FilterNode) else (
                getattr(node, "match_cond", None)
            )
            for conj in ast.split_conjuncts(cond):
                if not (
                    isinstance(conj, ast.Binary) and conj.op == "="
                    and isinstance(conj.left, ast.Column)
                    and isinstance(conj.right, ast.Column)
                ):
                    continue
                tables = {
                    owner.get(re.sub(r"^__sq\d+_", "", c.name))
                    for c in (conj.left, conj.right)
                }
                if None not in tables and len(tables) == 2:
                    found.append(conj.to_sql())
    return found


@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_every_equality_between_join_sides_is_a_key(suite_db, mode):
    """No filter and no join residual of the 22 queries compares columns
    of two tables for equality: each such equality is a hash-join key
    pair (Q5's cycle edge, Q9's second partsupp edge and Q20's leg join
    included)."""
    found = {}
    for name in ALL_QUERIES:
        plan, _ = plan_parsed(suite_db.ctx, suite_db.catalog, parse(_sql(name)), mode)
        found[name] = _cross_table_equalities(plan, suite_db.catalog)
    assert {name: conjs for name, conjs in found.items() if conjs} == {}


@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_q9_partsupp_lineitem_join_emits_only_kept_rows(suite_db, mode):
    """Q9's join of partsupp and lineitem keys on both of their
    equalities, so it emits exactly the rows its derived-table leg
    returns (the joins above it are many-to-one lookups)."""
    plan, _ = plan_parsed(suite_db.ctx, suite_db.catalog, parse(_sql("q09")), mode)
    execute_plan(suite_db.ctx, plan)
    (leg,) = plan.init_plans
    both = {"partsupp", "lineitem"}
    (join,) = [
        node for node, _ in walk_plan(leg.plan.root)
        if isinstance(node, HashJoinNode) and both <= node.tables
        and not any(both <= child.tables for child in node.children())
    ]
    assert len(join.build_keys) == 2
    assert join.actual_rows == len(leg.batch) > 0


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
    for name in ("q18", "q16", "q22"):
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
    # Q4's leg is no init plan: its wrap hashes the core and ships the
    # core's keys into the lineitem scan.
    plan, _ = plan_parsed(ctx, catalog, parse(_sql("q04")), "optimized")
    (wrap,) = _right_wraps(plan)
    assert plan.init_plans == [] and wrap.join_type == "right_semi"
    assert wrap.build.table.name == "orders" and wrap.probe.bloom_attr == "l_orderkey"


GOLDEN_Q04 = """\
optimizer: sql query, objective=cost, picked 'baseline'
     strategy                 requests    scanned   returned      moved    runtime         cost
  -> baseline                     32.0    1.34 MB   34.85 KB  270.21 KB      44 ms    $0.000041
     optimized                    32.0    1.61 MB    8.87 KB        0 B      43 ms    $0.000041
physical plan (baseline):
sort [o_orderpriority ASC]  (est_cost=$4.13704e-05)
+- init plan 0 (optimized, est_rows=7532.6, feeds build of semi join): project [l_orderkey]  (est_cost=$2.27524e-05)
|  `- scan lineitem [select] cols=1 pred=(l_commitdate < l_receiptdate)  (est_rows=7532.6, est_cost=$2.27346e-05)
`- group-by [o_orderpriority] aggs=1  (est_cost=$1.8608e-05)
   `- semi hash-join [__sq0_l_orderkey = o_orderkey] streamed (decorrelated EXISTS)  (est_rows=333.3, est_cost=$1.86057e-05)
      +- build: init plan 0 [__sq0_l_orderkey]  (est_rows=7532.6)
      `- probe: scan orders [get] cols=3 pred=(o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01')  (est_rows=333.3, est_cost=$1.85074e-05)"""

GOLDEN_Q22 = """\
optimizer: sql query, objective=cost, picked 'baseline'
     strategy                 requests    scanned   returned      moved    runtime         cost
  -> baseline                     48.0  298.59 KB    2.09 KB   28.38 KB      61 ms    $0.000056
     optimized                    48.0  298.59 KB    2.09 KB   28.38 KB      61 ms    $0.000056
physical plan (baseline):
sort [cntrycode ASC]  (est_cost=$5.56589e-05)
+- init plan 0 (optimized, est_rows=33.3, feeds derived table custsale): project [SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal]  (est_cost=$5.56589e-05)
|  +- init plan 0 (baseline, est_rows=1.0, feeds $0): group-by [-] aggs=1  (est_cost=$1.82723e-05)
|  |  `- scan customer [get] cols=2 pred=(c_acctbal > 0.0 AND SUBSTR(c_phone, 1, 2) IN ('13', '17', '18', '23', '29', '30', '31'))  (est_rows=91.2, est_cost=$1.82717e-05)
|  `- right_anti hash-join [c_custkey = o_custkey] streamed (decorrelated NOT EXISTS)  (est_rows=33.3, est_cost=$3.73865e-05)
|     +- build: scan customer [select] cols=3 pred=(SUBSTR(c_phone, 1, 2) IN ('13', '17', '18', '23', '29', '30', '31') AND c_acctbal > $0)  (est_rows=33.3, est_cost=$1.83014e-05)
|     `- probe: scan orders [select+bloom(o_custkey)] cols=1  (est_rows=361.1, est_cost=$1.90851e-05)
`- group-by [cntrycode] aggs=2  (est_cost=$4.72889e-10)
   `- init plan 0 [cntrycode, c_acctbal]  (est_rows=33.3)"""


@pytest.mark.parametrize("name, golden", [
    ("q04", GOLDEN_Q04), ("q22", GOLDEN_Q22),
], ids=["q04", "q22"])
def test_explain_shows_the_legs(name, golden):
    """Each init plan renders under the root with its mode, est_rows,
    est_cost and what it feeds; Q22's derived table nests its own (the
    ``$0`` its scan binds), and its NOT EXISTS hashes the core's customers
    and Blooms their keys into the orders scan, so the anti join's build
    side is no init plan."""
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


# ----------------------------------------------------------------------
# the magic set: a semi / anti wrap hashes the core, and its keys filter
# the leg's scan
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def keyed_db():
    """A selective outer table ``o`` and a wider ``i`` whose join key holds
    NULLs, calibrated to 1 GB, with its sqlite3 oracle."""
    o_rows = [(k, k % 40, k % 7) for k in range(400)]
    i_rows = [(None if j % 13 == 0 else j % 500, j % 11) for j in range(3000)]
    db = PushdownDB()
    db.load_table("o", o_rows, TableSchema.of("o_k:int", "o_v:int", "o_w:int"),
                  partitions=4)
    db.load_table("i", i_rows, TableSchema.of("i_k:int", "i_x:int"), partitions=4)
    db.calibrate_to_paper_scale(1e9)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE o (o_k, o_v, o_w)")
    oracle.execute("CREATE TABLE i (i_k, i_x)")
    oracle.executemany("INSERT INTO o VALUES (?, ?, ?)", o_rows)
    oracle.executemany("INSERT INTO i VALUES (?, ?)", i_rows)
    yield db, oracle
    oracle.close()


def _right_wraps(plan) -> list:
    """The right semi / anti joins of ``plan`` and its legs, recursively:
    the wraps that hash the core and ship its keys into the leg's scan."""
    return [
        node for p in _plans(plan) for node, _ in walk_plan(p.root)
        if isinstance(node, HashJoinNode) and node.join_type.startswith("right_")
    ]


KEYED_LEGS = [
    "SELECT o_k, o_w FROM o WHERE o_v = 3"
    " AND EXISTS (SELECT 1 FROM i WHERE i_k = o_k)",
    "SELECT o_k, o_w FROM o WHERE o_v = 3"
    " AND NOT EXISTS (SELECT 1 FROM i WHERE i_k = o_k)",
    "SELECT o_k FROM o WHERE o_v = 3 AND o_k IN (SELECT i_k FROM i)",
]


@pytest.mark.parametrize("mode", ["optimized", "adaptive"])
@pytest.mark.parametrize("sql", KEYED_LEGS, ids=["exists", "not-exists", "in"])
def test_a_leg_takes_its_outer_tables_keys(keyed_db, sql, mode):
    """The wrap hashes the core (the scan of ``o`` under its own WHERE)
    and ships its keys into a pushed scan of the leg's table
    (``i_k`` Bloomed), as a right semi / anti join; the leg's init plan is
    not run.  Rows match sqlite3, and the plan predicts the phases and
    requests it meters."""
    from repro.planner.costing import plan_phases

    db, oracle = keyed_db
    plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), mode)
    (join,) = _right_wraps(plan)
    assert join.join_type == ("right_anti" if "NOT EXISTS" in sql else "right_semi")
    assert plan.strategy == f"{mode} single-table" and plan.init_plans == []
    assert join.build.table.name == "o" and join.build_keys == ("o_k",)
    assert join.probe.bloom_attr == "i_k" and join.probe.pushdown
    assert "`- probe: scan i [select+bloom(i_k)]" in plan.describe()
    predicted = plan_phases(plan, db.ctx)[1]
    execution = execute_plan(db.ctx, plan)
    assert [p.name for p in predicted] == [p.name for p in execution.phases]
    assert plan.estimate.requests == execution.num_requests
    assert sorted(execution.rows) == sorted(oracle.execute(sql).fetchall())


@pytest.mark.parametrize("mode", ["optimized", "adaptive"])
def test_not_in_keeps_its_null_keys(keyed_db, mode):
    """``NOT IN`` never takes keys — its build must keep the NULL that
    empties its result — though ``IN`` over the same leg does."""
    db, oracle = keyed_db
    sql = "SELECT o_k FROM o WHERE o_v = 3 AND o_k {} (SELECT i_k FROM i)"
    for negated in (False, True):
        text = sql.format("NOT IN" if negated else "IN")
        plan, _ = plan_parsed(db.ctx, db.catalog, parse(text), mode)
        assert bool(_right_wraps(plan)) != negated, text
        expected = sorted(oracle.execute(text).fetchall())
        assert sorted(db.execute(text, mode=mode).rows) == expected, text
    assert not oracle.execute(sql.format("NOT IN")).fetchall()


def test_an_empty_magic_set(keyed_db):
    """A core WHERE no row passes: the hashed core ships no key, the
    leg's scan runs unfiltered as the plan priced, and the query returns
    sqlite3's (empty) rows."""
    db, oracle = keyed_db
    sql = (
        "SELECT o_k FROM o WHERE o_v = 99"
        " AND EXISTS (SELECT 1 FROM i WHERE i_k = o_k)"
    )
    plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), "optimized")
    (join,) = _right_wraps(plan)
    execution = execute_plan(db.ctx, plan)
    assert join.build.actual_rows == 0
    assert execution.rows == oracle.execute(sql).fetchall() == []
    assert plan.estimate.requests == execution.num_requests


def test_magic_sets_never_share_a_cache_entry():
    """In a cache session two queries whose cores differ each match
    sqlite3: the keyed scan is not in ``stores()`` (a Bloom probe), so it
    neither consults nor fills the cache."""
    o_rows = [(k, k % 40) for k in range(400)]
    i_rows = [(j % 500, j % 11) for j in range(3000)]
    db = PushdownDB(cache_bytes=1 << 22)
    db.load_table("o", o_rows, TableSchema.of("o_k:int", "o_v:int"), partitions=4)
    db.load_table("i", i_rows, TableSchema.of("i_k:int", "i_x:int"), partitions=4)
    db.calibrate_to_paper_scale(1e9)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE o (o_k, o_v)")
    oracle.execute("CREATE TABLE i (i_k, i_x)")
    oracle.executemany("INSERT INTO o VALUES (?, ?)", o_rows)
    oracle.executemany("INSERT INTO i VALUES (?, ?)", i_rows)
    for v in (3, 4, 3):
        sql = (
            f"SELECT o_k, o_v FROM o WHERE o_v = {v}"
            " AND EXISTS (SELECT 1 FROM i WHERE i_k = o_k)"
        )
        plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), "optimized")
        (join,) = _right_wraps(plan)
        scan = join.probe
        assert scan.stores() == ()
        execution = execute_plan(db.ctx, plan)
        assert scan.cache_status is None
        assert sorted(execution.rows) == sorted(oracle.execute(sql).fetchall())
    tables = {key[1] for key in db.cache._entries}
    assert tables == {"o"}, tables  # the cores' scans, never the leg's


def test_a_null_core_key_survives_not_exists():
    """A core row whose key is NULL meets no leg row, so ``NOT EXISTS``
    keeps it, as sqlite3 does; the hashed core ships only its non-NULL
    keys into the leg's scan, and ``EXISTS`` drops that row."""
    o_rows = [(None if k % 9 == 0 else k, k % 40) for k in range(400)]
    i_rows = [(j % 500, j % 11) for j in range(3000)]
    db = PushdownDB()
    db.load_table("o", o_rows, TableSchema.of("o_k:int", "o_v:int"), partitions=4)
    db.load_table("i", i_rows, TableSchema.of("i_k:int", "i_x:int"), partitions=4)
    db.calibrate_to_paper_scale(1e9)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE o (o_k, o_v)")
    oracle.execute("CREATE TABLE i (i_k, i_x)")
    oracle.executemany("INSERT INTO o VALUES (?, ?)", o_rows)
    oracle.executemany("INSERT INTO i VALUES (?, ?)", i_rows)
    for what in ("NOT EXISTS", "EXISTS"):
        sql = (
            f"SELECT o_k, o_v FROM o WHERE o_v = 9"
            f" AND {what} (SELECT 1 FROM i WHERE i_k = o_k)"
        )
        plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), "optimized")
        assert len(_right_wraps(plan)) == 1, sql
        rows = sorted(execute_plan(db.ctx, plan).rows, key=repr)
        assert rows == sorted(oracle.execute(sql).fetchall(), key=repr), sql
        assert ((None, 9) in rows) == (what == "NOT EXISTS"), sql


@pytest.fixture(scope="module")
def left_joined_db():
    """``o`` LEFT JOINs ``j`` (every third ``o_k`` unmatched, some ``j_v``
    NULL); ``i`` is keyed on ``j_v``'s range, with NULLs; with the
    sqlite3 oracle."""
    tables = {
        "o": (["o_k", "o_v"], [(k, k % 40) for k in range(400)]),
        "j": (["j_k", "j_v"], [
            (k, None if k % 7 == 0 else k * 7 % 800) for k in range(400) if k % 3
        ]),
        "i": (["i_k", "i_x"], [
            (None if n % 13 == 0 else n % 500, n % 11) for n in range(3000)
        ]),
    }
    db = PushdownDB()
    oracle = sqlite3.connect(":memory:")
    for name, (cols, rows) in tables.items():
        db.load_table(name, rows, TableSchema.of(*(f"{c}:int" for c in cols)),
                      partitions=4)
        oracle.execute(f"CREATE TABLE {name} ({', '.join(cols)})")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
    db.calibrate_to_paper_scale(1e9)
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("mode", ["optimized", "adaptive", "auto"])
@pytest.mark.parametrize("leg", [
    "j_v IN (SELECT i_k FROM i)",
    "EXISTS (SELECT 1 FROM i WHERE i_k = j_v)",
    "NOT EXISTS (SELECT 1 FROM i WHERE i_k = j_v)",
], ids=["in", "exists", "not-exists"])
def test_a_leg_keyed_on_a_left_joined_column(left_joined_db, leg, mode):
    """A semi / anti leg keyed on a LEFT JOINed table's column wraps the
    outer join: the core it may hash is ``o`` with ``j`` joined, NULL
    ``j_v`` rows included.  It plans, returns sqlite3's rows and meters
    the requests it predicts."""
    db, oracle = left_joined_db
    sql = f"SELECT o_k, j_v FROM o LEFT JOIN j ON j_k = o_k WHERE o_v = 3 AND {leg}"
    plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), mode)
    execution = execute_plan(db.ctx, plan)
    expected = sorted(oracle.execute(sql).fetchall(), key=repr)
    assert expected and sorted(execution.rows, key=repr) == expected
    assert plan.estimate.requests == execution.num_requests


def test_q4_takes_the_keys_in_a_fresh_session(monkeypatch):
    """Q4's leg (``l_commitdate < l_receiptdate``, a column–column
    comparison) is estimated on the load-time sample, so a fresh session
    hashes the core; it still does once the leg is measured, and meters
    less than the plan that hashes the leg."""
    from repro.planner import planner

    db = PushdownDB()
    load_suite_tables(db.ctx, db.catalog, 0.002, seed=1).close()
    db.calibrate_to_paper_scale(10e9)
    first, second = (db.execute(_sql("q04"), mode="optimized") for _ in range(2))
    assert "right_semi hash-join" in first.report.plan
    assert "right_semi hash-join" in second.report.plan
    db.ctx.feedback.reset()
    monkeypatch.setattr(planner, "_hashed_core", lambda *args: [])
    leg_hashed = db.execute(_sql("q04"), mode="optimized")
    assert "right_semi hash-join" not in leg_hashed.report.plan
    assert first.runtime_seconds < leg_hashed.runtime_seconds
    assert first.cost.total < leg_hashed.cost.total
    assert sorted(first.rows) == sorted(second.rows) == sorted(leg_hashed.rows)


def test_q22_auto_sees_the_right_anti_wrap():
    """``auto`` prices the same wraps: at the calibrated scale Q22's
    derived body hashes its customers and Blooms their keys into the
    orders scan, in the optimized candidate of the outer choice."""
    db = PushdownDB()
    load_suite_tables(db.ctx, db.catalog, 0.002, seed=1).close()
    db.calibrate_to_paper_scale(10e9)
    _, choice = plan_parsed(db.ctx, db.catalog, parse(_sql("q22")), "auto")
    (optimized,) = [p for p in choice.plans if p.mode == "optimized"]
    (join,) = _right_wraps(optimized)
    assert join.join_type == "right_anti" and join.probe.table.name == "orders"
    assert join.probe.bloom_attr == "o_custkey"


@pytest.mark.parametrize("mode", ["optimized", "adaptive"])
def test_both_orientations_of_every_keyed_wrap_run(mode, monkeypatch):
    """Over the 22 suite queries, every wrap that can hash the core
    (:func:`~repro.planner.planner._hashed_core` builds it) runs both
    ways: with that candidate never built (the leg hashed) and with it
    ranked first (the core hashed, its keys Bloomed into the leg's
    scan; a core join tree drained, not streamed).  Both return sqlite3's rows and meter the requests they
    predict."""
    from repro.experiments.harness import rows_match
    from repro.planner import planner

    db = PushdownDB()
    oracle = load_suite_tables(db.ctx, db.catalog, 0.002, seed=11)
    built: list = []
    hashed_core = planner._hashed_core

    def spy(*args):
        out = hashed_core(*args)
        built.extend(out)
        return out

    def core_first(objective):
        return lambda estimate: estimate.strategy != "core hashed"

    monkeypatch.setattr(planner, "_hashed_core", spy)
    keyed = []
    for name in ALL_QUERIES:
        query = parse(_sql(name))
        expected = oracle.execute(query.to_sql()).fetchall()
        built.clear()
        db.ctx.feedback.reset()
        plan_parsed(db.ctx, db.catalog, query, mode)
        if not built:
            continue
        keyed.append(name)
        for side in ("leg", "core"):
            db.ctx.feedback.reset()
            with monkeypatch.context() as patch:
                if side == "leg":
                    patch.setattr(planner, "_hashed_core", lambda *args: [])
                else:
                    patch.setattr(planner, "objective_key", core_first)
                plan, _ = plan_parsed(db.ctx, db.catalog, query, mode)
            assert bool(_right_wraps(plan)) == (side == "core"), (name, side)
            for wrap in _right_wraps(plan):  # a hashed core is drained, not streamed
                core = wrap.build
                while isinstance(core, (FilterNode, AdaptiveJoinNode)):
                    core = core.child
                assert not (isinstance(core, JoinNode) and core.stream_probe), (name, side)
            execution = execute_plan(db.ctx, plan)
            assert rows_match(execution.rows, expected), (name, side)
            assert plan.estimate.requests == execution.num_requests, (name, side)
    oracle.close()
    assert {"q04", "q21", "q22"} <= set(keyed), keyed
