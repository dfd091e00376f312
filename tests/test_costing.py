"""The memoized cost walk prices every plan as a walk from scratch would.

Random join graphs over the SQL fuzzer's tables (its four, plus three
copies under new column prefixes): 2–7 tables joined on their keys along
a random spanning tree, sometimes with one more edge closing a cycle,
random per-table predicates, and join feedback off or on (on: the query
ran once in the session first, so the search reads measured join
cardinalities).  The reference is the plain walk the memo replaced:
every node of a subtree visited, each operator's CPU added in place to
the last phase, nothing reused.

The walk charges each operator's ``est_cpu``: the last tests check that a
local operator's is the CPU its run bills when its input estimate is
exact, and that only the hash-join builders assign one.
"""

from __future__ import annotations

import ast as pyast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import one_batch
from test_sql_differential import _COLUMNS, SEED, _make_tables, _simple_predicate

from repro.cloud.metrics import Phase
from repro.optimizer.cost import _phase, price_phases
from repro.optimizer.joinorder import JoinOrderSearch, build_join_graph
from repro.planner.binder import bind
from repro.planner.costing import CostWalk, init_phases
from repro.planner.database import PushdownDB
from repro.planner.joins import CrossProductNode, MaterializedNode
from repro.planner.nodes import (
    FilterNode,
    GroupByNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TopKNode,
)
from repro.planner.physical import ExecState, execute_plan
from repro.planner.planner import plan_parsed
from repro.sqlparser import ast
from repro.sqlparser.parser import parse, parse_expression
from repro.storage.schema import TableSchema

#: The fuzzer's tables, then t4-t6: copies of t0-t2 under their own names.
_COPIES = {"t4": "t0", "t5": "t1", "t6": "t2"}


def _columns(table: str) -> list[tuple[str, str]]:
    source = _COPIES.get(table, table)
    return [(c.replace(source, table, 1), kind) for c, kind in _COLUMNS[source]]


@pytest.fixture(scope="module")
def db():
    tables = _make_tables(random.Random(SEED))
    db = PushdownDB()
    for name in [*tables, *_COPIES]:
        schema, rows = tables[_COPIES.get(name, name)]
        renamed = TableSchema.of(*(
            f"{column}:{field.type}"
            for (column, _), field in zip(_columns(name), schema.columns)
        ))
        db.load_table(name, rows, renamed, partitions=3)
    return db


def _random_query(rng: random.Random) -> str:
    """A connected join of 2–7 tables with random filters and tail."""
    tables = rng.sample(sorted(["t0", "t1", "t2", "t3", *_COPIES]), rng.randint(2, 7))
    pairs = [(rng.choice(tables[:i]), tables[i]) for i in range(1, len(tables))]
    if len(tables) > 2 and rng.random() < 0.3:
        a, b = rng.sample(tables, 2)
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    where = [f"{a}_key = {b}_key" for a, b in pairs]
    for table in tables:
        if rng.random() < 0.6:
            where.append(_simple_predicate(rng, *rng.choice(_columns(table)[1:])))
    group = _columns(rng.choice(tables))[-1][0]
    tail = rng.choice([
        ("COUNT(*) AS n", ""),
        (f"{group}, COUNT(*) AS n", f" GROUP BY {group} ORDER BY {group}"),
    ])
    return (
        f"SELECT {tail[0]} FROM {', '.join(tables)}"
        f" WHERE {' AND '.join(where)}{tail[1]}"
    )


def _walked_alone(node, ctx, combined_label: str | None, before=()) -> list[Phase]:
    """``node``'s predicted phases by the plain walk, after ``before``
    (its plan's init phases, for the root): the reference.  CPU with no
    phase of the subtree's own yet goes to the last earlier phase, or to
    a ``local`` phase when there is none or the subtree is one combined
    phase."""
    phases: list[Phase] = [replace(p) for p in before]  # charged in place
    start = len(phases)

    def walk(n) -> None:
        if isinstance(n, MaterializedNode):
            return
        children = n.children()
        if not children:
            phases.extend(n.predicted_phases(ctx, combined_label is not None))
        for child in children:
            walk(child)
        if n.est_cpu:
            if len(phases) == start and (combined_label is not None or not start):
                phases.append(_phase("local", 1, requests=0.0))
            phases[-1].server_cpu_seconds += n.est_cpu

    walk(node)
    own = phases[start:]
    if combined_label is None or not own:
        return phases
    # One phase keeping every part's own lanes.
    return phases[:start] + [Phase(
        combined_label,
        [lane for p in own for lane in p.streams],
        server_cpu_seconds=sum(p.server_cpu_seconds for p in own),
        server_records=sum(p.server_records for p in own),
        server_fields=sum(p.server_fields for p in own),
    )]


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


@pytest.mark.parametrize("feedback", [False, True], ids=["cold", "feedback"])
@pytest.mark.parametrize("seed", range(12))
def test_memoized_pricing_equals_a_walk_from_scratch(db, seed, feedback):
    rng = random.Random(SEED + 100 + seed)
    sql = _random_query(rng)
    ctx, catalog = db.ctx, db.catalog
    ctx.feedback.reset()
    if feedback:
        db.execute(sql, mode="optimized")
        assert ctx.feedback.has_join_feedback(), sql

    # Every candidate of the search, priced through its shared memo, is
    # its fresh rebuild priced by an empty one, and by the plain walk.
    graph = build_join_graph(bind(parse(sql), catalog))
    decision = JoinOrderSearch(ctx, graph).search()
    assert decision.candidates, sql
    for candidate in decision.candidates:
        fresh = JoinOrderSearch(ctx, graph)
        rebuilt = fresh.build_tree(candidate.notes["tree"])
        assert fresh.price_tree(rebuilt) == candidate, sql
        assert price_phases(
            ctx, candidate.strategy, _walked_alone(rebuilt, ctx, None),
            candidate.notes,
        ) == candidate, sql

    # One walk annotates a whole plan as pricing each subtree alone does.
    for mode in ("baseline", "optimized"):
        plan, _ = plan_parsed(ctx, catalog, parse(sql), mode)
        for node in _nodes(plan.root):
            before = init_phases(plan, ctx) if node is plan.root else []
            phases = _walked_alone(node, ctx, plan.combined_label, before)
            if not phases:
                continue
            alone = price_phases(ctx, plan.mode, phases, {"plan": plan.strategy})
            assert node.est_cost == alone.total_cost, (sql, mode, node.describe())
            if node is plan.root:
                assert plan.estimate == alone, (sql, mode)


def test_a_combined_phase_keeps_each_scans_lanes():
    """A ``select+join`` phase over a big and a small table predicts the
    big table's lane as its slowest, as the executor meters one lane per
    request — not the average lane of an even split over all of them."""
    db = PushdownDB()
    db.load_table(
        "big", [(1000 + i % 500, 1000 + i % 9000) for i in range(8000)],
        TableSchema.of("b_k:int", "b_v:int"), partitions=4,
    )
    db.load_table(
        "small", [(1000 + i,) for i in range(500)],
        TableSchema.of("s_k:int"), partitions=2,
    )
    plan, _ = plan_parsed(
        db.ctx, db.catalog,
        parse("SELECT SUM(b_v) AS s FROM small, big WHERE s_k = b_k"), "optimized",
    )
    assert plan.combined_label == "select+join"
    [predicted] = CostWalk(db.ctx, plan.combined_label).phases(plan.root)
    [metered] = execute_plan(db.ctx, plan).phases
    assert (metered.name, len(metered.streams)) == ("select+join", 6)

    def slowest(phase):
        return max(map(db.ctx.perf.stream_time, phase.streams))

    assert slowest(predicted) == pytest.approx(slowest(metered), rel=1e-9)
    assert slowest(predicted) > slowest(_phase(
        "even", 6, scan_bytes=predicted.select_scan_bytes
    ))


# ----------------------------------------------------------------------
# Each local operator prices what its run bills
# ----------------------------------------------------------------------

class _Rows(PlanNode):
    """A leaf yielding fixed rows, estimated exactly."""

    def __init__(self, names, rows):
        self.names, self.rows = list(names), list(rows)
        self.est_rows = float(len(self.rows))

    def describe(self) -> str:
        return "rows"

    def run(self, state):
        return list(self.names), one_batch(self.rows, self.names)


def _billed(ctx, node) -> float:
    """The local CPU ``node``'s run charges, its stream drained."""
    state = ExecState(ctx)
    list(state.run(node)[1])
    return state.tally.seconds


_NAMES = ["k", "g", "x", "y"]
_TABLE = [(i, i % 3, float(i) * 1.5, i * i - 40) for i in range(23)]


def _order(*keys):
    return [ast.OrderItem(ast.Column(k), descending=i % 2 == 1)
            for i, k in enumerate(keys)]


def _items(sql: str):
    return list(parse(f"SELECT {sql} FROM t").select_items)


@pytest.mark.parametrize("kind", [
    "filter", "project", "group-by", "aggregate", "sort", "top-k", "cross",
])
def test_a_local_operator_estimates_the_cpu_its_run_bills(db, kind):
    """Over a child whose estimate is exact, ``est_cpu`` is the CPU the
    node's run charges: AVG is one aggregate input, ``SUM(x) / SUM(y)``
    two."""
    child = _Rows(_NAMES, _TABLE)
    node = {
        "filter": lambda: FilterNode(child, parse_expression("x < 9 OR y > 0")),
        "project": lambda: ProjectNode(child, _items("k, x + y AS s, g")),
        "group-by": lambda: GroupByNode(
            child, [ast.Column("g")],
            _items("AVG(x) AS a, SUM(x) / SUM(y) AS r, COUNT(*) AS n"),
        ),
        "aggregate": lambda: GroupByNode(child, (), _items("AVG(y) AS a")),
        "sort": lambda: SortNode(child, _order("g", "x")),
        "top-k": lambda: TopKNode(child, _order("y"), 5),
        "cross": lambda: _cross(child),
    }[kind]()
    assert node.est_cpu > 0
    assert node.est_cpu == pytest.approx(_billed(db.ctx, node), rel=1e-12)


def _cross(build):
    probe = _Rows(["p", "q"], [(i, -i) for i in range(7)])
    node = CrossProductNode(build, probe)
    node.est_rows = build.est_rows * probe.est_rows
    return node


def test_a_sql_residual_filter_is_priced(db):
    """The planner's residual filter over a join, run over the rows the
    join yields, estimates what it bills."""
    sql = (
        "SELECT t0_a, t1_c FROM t0, t1"
        " WHERE t0_key = t1_key AND t0_a < t1_c + 5"
    )
    plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), "optimized")
    (residual,) = [n for n in _nodes(plan.root) if isinstance(n, FilterNode)]
    state = ExecState(db.ctx)
    names, batches = state.drain(residual.child)
    rows = [row for batch in batches for row in batch]
    residual.child = _Rows(names, rows)
    assert rows and residual.est_cpu > 0
    assert residual.est_cpu == pytest.approx(_billed(db.ctx, residual), rel=1e-12)


def test_only_hash_join_builders_assign_an_estimated_cpu():
    """A local operator owns its ``est_cpu``: under ``src/`` the only
    assignments are the three hash-join builders'."""
    import repro

    root = Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        tree = pyast.parse(path.read_text())
        for func in pyast.walk(tree):
            if not isinstance(func, pyast.FunctionDef):
                continue
            for node in pyast.walk(func):
                targets = (
                    node.targets if isinstance(node, pyast.Assign)
                    else [node.target] if isinstance(node, pyast.AugAssign)
                    else []
                )
                if any(
                    isinstance(t, pyast.Attribute) and t.attr == "est_cpu"
                    for t in targets
                ):
                    sites.add((str(path.relative_to(root)), func.name))
    assert sites == {
        ("optimizer/joinorder.py", "combine"),
        ("planner/planner.py", "_apply_sub_joins"),
        ("strategies/join.py", "_join_plan"),
    }
