"""The memoized cost walk prices every plan as a walk from scratch would.

Random join graphs over the SQL fuzzer's tables (its four, plus three
copies under new column prefixes): 2–7 tables joined on their keys along
a random spanning tree, sometimes with one more edge closing a cycle,
random per-table predicates, and join feedback off or on (on: the query
ran once in the session first, so the search reads measured join
cardinalities).  The reference is the plain walk the memo replaced:
every node of a subtree visited, each operator's CPU added in place to
the last phase, nothing reused.
"""

from __future__ import annotations

import random

import pytest
from test_sql_differential import _COLUMNS, SEED, _make_tables, _simple_predicate

from repro.cloud.metrics import Phase
from repro.optimizer.cost import _phase, price_phases
from repro.optimizer.joinorder import JoinOrderSearch, build_join_graph
from repro.planner.binder import bind
from repro.planner.costing import init_phases
from repro.planner.database import PushdownDB
from repro.planner.joins import MaterializedNode
from repro.planner.planner import plan_parsed
from repro.sqlparser.parser import parse
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


def _walked_alone(node, ctx, combined_label: str | None) -> list[Phase]:
    """``node``'s predicted phases by the plain walk: the reference."""
    phases: list[Phase] = []

    def walk(n) -> None:
        if isinstance(n, MaterializedNode):
            return
        children = n.children()
        if not children:
            phases.extend(n.predicted_phases(ctx, combined_label is not None))
        for child in children:
            walk(child)
        if n.est_cpu:
            if not phases:
                phases.append(_phase("local", 1, requests=0.0))
            phases[-1].server_cpu_seconds += n.est_cpu

    walk(node)
    if combined_label is None or not phases:
        return phases
    return [_phase(
        combined_label,
        sum(len(p.streams) for p in phases),
        scan_bytes=sum(p.select_scan_bytes for p in phases),
        returned_bytes=sum(p.select_returned_bytes for p in phases),
        get_bytes=sum(p.get_bytes for p in phases),
        term_evals=sum(s.term_evals for p in phases for s in p.streams),
        cpu_seconds=sum(p.server_cpu_seconds for p in phases),
        records=sum(p.server_records for p in phases),
        fields=sum(p.server_fields for p in phases),
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
            phases = before + _walked_alone(node, ctx, plan.combined_label)
            if not phases:
                continue
            alone = price_phases(ctx, plan.mode, phases, {"plan": plan.strategy})
            assert node.est_cost == alone.total_cost, (sql, mode, node.describe())
            if node is plan.root:
                assert plan.estimate == alone, (sql, mode)
