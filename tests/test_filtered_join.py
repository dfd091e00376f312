"""The paper's filtered join from SQL: one phase for Bloom-free scans.

A pushdown plan whose two or more pushed scans carry no Bloom waits for
nothing, so its scans and local work meter as one ``select+join`` phase
(paper §V's filtered join), priced as the executor meters it: every
scan keeps its own lanes, and a scan answered by the session cache adds
no request, lane or ingest.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import calibrate_tables
from repro.experiments.tpch_suite import ALL_QUERIES, QUERY_DIR, load_suite_tables
from repro.planner.costing import CostWalk, init_phases
from repro.planner.database import PushdownDB
from repro.planner.nodes import ScanNode
from repro.planner.physical import execute_plan, walk_plan
from repro.planner.planner import plan_parsed
from repro.sqlparser.parser import parse

METERED = ("rows", "num_requests", "bytes_scanned", "bytes_returned",
           "bytes_transferred", "runtime_seconds")

#: Q18's one-phase time is checked on its own, expected to miss: its
#: HAVING leg is estimated at its input's rows (a group-by's est_rows is
#: its input's, ROADMAP item 22), so the semi join, group-by and top-K
#: above it are priced for 12,090 rows.  Its slowest lane, the storage
#: side, is still within 1 %.
Q18_NODE_ESTIMATE = "q18"


def _session(cache_bytes: int = 0) -> PushdownDB:
    db = PushdownDB(cache_bytes=cache_bytes)
    load_suite_tables(db.ctx, db.catalog, 0.002, seed=11).close()
    calibrate_tables(db.ctx, db.catalog, db.catalog.table_names(), 10e9)
    return db


@pytest.fixture(scope="module")
def suite_db():
    return _session()


@pytest.fixture(scope="module")
def cached_db():
    return _session(cache_bytes=1 << 26)


def _plan(db, query, mode):
    """``query``'s plan in ``mode``, planned with no feedback."""
    db.reset_feedback()
    return plan_parsed(db.ctx, db.catalog, query, mode)[0]


def _phase_times(db, plan, execution) -> tuple[float, float]:
    """The root's one phase time: predicted, metered."""
    [predicted] = CostWalk(db.ctx, plan.combined_label).phases(plan.root)
    return db.ctx.perf.phase_time(predicted), db.ctx.perf.phase_time(execution.phases[-1])


def test_bloom_free_pushdown_plans_run_one_phase(suite_db, cached_db):
    """Over the 22 TPC-H queries in ``optimized`` mode: a plan with two or
    more pushed scans and no Bloom runs its root as exactly one
    ``select+join`` phase, whose requests and time are the predicted
    ones; ``adaptive`` runs it byte for byte unless it re-planned; and
    in a cache session its cold run and its warm repeat, answered from
    the cache, issue the requests their plans predict."""
    ctx, perf = suite_db.ctx, suite_db.ctx.perf
    one_phase = []
    for name in ALL_QUERIES:
        query = parse((QUERY_DIR / f"{name}.sql").read_text())
        plan = _plan(suite_db, query, "optimized")
        scans = [n for n, _ in walk_plan(plan.root) if isinstance(n, ScanNode)]
        bloom_free = len(scans) > 1 and not any(n.bloom_attr for n in scans)
        assert (plan.combined_label == "select+join") == bloom_free, name
        if not bloom_free:
            continue
        one_phase.append(name)
        in_legs = [p.name for p in init_phases(plan, ctx)].count("select+join")
        [predicted] = CostWalk(ctx, plan.combined_label).phases(plan.root)
        cold = execute_plan(ctx, plan)
        assert cold.phases[-1].name == "select+join", name
        assert [p.name for p in cold.phases].count("select+join") == in_legs + 1
        assert plan.estimate.requests == cold.num_requests, name
        slowest = [max(map(perf.stream_time, p.streams)) for p in (predicted, cold.phases[-1])]
        assert slowest[0] == pytest.approx(slowest[1], rel=0.01), name
        if name != Q18_NODE_ESTIMATE:
            times = _phase_times(suite_db, plan, cold)
            assert times[0] == pytest.approx(times[1], rel=0.01), (name, times)

        adaptive = execute_plan(ctx, _plan(suite_db, query, "adaptive"))
        if adaptive.report.adaptive is None or not adaptive.report.adaptive.replans:
            for metric in METERED:
                assert getattr(adaptive, metric) == getattr(cold, metric), (name, metric)
            assert adaptive.cost.total == cold.cost.total, name

        cached_db.reset_cache()
        first_plan = _plan(cached_db, query, "optimized")
        first = execute_plan(cached_db.ctx, first_plan)
        # A scan an earlier leg stores (Q15's view, in its subquery and
        # its root) is predicted to replay.
        assert first_plan.estimate.requests == first.num_requests, name
        warm_plan = _plan(cached_db, query, "optimized")
        warm = execute_plan(cached_db.ctx, warm_plan)
        assert warm.report.cache.hit >= 1, name
        assert warm_plan.estimate.requests == warm.num_requests < first.num_requests
        # A replayed scan adds no lane and no ingest to the one phase.
        missed = [n for n, _ in walk_plan(warm_plan.root)
                  if isinstance(n, ScanNode) and n.cache_status == "miss"]
        assert warm.phases[-1].server_records == sum(n.actual_rows for n in missed)
        assert len(warm.phases[-1].streams) <= sum(n.table.partitions for n in missed)
        assert sorted(warm.rows) == sorted(cold.rows), name
    assert {"q14", "q19", Q18_NODE_ESTIMATE} <= set(one_phase)


@pytest.mark.xfail(strict=False, reason="Q18's HAVING leg is estimated at its"
                   " input's rows (ROADMAP item 22): 25.2 s predicted, 19.3 metered")
def test_q18_one_phase_time_is_predicted(suite_db):
    query = parse((QUERY_DIR / f"{Q18_NODE_ESTIMATE}.sql").read_text())
    plan = _plan(suite_db, query, "optimized")
    assert plan.combined_label == "select+join"
    times = _phase_times(suite_db, plan, execute_plan(suite_db.ctx, plan))
    assert times[0] == pytest.approx(times[1], rel=0.01)


def test_q21_pick_is_no_slower_than_the_bloomed_tree(suite_db):
    """The search's Q21 tree, ``supplier >< lineitem`` with no Bloom on
    lineitem, runs no slower than ``nation >< supplier >< lineitem >< orders``,
    which Blooms lineitem with the one nation's suppliers."""
    from repro.planner.binder import bind
    from repro.planner.planner import build_plan
    from repro.planner.subquery import prepare_query

    ctx, catalog = suite_db.ctx, suite_db.catalog
    query = parse((QUERY_DIR / "q21.sql").read_text())
    picked = execute_plan(ctx, _plan(suite_db, query, "optimized"))
    prepared = prepare_query(ctx, catalog, bind(query, catalog), "optimized")
    shape = ["hash", ["hash", ["hash", "nation", "supplier"], "lineitem"], "orders"]
    bloomed = build_plan(
        ctx, catalog, prepared.query, "optimized", shape=shape, prepared=prepared
    )
    assert "scan lineitem [select+bloom(l_suppkey)]" in bloomed.describe()
    forced = execute_plan(ctx, bloomed)
    assert sorted(picked.rows) == sorted(forced.rows)
    assert picked.runtime_seconds <= forced.runtime_seconds


def test_a_one_phase_plan_re_plans_among_bloom_free_trees():
    """``adaptive`` over a one-phase plan: ``ta ⋈ tb`` is estimated at 200
    rows and emits 4, so the rest is re-planned.  The new tree joins the 4
    rows to ``tc`` first, with no Bloom on ``tc`` — the phase its scans
    run in has already started — and the query stays one phase."""
    from repro.cloud.context import CloudContext
    from repro.engine.catalog import Catalog, load_table
    from repro.storage.schema import TableSchema

    ctx, catalog = CloudContext(), Catalog()
    tables = {
        "ta": (["a_k:int", "a_j:int"], [(i, i) for i in range(200)]),
        "tb": (["b_k:int"], [(196 + i,) for i in range(200)]),
        "tc": (["c_j:int", "c_v:int"], [(i % 200, i % 50) for i in range(2000)]),
        "td": (["d_v:int"], [(i,) for i in range(50)]),
    }
    for name, (columns, rows) in tables.items():
        load_table(ctx, catalog, name, rows, TableSchema.of(*columns), partitions=2)
    sql = (
        "SELECT COUNT(*) AS n FROM ta, tb, tc, td"
        " WHERE a_k = b_k AND a_j = c_j AND c_v = d_v"
    )
    plan = plan_parsed(ctx, catalog, parse(sql), "adaptive")[0]
    assert plan.combined_label == "select+join"
    execution = execute_plan(ctx, plan)
    assert execution.report.adaptive.replans == 1
    assert [p.name for p in execution.phases] == ["select+join"]
    assert execution.rows == [(40,)]
    assert not any(
        isinstance(n, ScanNode) and n.bloom_attr for n, _ in walk_plan(plan.root)
    )
