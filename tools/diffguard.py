"""Dump every simulated-clock observable to JSON; run under parent and change, diff.

usage: diffguard.py ROOT OUT.json [sql] [strategies] [fuzz] [repeat] [fig1 fig5 ...]
"""
import json, sys
root = sys.argv[1]
sys.path.insert(0, root + "/src")
sys.path.insert(0, root)
from pathlib import Path
from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog
from repro.experiments import ALL_EXPERIMENTS

sections = sys.argv[3:]
unknown = [s for s in sections
           if s not in ("sql", "strategies", "fuzz", "repeat", *ALL_EXPERIMENTS)]
if unknown:
    sys.exit(f"diffguard: unknown section(s) {', '.join(unknown)}; known: sql,"
             f" strategies, fuzz, repeat, {', '.join(ALL_EXPERIMENTS)}")
out = {}

# Every statement an op prepares, as its tree and as its wire text: a
# refactor may change a tree's ``repr`` (a field renamed) but must keep
# what S3 Select receives byte for byte.
from repro.s3select.engine import PreparedSelect

statements = []
_prepare = PreparedSelect.__init__


def _recording(self, *args, **kwargs):
    _prepare(self, *args, **kwargs)
    statements.append((repr(self.query), self.query.to_sql()))


PreparedSelect.__init__ = _recording


def dump(ctx, mark, ex):
    records = ctx.metrics.records_since(mark)
    prepared = list(statements)
    statements.clear()
    return {
        "rows": repr(ex.rows),
        "names": list(ex.column_names),
        "requests": ex.num_requests,
        "n_records": len(records),
        "bytes_scanned": ex.bytes_scanned,
        "bytes_returned": ex.bytes_returned,
        "bytes_transferred": ex.bytes_transferred,
        "term_evals": sum(r.term_evals for r in records),
        "phases": [
            (p.name, len(p.streams), p.server_records, repr(p.server_fields))
            for p in ex.phases
        ],
        "statements": [tree for tree, _ in prepared],
        "statements_sql": [text for _, text in prepared],
        "phase_cpu": [p.server_cpu_seconds for p in ex.phases],
        "runtime_seconds": ex.runtime_seconds,
        "cost_total": ex.cost.total,
        "strategy": ex.strategy,
        # The execution record's shape: its extras' names and which of
        # the optional parts the run filled in.
        "extras": sorted(ex.report.extras),
        "report": [part for part in ("optimizer", "adaptive", "cache")
                   if getattr(ex.report, part) is not None],
    }


def dump_sql(ctx, catalog, query):
    """One record per mode for a parsed query: what it metered, plus its
    plan's EXPLAIN text and predicted profile and the auto pick."""
    from repro.planner.planner import execute_parsed, plan_parsed

    recs = {}
    for mode in ("baseline", "optimized", "auto", "adaptive"):
        ctx.feedback.reset()
        # The predicted side: planning issues no requests.
        plan, _ = plan_parsed(ctx, catalog, query, mode)
        est = plan.estimate
        mark = ctx.metrics.mark()
        statements.clear()
        ex = execute_parsed(ctx, catalog, query, mode)
        rec = dump(ctx, mark, ex)
        rec["explain"] = plan.describe()
        rec["estimate"] = [repr(v) for v in (
            est.requests, est.bytes_scanned, est.bytes_returned,
            est.bytes_transferred, est.runtime_seconds, est.total_cost,
        )]
        rec["picked"] = (ex.report.optimizer or {}).get("picked")
        rec["phase_cpu"] = [repr(c) for c in rec["phase_cpu"]]
        rec["runtime_seconds"] = repr(rec["runtime_seconds"])
        rec["cost_total"] = repr(rec["cost_total"])
        recs[mode] = rec
    return recs


if "sql" in sections:
    from repro.experiments.tpch_suite import ALL_QUERIES, load_suite_tables
    from repro.sqlparser.parser import parse

    qdir = Path(root) / "benchmarks" / "tpch" / "queries"
    for calibrated in (False, True):
        ctx, catalog = CloudContext(), Catalog()
        load_suite_tables(ctx, catalog, 0.002, seed=11).close()
        if calibrated:
            total = sum(catalog.get(n).total_bytes for n in catalog.table_names())
            ctx.calibrate_to_paper_scale(total, 10e9)
        for name in ALL_QUERIES:
            query = parse((qdir / f"{name}.sql").read_text())
            for mode, rec in dump_sql(ctx, catalog, query).items():
                out[f"tpch/{'cal' if calibrated else 'raw'}/{name}/{mode}"] = rec

if "fuzz" in sections:
    # The SQL fuzzer's queries over its four tables, as its pinned seed
    # generates them: loaded from ROOT's own test module by path.
    import importlib.util
    import random
    from repro.planner.database import PushdownDB
    from repro.sqlparser.parser import parse

    spec = importlib.util.spec_from_file_location(
        "sql_differential", Path(root) / "tests" / "test_sql_differential.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    db = PushdownDB()
    for name, (schema, rows) in fuzz._make_tables(random.Random(fuzz.SEED)).items():
        db.load_table(name, rows, schema, partitions=4)
    rng = random.Random(fuzz.SEED + 1)
    queries = [fuzz._generate_query(rng) for _ in range(fuzz.NUM_QUERIES)]
    for i, sql in enumerate(queries + fuzz._value_queries()):
        for mode, rec in dump_sql(db.ctx, db.catalog, parse(sql)).items():
            rec["sql"] = sql
            out[f"fuzz/{i:03d}/{mode}"] = rec

if "strategies" in sections:
    from bench import harness
    from bench.workloads import WORKLOADS
    from repro.queries.tpch_queries import TPCH_QUERIES
    from repro.sqlparser.parser import parse_expression
    from repro.strategies.extensions import (
        multirange_indexed_filter, partial_pushdown_group_by,
    )
    from repro.strategies.filter import FilterQuery
    from repro.strategies.groupby import AggSpec, GroupByQuery, filtered_group_by
    from repro.strategies.join import filtered_join
    from repro.queries.micro import _JOIN_QUERY

    for seed in (1, 2):
        session = harness.open_session(WORKLOADS["paper_strategies"](None, seed), loads=1)
        db = session.db
        n = len({t.name: t for t in session.tables}["filter_data"].rows)
        extra = {
            "filtered_join": lambda db: filtered_join(db.ctx, db.catalog, _JOIN_QUERY),
            "filtered_group_by": lambda db: filtered_group_by(
                db.ctx, db.catalog, GroupByQuery(
                    table="skewed", group_columns=["g0"],
                    aggregates=[AggSpec("sum", "v0"), AggSpec("avg", "v1"),
                                AggSpec("count", "v2"), AggSpec("min", "v3")],
                    predicate=parse_expression("v0 > 10"),
                )),
            "partial_pushdown_group_by": lambda db: partial_pushdown_group_by(
                db.ctx, db.catalog, GroupByQuery(
                    table="skewed", group_columns=["g0"],
                    aggregates=[AggSpec("sum", "v0"), AggSpec("avg", "v1"),
                                AggSpec("count", "v2"), AggSpec("max", "v3")],
                )),
            "multirange_indexed_filter": lambda db: multirange_indexed_filter(
                db.ctx, db.catalog, FilterQuery(
                    table="filter_data",
                    predicate=parse_expression(f"key < {max(7, n // 20)}"),
                )),
        }
        for q in ("q1", "q3", "q17", "q19"):
            extra[f"{q}.baseline"] = (
                lambda db, q=q: TPCH_QUERIES[q].baseline(db.ctx, db.catalog))
            extra[f"{q}.optimized"] = (
                lambda db, q=q: TPCH_QUERIES[q].optimized(db.ctx, db.catalog))
        runs = [(op.name, op.run) for op in session.ops] + list(extra.items())
        session.workload.begin_pass(db)
        for name, run in runs:
            mark = db.ctx.metrics.mark()
            statements.clear()
            ex = run(db)
            out[f"strategy/seed{seed}/{name}"] = dump(db.ctx, mark, ex)

if "repeat" in sections:
    # One pass of the cache-enabled session: cache hits, subsumption and
    # the reloads that evict.
    from bench import harness
    from bench.workloads import WORKLOADS

    session = harness.open_session(WORKLOADS["repeat_session"](None, 1), loads=1)
    db = session.db
    session.workload.begin_pass(db)
    for op in session.ops:
        mark = db.ctx.metrics.mark()
        statements.clear()
        result = op.run(db)
        if op.kind != "sql":
            out[f"repeat/{op.name}"] = {"kind": op.kind, "rows": result.num_rows}
            continue
        rec = dump(db.ctx, mark, result)
        cache = result.report.cache
        rec["cache"] = None if cache is None else [
            cache.hit, cache.subsumed, cache.miss, cache.stores,
        ]
        out[f"repeat/{op.name}"] = rec

for fig in (s for s in sections if s in ALL_EXPERIMENTS):
    result = ALL_EXPERIMENTS[fig]()
    out[fig] = {"rows": repr(result.rows), "notes": repr(result.notes),
                "table": result.to_table()}
json.dump(out, open(sys.argv[2], "w"), indent=1, sort_keys=True)
print("wrote", sys.argv[2], len(out))
