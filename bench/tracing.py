"""The traced run: boundary spans, exact counts, profile attribution.

Nothing inside ``src/`` is edited.  Three sources, all installed here:

1. *Boundary spans* — timing wrappers patched onto the engine's public
   callables **where the caller looks them up** (a module's imported
   name, a class's method), recording name, start, end, parent and op in
   memory.  A span's self time is its duration minus its children's; the
   engine is single-threaded under ``workers=1``, so children nest and
   never overlap.
2. *Exact counts* taken in the same wrappers, so ratios are measured
   where the work happens.
3. *Profile attribution* — one further pass under ``cProfile`` with
   built-in calls unhooked, so a built-in's time stays in the self time
   of the function that called it; self time is summed by module group.

End-to-end metrics never come from here: they are measured untraced.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import time
from collections import Counter
from contextlib import contextmanager

from bench import harness, probes

#: Span names, one per layer boundary.
SPAN_NAMES = (
    "facade.execute", "sqlparser.parse", "subquery.prepare", "chooser.choose",
    "planner.build", "physical.execute", "client.select", "client.get",
    "catalog.load", "strategy.run",
)

#: Root span per op kind (a reload's root is its ``catalog.load`` span).
_ROOT_SPAN = {"sql": "facade.execute", "strategy": "strategy.run"}

#: Profile groups: (group, path fragment under ``src/repro/``), first
#: match wins.  A group is a module or the rest of its package.
PROFILE_GROUPS = (
    ("sqlparser", "sqlparser/"),
    ("planner.subquery", "planner/subquery.py"),
    ("planner.physical", "planner/physical.py"),
    ("planner.planner", "planner/"),
    ("optimizer.cache", "optimizer/cache.py"),
    ("optimizer", "optimizer/"),
    ("cloud", "cloud/"),
    ("s3select", "s3select/"),
    ("storage.parquet", "storage/parquet.py"),
    ("storage.csvcodec", "storage/"),
    ("strategies.scans", "strategies/scans.py"),
    ("strategies", "strategies/"),
    ("strategies", "queries/"),
    ("expr.vector", "expr/vector.py"),
    ("expr.compiler", "expr/compiler.py"),
    ("expr.aggregates", "expr/aggregates.py"),
    ("engine.operators", "engine/operators/"),
    ("engine.batch", "engine/batch.py"),
    ("engine.catalog", "engine/catalog.py"),
    ("bloom", "bloom/"),
)
GROUP_NAMES = tuple(dict.fromkeys(group for group, _ in PROFILE_GROUPS))


class Tracer:
    """In-memory span and count recorder; written out when the run ends."""

    def __init__(self, db):
        #: [name, start, end, parent index or None, op name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        #: object key -> rows, to count the rows a whole-object GET reads
        self.partition_rows = {
            key: rows
            for name in db.table_names()
            for key, rows in zip(db.table(name).keys, db.table(name).partition_rows)
        }

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, args, result)`` after it."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def self_seconds(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time, and number of spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inside in zip(self.spans, child_time):
            self_s[name] += (end - start) - inside
            calls[name] += 1
        return self_s, calls


# ----------------------------------------------------------------------
# counts taken at the boundaries
# ----------------------------------------------------------------------

def _count_select(tracer: Tracer, args, result) -> None:
    counts = tracer.counts
    counts["client.select.bytes_scanned"] += result.bytes_scanned
    counts["client.select.bytes_returned"] += result.bytes_returned
    counts["client.select.rows_scanned"] += result.rows_scanned
    counts["client.select.rows_returned"] += len(result.rows)
    counts["client.select.term_evals"] += result.term_evals


def _count_get(tracer: Tracer, args, result) -> None:
    payloads = result if isinstance(result, list) else [result]
    tracer.counts["client.get.bytes"] += sum(len(p) for p in payloads)
    # A whole-object GET reads the partition's rows; a ranged GET one record.
    key = args[2]
    tracer.counts["client.get.rows"] += tracer.partition_rows.get(key, len(payloads))


def _count_execution(tracer: Tracer, args, result) -> None:
    tracer.counts["operators.self_s"] += sum(
        entry["self_seconds"] or 0.0
        for entry in result.details.get("operator_times", ())
    )


@contextmanager
def installed(tracer: Tracer):
    """Patch the boundary callables for the duration of the block."""
    import repro.optimizer.chooser as chooser
    import repro.planner.database as database
    import repro.planner.physical as physical
    import repro.planner.planner as planner
    import repro.planner.subquery as subquery
    from repro.cloud.client import S3Client

    execute_plan = tracer.wrap(
        "physical.execute", physical.execute_plan, _count_execution
    )
    patches = [
        (planner, "parse", tracer.wrap("sqlparser.parse", planner.parse)),
        (subquery, "prepare_query",
         tracer.wrap("subquery.prepare", subquery.prepare_query)),
        (chooser, "choose_planner_mode",
         tracer.wrap("chooser.choose", chooser.choose_planner_mode)),
        (planner, "build_plan", tracer.wrap("planner.build", planner.build_plan)),
        (planner, "execute_plan", execute_plan),
        (physical, "execute_plan", execute_plan),
        (S3Client, "select_object_content", tracer.wrap(
            "client.select", S3Client.select_object_content, _count_select)),
        (database, "load_table", tracer.wrap("catalog.load", database.load_table)),
    ]
    patches += [
        (S3Client, method,
         tracer.wrap("client.get", getattr(S3Client, method), _count_get))
        for method in ("get_object", "get_object_range", "get_object_ranges")
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def traced_run(session: harness.Session) -> dict:
    """Untraced pass, traced pass, profiled pass, probes; per-layer metrics."""
    db = session.db
    plain = harness.run_pass(session)

    tracer = Tracer(db)
    cache = db.cache
    cache_before = cache.stats.summary() if cache is not None else {}
    cache_peak = 0

    def rooted(op):
        def run(db):
            nonlocal cache_peak
            tracer.op = op.name
            if op.kind in _ROOT_SPAN:
                with tracer.span(_ROOT_SPAN[op.kind]):
                    result = op.run(db)
            else:
                result = op.run(db)
            if cache is not None:
                cache_peak = max(cache_peak, cache.current_bytes)
            return result
        return dataclasses.replace(op, run=run)

    with installed(tracer):
        traced = harness.run_pass(dataclasses.replace(
            session, ops=[rooted(op) for op in session.ops]
        ))
    cache_after = cache.stats.summary() if cache is not None else {}

    profile = cProfile.Profile(builtins=False)
    profiled = harness.run_pass(dataclasses.replace(session, ops=[
        dataclasses.replace(op, run=lambda db, op=op: profile.runcall(op.run, db))
        for op in session.ops
    ]))
    group_self, group_calls, ungrouped = attribute_profile(profile)

    metrics = _span_metrics(tracer)
    metrics["trace.overhead_ratio"] = (
        _ratio(sum(traced.calibrated), sum(plain.calibrated)), "ratio"
    )
    metrics.update(_count_metrics(tracer, traced.result_rows))
    metrics.update(_cache_metrics(
        {k: cache_after[k] - cache_before[k] for k in cache_after}, cache_peak
    ))
    group_total = sum(group_self.values())
    for group in GROUP_NAMES:
        metrics[f"{group}.self_share"] = (
            _ratio(group_self[group], group_total), "ratio"
        )
        metrics[f"{group}.calls"] = (group_calls[group], "count")
    metrics.update(probes.run_probes(session))

    failed = sorted({n for p in (plain, traced, profiled) for n in p.failed})
    return {
        "metrics": metrics,
        "ops": len(session.ops),
        "failed_ops": failed,
        "info": {
            "untraced_pass_s": sum(plain.calibrated),
            "traced_pass_s": sum(traced.calibrated),
            "profiled_pass_raw_s": sum(profiled.raw),
            "profile_ungrouped_s": ungrouped,
            "spans_recorded": len(tracer.spans),
        },
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in tracer.spans
        ],
    }


def _span_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    self_s, calls = tracer.self_seconds()
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    root_names = set(_ROOT_SPAN.values())
    root_total = sum(
        end - start for name, start, end, parent, _ in tracer.spans
        if parent is None and name in root_names
    )
    root_self = sum(self_s[name] for name in root_names)
    metrics["trace.unattributed_share"] = (_ratio(root_self, root_total), "ratio")
    return metrics


def _count_metrics(tracer: Tracer, result_rows: int) -> dict[str, tuple[float, str]]:
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("bytes_scanned", "bytes_returned", "rows_scanned",
                 "rows_returned", "term_evals"):
        unit = "B" if name.startswith("bytes") else "count"
        metrics[f"client.select.{name}"] = (counts[f"client.select.{name}"], unit)
    metrics["client.select.return_ratio"] = (_ratio(
        counts["client.select.bytes_returned"], counts["client.select.bytes_scanned"]
    ), "ratio")
    metrics["client.get.bytes"] = (counts["client.get.bytes"], "B")
    metrics["result.rows"] = (result_rows, "count")
    metrics["scan.rows_per_result_row"] = (_ratio(
        counts["client.select.rows_scanned"] + counts["client.get.rows"],
        result_rows,
    ), "ratio")
    physical_total = sum(
        end - start for name, start, end, _, _ in tracer.spans
        if name == "physical.execute"
    )
    metrics["operators.attributed_share"] = (
        _ratio(counts["operators.self_s"], physical_total), "ratio"
    )
    return metrics


def _cache_metrics(delta: dict, peak_bytes: int) -> dict[str, tuple[float, str]]:
    """Cache counters over the traced pass; all zero with the cache off."""
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("hits", "subsumed", "misses", "evictions", "invalidations"):
        metrics[f"cache.{name}"] = (delta.get(name, 0), "count")
    served = delta.get("hits", 0) + delta.get("subsumed", 0)
    metrics["cache.hit_rate"] = (
        _ratio(served, served + delta.get("misses", 0)), "ratio"
    )
    metrics["cache.bytes"] = (peak_bytes, "B")
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# profile attribution
# ----------------------------------------------------------------------

def _group_of(filename: str) -> str | None:
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    relative = filename[at + len(marker):]
    for group, fragment in PROFILE_GROUPS:
        if relative.startswith(fragment):
            return group
    return None


def attribute_profile(profile: cProfile.Profile) -> tuple[Counter, Counter, float]:
    """Self seconds and calls per group, plus the seconds in no group.

    Built-in calls are not hooked, so their time is already inside the
    calling function's self time.  What is left outside every group is
    Python code of the stdlib and ``repro.common`` — measured at under
    0.1 % of a pass, reported but not spread over the groups.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    ungrouped = 0.0
    for func, (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        group = _group_of(func[0])
        if group is None:
            ungrouped += tottime
        else:
            self_s[group] += tottime
            calls[group] += ncalls
    return self_s, calls, ungrouped
