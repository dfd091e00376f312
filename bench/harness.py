"""Set-up, timed passes and the end-to-end metrics of one workload run.

Ops run pass-major (``for pass: for op``) in a closed loop with one
client; an op's figure is the *minimum* over the passes of its
calibrated time (see :mod:`bench.timing`), so there is no discarded
warm-up pass — the minimum discards it.  Rows are checked against the
op's oracle on every pass, outside the timed region.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from bench.oracle import SqliteOracle, rows_match
from bench.timing import CalibratedClock
from bench.workloads import Op, TableSpec, Workload

#: Fewest passes a timing may rest on.
MIN_PASSES = 3
#: Times each table is loaded during set-up (each load replaces the last).
SETUP_LOADS = 2
#: Ops summed into ``slow5_s``.
SLOWEST = 5


@dataclass
class Session:
    """A loaded workload: the database, its ops and what set-up cost."""

    workload: Workload
    tables: list[TableSpec]
    db: object
    ops: list[Op]
    setup_s: float
    setup_raw_s: float


@dataclass
class PassResult:
    """What one pass over the ops measured."""

    calibrated: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    sim_runtime_s: float = 0.0
    sim_cost_usd: float = 0.0
    failed: list[str] = field(default_factory=list)
    result_rows: int = 0


def open_session(workload: Workload, loads: int = SETUP_LOADS) -> Session:
    """Generate, load (timed) and mirror the tables; build the ops.

    ``setup_s`` is the sum over tables of the best calibrated
    ``load_table`` time out of ``loads`` back-to-back loads.  Generating
    the rows and filling sqlite are the benchmark's own work and are not
    in it.
    """
    from repro import PushdownDB

    tables = workload.tables()
    db = PushdownDB(**workload.session_kwargs(tables))
    clock = CalibratedClock()
    setup_s = setup_raw_s = 0.0
    for spec in tables:
        samples = [
            clock.measure(lambda: _load(db, spec))[1:] for _ in range(loads)
        ]
        setup_raw_s += min(raw for raw, _ in samples)
        setup_s += min(calibrated for _, calibrated in samples)
    db.calibrate_to_paper_scale(workload.paper_bytes)

    oracle = SqliteOracle()
    try:
        for spec in tables:
            if spec.in_oracle:
                oracle.load(spec.name, spec.rows, spec.schema)
        ops = workload.ops(tables, oracle)
    finally:
        oracle.close()
    return Session(workload, tables, db, ops, setup_s, setup_raw_s)


def _load(db, spec: TableSpec):
    return db.load_table(spec.name, spec.rows, spec.schema, **spec.load_kwargs)


def run_pass(session: Session) -> PassResult:
    """Run every op once, in order, timing and checking each."""
    session.workload.begin_pass(session.db)
    gc.collect()
    clock = CalibratedClock()
    result = PassResult()
    rows_by_op: dict[str, list[tuple]] = {}
    for op in session.ops:
        try:
            outcome, raw, calibrated = clock.measure(lambda: op.run(session.db))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print(f"  op {op.name} raised {type(exc).__name__}: {exc}")
            result.failed.append(op.name)
            result.raw.append(0.0)
            result.calibrated.append(0.0)
            clock.resync()
            continue
        result.raw.append(raw)
        result.calibrated.append(calibrated)
        if op.kind == "reload":
            ok = outcome.num_rows == op.expect_rows
        else:
            rows = outcome.rows
            rows_by_op[op.name] = rows
            result.result_rows += len(rows)
            result.sim_runtime_s += outcome.runtime_seconds
            result.sim_cost_usd += outcome.cost.total
            ok = _rows_ok(op, rows, rows_by_op)
        if not ok:
            result.failed.append(op.name)
    return result


def _rows_ok(op: Op, rows: Sequence[tuple], rows_by_op: dict) -> bool:
    if op.expected is not None and not rows_match(rows, op.expected):
        return False
    if op.expect_rows is not None and len(rows) != op.expect_rows:
        return False
    if op.same_as is not None and not rows_match(rows, rows_by_op.get(op.same_as, ())):
        return False
    return True


def best_per_op(passes: Sequence[PassResult], calibrated: bool = True) -> list[float]:
    """Per-op minimum over the passes."""
    series = [p.calibrated if calibrated else p.raw for p in passes]
    return [min(times) for times in zip(*series)]


def end_to_end(session: Session, passes: Sequence[PassResult]) -> dict:
    """The end-to-end metrics plus the informational figures beside them."""
    first = passes[0]
    for later in passes[1:]:
        if (later.sim_runtime_s, later.sim_cost_usd) != (
            first.sim_runtime_s, first.sim_cost_usd
        ):
            raise RuntimeError(
                "nondeterministic simulated metrics across passes:"
                f" {[(p.sim_runtime_s, p.sim_cost_usd) for p in passes]}"
            )
    best = best_per_op(passes)
    wall_s = sum(best)
    pooled = sorted(t for p in passes for t in p.raw)
    tail_percentile, tail_s = _highest_percentile(pooled)
    failed = sorted({name for p in passes for name in p.failed})
    return {
        "metrics": {
            "setup_s": (session.setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "slow5_s": (sum(sorted(best)[-SLOWEST:]), "s"),
            "sim_runtime_s": (first.sim_runtime_s, "sim_s"),
            "sim_cost_usd": (first.sim_cost_usd, "usd"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        },
        "ops": len(session.ops),
        "failed_ops": failed,
        "info": {
            "passes": len(passes),
            "ops_per_s": len(session.ops) / wall_s if wall_s else 0.0,
            "setup_raw_s": session.setup_raw_s,
            "wall_raw_s": sum(best_per_op(passes, calibrated=False)),
            "pass_raw_s": [sum(p.raw) for p in passes],
            "op_raw_p50_s": statistics.median(pooled),
            "op_raw_tail_percentile": tail_percentile,
            "op_raw_tail_s": tail_s,
            "op_samples": len(pooled),
            "per_op_s": dict(zip((op.name for op in session.ops), best)),
        },
    }


def _highest_percentile(sorted_samples: Sequence[float]) -> tuple:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; ``(None, None)`` when the sample is too small."""
    n = len(sorted_samples)
    if n <= 10:
        return None, None
    index = n - 11
    return round(100.0 * (index + 1) / n, 1), sorted_samples[index]
