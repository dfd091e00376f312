"""Figure 16: semantic result caching on a near-duplicate workload.

Beyond the paper: near-duplicate queries (one template, drifting
literals) answer from the session's semantic cache with zero requests.
Each ``SELECT key, p0 FROM fx WHERE key < t`` on the fig15 table runs
three arms in one cache-enabled session — why this sweep keeps its own
loop: ``cold`` (cache reset), ``warm`` (exact hit: cold's rows) and
``drift`` (~10% tighter, subsumed: an uncached run's rows).
"""

from repro.experiments.harness import Claim, ExperimentResult, agree, calibrate_tables
from repro.experiments.harness import execution_row
from repro.planner.database import PushdownDB
from repro.workloads.synthetic import FILTER_SCHEMA, clustered_filter_table

DEFAULT_NUM_ROWS = 20_000
DEFAULT_PARTITIONS = 16
DEFAULT_SELECTIVITIES = (0.02, 0.0625, 0.125, 0.25, 0.5, 1.0)
DEFAULT_CACHE_BYTES = 64 << 20


def run(num_rows: int = DEFAULT_NUM_ROWS, partitions: int = DEFAULT_PARTITIONS,
        selectivities: tuple = DEFAULT_SELECTIVITIES, paper_bytes: float = 10e9,
        seed: int = 1, cache_bytes: int = DEFAULT_CACHE_BYTES) -> ExperimentResult:
    db = PushdownDB(bucket="fig16", cache_bytes=cache_bytes)
    db.load_table("fx", clustered_filter_table(num_rows, seed=seed), FILTER_SCHEMA,
                  partitions=partitions)
    scale = calibrate_tables(db.ctx, db.catalog, ["fx"], paper_bytes)
    result = ExperimentResult(
        "fig16", "Semantic result cache on a drifting-literal workload", claims=CLAIMS,
        notes={"num_rows": num_rows, "partitions": db.table("fx").partitions,
               "cache_bytes": cache_bytes, "paper_scale": f"{scale:.2e}"},
    )
    for selectivity in sorted(selectivities):
        threshold = max(1, int(round(selectivity * num_rows)))
        sql = f"SELECT key, p0 FROM fx WHERE key < {threshold}"
        drift_sql = f"SELECT key, p0 FROM fx WHERE key < {max(1, round(threshold * 0.9))}"
        db.reset_cache()
        runs = {"cold": db.execute(sql), "warm": db.execute(sql)}
        runs["drift"] = db.execute(drift_sql)
        cache, db.ctx.result_cache = db.ctx.result_cache, None
        uncached = db.execute(drift_sql)
        db.ctx.result_cache = cache
        agree(runs["warm"].rows, runs["cold"].rows, f"fig16 {selectivity} warm")
        agree(runs["drift"].rows, uncached.rows, f"fig16 {selectivity} drift")
        for arm, execution in runs.items():
            counters = execution.report.cache
            outcome = next(
                (s for s in ("subsumed", "hit") if getattr(counters, s)), "miss"
            )
            row = execution_row("selectivity", selectivity, arm, execution)
            result.rows.append(row | {"cache": outcome})
    result.notes["matched"] = f"{len(selectivities)}/{len(selectivities)}"
    return result


CLAIMS = (
    Claim("fig16", "A replay never issues more requests nor costs more than cold",
          lambda r: [(replay[m], cold[m]) for cold, *replays in zip(
              *map(r.series, ("cold", "warm", "drift"))) for replay in replays
              for m in ("requests", "cost_total")],
          lambda pairs: all(replay <= cold for replay, cold in pairs)),
    Claim("fig16", "The warm pass spends >= 50% fewer requests, and strictly less cost",
          lambda r: [[sum(r.column(arm, m)) for arm in ("warm", "cold")]
                     for m in ("requests", "cost_total")],
          lambda t: t[0][0] <= 0.5 * t[0][1] and t[1][0] < t[1][1]),
    Claim("fig16", "Subsumption fires somewhere: a tighter literal replays the wider scan",
          lambda r: r.column("drift", "cache").count("subsumed"), lambda n: n >= 1),
)
