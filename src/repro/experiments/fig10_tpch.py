"""Figure 10: the full query suite — baseline vs optimized PushdownDB.

Four micro queries plus TPC-H Q1, Q3, Q6, Q14, Q17, Q19, without S3
Select (baseline) and with Sections IV-VII's pushdown (optimized).  A
derived Presto series gives §VIII's sanity bound (Presto is out of scope).
"""

import math

from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, Sweep, cost_columns
from repro.experiments.harness import paper_scale, run_sweep
from repro.queries.dataset import DEFAULT_TABLES, load_tpch
from repro.queries.micro import MICRO_QUERIES
from repro.queries.tpch_queries import TPCH_QUERIES

#: Paper §VIII: baseline PushdownDB is "slower than Presto by less than
#: 2x" — we derive the reference series with that factor.
PRESTO_BASELINE_FACTOR = 2.0

MODES = {
    "baseline": lambda ctx, catalog, variants: variants.baseline(ctx, catalog),
    "optimized": lambda ctx, catalog, variants: variants.optimized(ctx, catalog),
}


def run(scale_factor: float = 0.01, paper_bytes: float = PAPER_TPCH_BYTES,
        include_presto_reference: bool = True):
    speedups, costs = [], []

    def record(name, runs):
        baseline, optimized = runs["baseline"], runs["optimized"]
        speedups.append(baseline.runtime_seconds / max(optimized.runtime_seconds, 1e-12))
        costs.append((baseline.cost.total, optimized.cost.total))
        speedup = round(speedups[-1], 2)
        rows = [{"query": name, "strategy": mode, "runtime_s": round(ex.runtime_seconds, 3),
                 **cost_columns(ex), "speedup": "" if ex is baseline else speedup}
                for mode, ex in runs.items()]
        if include_presto_reference:
            presto = round(baseline.runtime_seconds / PRESTO_BASELINE_FACTOR, 3)
            rows.append({"query": name, "strategy": "presto (derived)",
                         "runtime_s": presto, "cost_total": ""})
        return rows

    def load(ctx, catalog, _):
        load_tpch(ctx, catalog, scale_factor)
        return paper_scale(ctx, catalog, list(DEFAULT_TABLES), paper_bytes)

    queries = {**MICRO_QUERIES, **TPCH_QUERIES}
    result = run_sweep(Sweep(
        "fig10", "Query suite: PushdownDB baseline vs optimized", "query", load,
        lambda ctx, catalog, _: ((name, queries[name], MODES) for name in queries),
        notes={"scale_factor": scale_factor, "paper_scale": None,
               "presto_series": "derived from baseline (documented synthetic)"},
        record=record, claims=CLAIMS,
    ))
    geo_speedup = round(math.exp(sum(map(math.log, speedups)) / len(speedups)), 2)
    result.rows.append({"query": "geo-mean", "strategy": "optimized/baseline",
                        "runtime_s": "", "cost_total": "", "speedup": geo_speedup})
    result.notes.update(
        geomean_speedup=geo_speedup,
        total_cost_ratio=round(sum(o for _, o in costs) / sum(b for b, _ in costs), 3),
        paper_headline="6.7x faster, 30% cheaper",
    )
    return result


CLAIMS = (
    Claim("fig10", "Optimized is 3x-12x faster on geo-mean (paper: 6.7x)",
          lambda r: r.notes["geomean_speedup"], lambda x: 3.0 <= x <= 12.0),
    Claim("fig10", "Optimized costs under 0.9x of baseline (paper: 0.70x)",
          lambda r: r.notes["total_cost_ratio"], lambda x: x < 0.9),
)
