"""Figure 8: sampling top-K sensitivity to sample size.

Paper: lineitem SF 10 (60M rows), K = 100, sample size 1e3..1e7; ours
keeps the S/N ratios.  Ties let two correct top-K results differ in all
but the order key, so only ``l_extendedprice`` must agree.
"""

from functools import partial

from repro.experiments.harness import PAPER_LINEITEM_BYTES, Claim, Sweep, ascending
from repro.experiments.harness import paper_scale, runner
from repro.queries.dataset import load_tpch
from repro.strategies.topk import TopKQuery, optimal_sample_size, sampling_top_k

DEFAULT_K = 100
#: Sample sizes as fractions of the table (paper: 1e3/6e7 .. 1e7/6e7).
DEFAULT_SAMPLE_FRACTIONS = (1 / 600, 1 / 60, 1 / 24, 1 / 6, 1 / 3)


def _row(sample_size, runs):
    ex = runs["sampling"]
    extras = ex.report.extras
    return [{
        "sample_size": sample_size, "strategy": "sampling",
        "runtime_s": round(ex.runtime_seconds, 4),
        "sample_phase_s": round(extras["sample_seconds"], 4),
        "scan_phase_s": round(extras["scan_seconds"], 4),
        "bytes_returned": ex.bytes_returned, "phase2_rows": extras["phase2_rows"],
        "cost_total": round(ex.cost.total, 6), "cost_scan": round(ex.cost.scan, 6),
    }]


def sweep(scale_factor: float = 0.01, k: int = DEFAULT_K,
          sample_fractions: tuple = DEFAULT_SAMPLE_FRACTIONS,
          paper_bytes: float = PAPER_LINEITEM_BYTES) -> Sweep:
    def load(ctx, catalog, _):
        load_tpch(ctx, catalog, scale_factor, tables=("lineitem",))
        n = catalog.get("lineitem").num_rows
        alpha = 1.0 / len(catalog.get("lineitem").schema)
        return {"num_rows": n, **paper_scale(ctx, catalog, ["lineitem"], paper_bytes),
                "analytic_optimum_S": optimal_sample_size(k, n, alpha)}

    def cases(ctx, catalog, _):
        query = TopKQuery("lineitem", "l_extendedprice", k=k)
        for fraction in sample_fractions:
            size = max(k, int(catalog.get("lineitem").num_rows * fraction))
            yield size, query, {"sampling": partial(sampling_top_k, sample_size=size)}

    return Sweep(
        "fig8", "Sampling top-K vs sample size", "sample_size", load, cases,
        notes={"k": k}, record=_row, compare=("l_extendedprice",), claims=CLAIMS,
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig8", "Sampling-phase time grows with S; scanning-phase time shrinks",
          lambda r: [r.column("sampling", k) for k in ("sample_phase_s", "scan_phase_s")],
          lambda v: ascending(v[0]) and ascending(v[1], reverse=True)),
    Claim("fig8", "The total runtime is V-shaped: lowest strictly inside the sweep",
          lambda r: r.column("sampling"), lambda t: min(t) < min(t[0], t[-1])),
    Claim("fig8", "Scanning dominates the cost beyond the smallest sample",
          lambda r: [row["cost_scan"] / row["cost_total"] for row in r.rows],
          lambda share: min(share[1:]) > 0.5),
)
