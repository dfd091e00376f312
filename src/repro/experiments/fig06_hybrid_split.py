"""Figure 6: hybrid group-by — server-side vs S3-side time by split point.

Sweeps how many (large) groups hybrid group-by pushes to S3 on the
Zipfian workload; the total time is the slower of the two sides.
"""

from functools import partial

from repro.engine.catalog import load_table
from repro.experiments.harness import PAPER_GROUPBY_BYTES, Claim, Sweep, ascending
from repro.experiments.harness import paper_scale, runner
from repro.strategies.groupby import AggSpec, GroupByQuery, hybrid_group_by
from repro.workloads.synthetic import groupby_schema, skewed_groupby_table

DEFAULT_NUM_ROWS = 50_000
DEFAULT_SPLITS = (1, 4, 6, 8, 10, 12)
DEFAULT_THETA = 1.3


def _row(split, runs):
    ex = runs["hybrid"]
    extras = ex.report.extras
    return [{
        "s3_groups": split, "strategy": "hybrid",
        "runtime_s": round(ex.runtime_seconds, 4),
        "s3_side_s": round(extras["s3_side_seconds"], 4),
        "server_side_s": round(extras["server_side_seconds"], 4),
        "bytes_returned": extras["bytes_returned_phase2"],
        "tail_rows": extras["tail_rows"], "cost_total": round(ex.cost.total, 6),
    }]


def sweep(num_rows: int = DEFAULT_NUM_ROWS, splits: tuple = DEFAULT_SPLITS,
          theta: float = DEFAULT_THETA, paper_bytes: float = PAPER_GROUPBY_BYTES,
          seed: int = 1) -> Sweep:
    def load(ctx, catalog, _):
        rows = skewed_groupby_table(num_rows, theta=theta, seed=seed)
        load_table(ctx, catalog, "skewed", rows, groupby_schema(), bucket="fig6")
        return paper_scale(ctx, catalog, ["skewed"], paper_bytes)

    def cases(ctx, catalog, _):
        query = GroupByQuery("skewed", ["g0"], [AggSpec("sum", f"v{i}") for i in range(4)])
        for split in splits:
            yield split, query, {"hybrid": partial(hybrid_group_by, s3_groups=split)}

    return Sweep("fig6", "Hybrid group-by: groups aggregated at S3 vs server", "s3_groups",
                 load, cases, notes={"num_rows": num_rows, "theta": theta}, record=_row,
                 claims=CLAIMS)


run = runner(sweep)

CLAIMS = (
    Claim("fig6", "More groups at S3: more S3-side time, less server time and bytes",
          lambda r: [r.column("hybrid", k) for k in
                     ("s3_side_s", "server_side_s", "bytes_returned")],
          lambda c: ascending(c[0]) and all(ascending(x, reverse=True) for x in c[1:])),
    Claim("fig6", "Total time is lowest inside the sweep (paper: 6-8 groups)",
          lambda r: r.column("hybrid"), lambda t: min(t) < min(t[0], t[-1])),
)
