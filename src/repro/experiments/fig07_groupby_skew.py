"""Figure 7: group-by strategies vs data skew (Zipf theta).

100 groups per column, group sizes Zipfian(theta) for theta in
{0, 0.6, 0.9, 1.1, 1.3}; each theta is its own dataset.
"""

from repro.engine.catalog import load_table
from repro.experiments.harness import PAPER_GROUPBY_BYTES, Claim, Sweep, calibrate_tables
from repro.experiments.harness import runner
from repro.strategies.groupby import (
    AggSpec, GroupByQuery, filtered_group_by, hybrid_group_by, server_side_group_by,
)
from repro.workloads.synthetic import groupby_schema, skewed_groupby_table

DEFAULT_NUM_ROWS = 50_000
DEFAULT_THETAS = (0.0, 0.6, 0.9, 1.1, 1.3)

STRATEGIES = {"server-side": server_side_group_by, "filtered": filtered_group_by,
              "hybrid": hybrid_group_by}


def sweep(num_rows: int = DEFAULT_NUM_ROWS, thetas: tuple = DEFAULT_THETAS,
          paper_bytes: float = PAPER_GROUPBY_BYTES, seed: int = 1) -> Sweep:
    def load(ctx, catalog, theta):
        rows = skewed_groupby_table(num_rows, theta=theta, seed=seed)
        load_table(ctx, catalog, "skewed", rows, groupby_schema(), bucket="fig7")
        calibrate_tables(ctx, catalog, ["skewed"], paper_bytes)
        return {}

    aggregates = [AggSpec("sum", f"v{i}") for i in range(4)]
    return Sweep(
        "fig7", "Group-by strategies vs Zipf skew", "theta", load,
        lambda ctx, catalog, theta: [
            (theta, GroupByQuery("skewed", ["g0"], aggregates), STRATEGIES)
        ],
        notes={"num_rows": num_rows}, datasets=thetas, claims=CLAIMS,
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig7", "At the highest skew hybrid beats filtered (paper: 31% at theta 1.3)",
          lambda r: [r.column(s)[-1] for s in ("hybrid", "filtered")],
          lambda v: v[0] < v[1]),
    Claim("fig7", "Server-side and filtered are flat across skew (within 10%)",
          lambda r: [r.column(s) for s in ("server-side", "filtered")],
          lambda series: all(max(t) < 1.1 * min(t) for t in series)),
    Claim("fig7", "Hybrid gains with skew but costs more than filtered (two scans)",
          lambda r: (r.column("hybrid"), r.column("hybrid", "cost_total")[-1],
                     r.column("filtered", "cost_total")[-1]),
          lambda v: v[0][-1] < v[0][0] and v[1] > v[2]),
)
