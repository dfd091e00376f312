"""Figure 5: group-by strategies vs number of groups (uniform sizes).

Paper: 10 GB, 20 columns — group-ID column ``g{i}`` has ``2^(i+1)``
uniform groups, plus 10 float value columns; each query sums four value
columns, sweeping the groups over 2..32.
"""

from repro.engine.catalog import load_table
from repro.experiments.harness import PAPER_GROUPBY_BYTES, Claim, Sweep, paper_scale, runner
from repro.strategies.groupby import (
    AggSpec, GroupByQuery, filtered_group_by, s3_side_group_by, server_side_group_by,
)
from repro.workloads.synthetic import groupby_schema, uniform_groupby_table

DEFAULT_NUM_ROWS = 50_000
DEFAULT_GROUP_COUNTS = (2, 4, 8, 16, 32)
AGGREGATES = [AggSpec("sum", f"v{i}") for i in range(4)]
STRATEGIES = {"server-side": server_side_group_by, "filtered": filtered_group_by,
              "s3-side": s3_side_group_by}


def sweep(num_rows: int = DEFAULT_NUM_ROWS, group_counts: tuple = DEFAULT_GROUP_COUNTS,
          paper_bytes: float = PAPER_GROUPBY_BYTES, seed: int = 1) -> Sweep:
    def load(ctx, catalog, _):
        rows = uniform_groupby_table(num_rows, seed=seed)
        load_table(ctx, catalog, "uniform", rows, groupby_schema(), bucket="fig5")
        return paper_scale(ctx, catalog, ["uniform"], paper_bytes)

    return Sweep(
        "fig5", "Group-by strategies vs number of groups (uniform sizes)", "num_groups",
        load, lambda ctx, catalog, _: (
            (n, GroupByQuery("uniform", [f"g{n.bit_length() - 2}"], AGGREGATES), STRATEGIES)
            for n in group_counts
        ),
        notes={"num_rows": num_rows}, claims=CLAIMS,
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig5", "Server-side group-by is flat in the group count (within 5%)",
          lambda r: r.column("server-side"), lambda t: max(t) < 1.05 * min(t)),
    Claim("fig5", "Filtered beats server-side everywhere: it loads 5 of 20 columns",
          lambda r: list(zip(r.column("filtered"), r.column("server-side"))),
          lambda pairs: all(f < s for f, s in pairs)),
    Claim("fig5", "At few groups: S3-side fastest, then filtered, then server-side",
          lambda r: [r.column(s)[0] for s in ("s3-side", "filtered", "server-side")],
          lambda t: t[0] < t[1] < t[2]),
    Claim("fig5", "S3-side degrades and crosses above filtered (paper: by ~32 groups)",
          lambda r: (r.column("s3-side"), r.column("filtered")[-1]),
          lambda v: v[0][0] < v[0][-1] > v[1]),
)
