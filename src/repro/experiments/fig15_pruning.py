"""Figure 15: zone-map partition pruning on partition-clustered data.

Beyond the paper: zone maps let a pushed scan skip partitions whose
min/max refutes the predicate, cutting the *request count*.  On the fig01
table sorted by ``key``, ``key < t`` sweeps the pruned fraction from
(partitions-1)/partitions to 0; each point runs pruning on and off.
"""

from repro.engine.catalog import load_table
from repro.experiments.harness import Claim, Sweep, ascending, execution_row, paper_scale
from repro.experiments.harness import runner
from repro.optimizer.pruning import keep_partitions
from repro.planner.planner import plan_and_execute
from repro.sqlparser import ast
from repro.workloads.synthetic import FILTER_SCHEMA, clustered_filter_table

DEFAULT_NUM_ROWS = 20_000
DEFAULT_PARTITIONS = 16
#: Predicate selectivities swept, most selective (max pruning) first.
DEFAULT_SELECTIVITIES = (0.02, 0.0625, 0.125, 0.25, 0.5, 1.0)


def _arm(prune: bool):
    def execute(ctx, catalog, sql):
        ctx.prune_partitions = prune
        return plan_and_execute(ctx, catalog, sql, mode="optimized")
    return execute


ARMS = {"pruned": _arm(True), "unpruned": _arm(False)}


def sweep(num_rows: int = DEFAULT_NUM_ROWS, partitions: int = DEFAULT_PARTITIONS,
          selectivities: tuple = DEFAULT_SELECTIVITIES, paper_bytes: float = 10e9,
          seed: int = 1) -> Sweep:
    def load(ctx, catalog, _):
        table = load_table(ctx, catalog, "fx", clustered_filter_table(num_rows, seed=seed),
                           FILTER_SCHEMA, bucket="fig15", partitions=partitions)
        return {"partitions": table.partitions,
                **paper_scale(ctx, catalog, ["fx"], paper_bytes)}

    def cases(ctx, catalog, _):
        for selectivity in sorted(selectivities):
            t = max(1, int(round(selectivity * num_rows)))
            keep = keep_partitions(catalog.get("fx"),
                                   ast.Binary("<", ast.Column("key"), ast.Literal(t)))
            pruned = 0 if keep is None else catalog.get("fx").partitions - len(keep)
            yield (selectivity, pruned), f"SELECT key, p0 FROM fx WHERE key < {t}", ARMS

    return Sweep(
        "fig15", "Zone-map partition pruning vs predicate selectivity", "selectivity",
        load, cases, notes={"num_rows": num_rows}, claims=CLAIMS,
        record=lambda point, runs: [
            execution_row("selectivity", point[0], arm, execution)
            | {"partitions_pruned": point[1] if arm == "pruned" else 0}
            for arm, execution in runs.items()
        ],
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig15", "Requests, cost and runtime drop as the pruned fraction grows",
          lambda r: [r.column("pruned", k) for k in ("requests", "cost_total",
                                                     "runtime_s")],
          lambda series: all(map(ascending, series))),
    Claim("fig15", "The unpruned arm pays one request per partition everywhere",
          lambda r: (set(r.column("unpruned", "requests")), r.notes["partitions"]),
          lambda v: v[0] == {v[1]}),
    Claim("fig15", "Pruning skips requests, never answers: both arms return equal bytes",
          lambda r: [r.column(arm, "bytes_returned") for arm in ARMS],
          lambda v: v[0] == v[1]),
)
