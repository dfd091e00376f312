"""Figure 13 (extension): bushy vs left-deep plans on a snowflake join.

``sub1 -- dim1 -- fact -- dim2 -- sub2``, filtered ``s1_attr < t`` and
``s2_attr < t``: a bushy plan Bloom-reduces *both* dimension scans by
their own sub-dimension; a left-deep chain reaches the second through a
nearly unselective fact-side key set.  Every point runs every connected
left-deep order, the DP's pick and ``auto``.
"""

from functools import partial

from repro.engine.catalog import load_table
from repro.experiments.fig12_multijoin import auto_plan, join_orders
from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, Sweep, cost_against
from repro.experiments.harness import paper_scale, run_sweep, winners_by_sweep
from repro.planner.joins import is_left_deep, join_tree_label
from repro.planner.planner import execute_forced_join
from repro.workloads.synthetic import SNOWFLAKE_SCHEMAS, snowflake_tables

TABLES = ("fact", "dim1", "sub1", "dim2", "sub2")
DEFAULT_THRESHOLDS = (4, 10, 25, 60)
PICKED = ("dp-pick", "auto")


def make_sql(threshold: int) -> str:
    return ("SELECT SUM(f_v) AS total FROM fact, dim1, sub1, dim2, sub2"
            " WHERE f_d1 = d1_id AND d1_s1 = s1_id AND f_d2 = d2_id AND d2_s2 = s2_id"
            f" AND s1_attr < {threshold} AND s2_attr < {threshold}")


def run(fact_rows: int = 9000, thresholds: tuple = DEFAULT_THRESHOLDS,
        paper_bytes: float = PAPER_TPCH_BYTES, seed: int = 7):
    """Sweep the branch filters; execute every left-deep order + the pick."""
    picks = {}  # threshold -> (tree label, is bushy)

    def load(ctx, catalog, _):
        tables = snowflake_tables(fact_rows, seed=seed)
        for name in TABLES:
            load_table(ctx, catalog, name, tables[name], SNOWFLAKE_SCHEMAS[name])
        return paper_scale(ctx, catalog, list(TABLES), paper_bytes)

    def cases(ctx, catalog, _):
        for threshold in thresholds:
            sql = make_sql(threshold)
            decision, orders = join_orders(ctx, catalog, sql)
            picks[threshold] = (join_tree_label(decision.tree),
                                not is_left_deep(decision.tree))
            pick = partial(execute_forced_join, shape=decision.shape)
            yield threshold, sql, {**orders, "dp-pick": pick, "auto": auto_plan}

    result = run_sweep(Sweep(
        "fig13", "snowflake join: bushy DP pick vs every left-deep order", "threshold",
        load, cases, notes={"fact_rows": fact_rows, "paper_scale": None}, claims=CLAIMS,
    ))
    left_deep = [r for r in result.rows if r["strategy"] not in PICKED]
    cost = {(r["threshold"], r["strategy"]): r["cost_total"] for r in result.rows}
    lines, wins, beats = [], 0, 0
    for threshold, best in winners_by_sweep(left_deep, "threshold").items():
        label, bushy = picks[threshold]
        beat = cost[threshold, "dp-pick"] <= cost[threshold, best] * (1 + 1e-9)
        wins, beats = wins + (bushy and beat), beats + beat
        lines.append(f"t={threshold}: picked [{label}] {'BUSHY' if bushy else 'left-deep'}"
                     f" best-ld [{best}] {'<=' if beat else '>'} ld cost")
    result.notes.update(picks="; ".join(lines), bushy_wins=wins,
                        agreement=f"{beats}/{len(lines)}")
    return result


CLAIMS = (
    Claim("fig13", "Somewhere the DP picks a bushy tree no worse than any left-deep one",
          lambda r: r.notes["bushy_wins"], lambda wins: wins >= 1),
    Claim("fig13", "The DP pick is within 6% of the best left-deep order, under the worst",
          lambda r: cost_against(r, "threshold", "dp-pick", PICKED),
          lambda ratios: all(b <= 1.06 and w <= 1 + 1e-9 for b, w in ratios)),
)
