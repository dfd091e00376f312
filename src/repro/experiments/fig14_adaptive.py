"""Figure 14 (extension): feedback-driven adaptive execution.

``a_x < t AND a_y < t`` keeps ~t% of ``dima`` where independence predicts
(t/100)^2, so the cold search joins ``dima`` too early.  Per threshold:
``static`` (the cold pick) and ``adaptive`` (re-plans once a build's
Q-error crosses ``adaptive_threshold``), each in a fresh session — why
this sweep keeps its own loop — then ``warm``, planned from the feedback
the adaptive run left.  Then a probed filter choice, repeated.
"""

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, ExperimentResult, agree
from repro.experiments.harness import calibrate_tables, execution_row
from repro.optimizer.chooser import choose
from repro.planner.planner import plan_and_execute
from repro.sqlparser.parser import parse_expression
from repro.strategies.filter import FilterQuery
from repro.workloads.synthetic import CORRELATED_STAR_SCHEMAS, correlated_star_tables

TABLES = ("fact", "dima", "dimb", "dimc")
#: The low thresholds are badly underestimated and fire re-planning; the
#: highest stays under the default 2x Q-error bound (the no-fire contract).
DEFAULT_THRESHOLDS = (10, 15, 25, 55)
#: Fixed, accurately-estimable ``b_sel < B_CUT`` filter on ``dimb``.
B_CUT = 12
PROBE_REPEATS = 4  # probed filter optimizations in one session


def make_sql(threshold: int) -> str:
    return ("SELECT SUM(f_v) AS total FROM fact, dima, dimb, dimc"
            " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id"
            f" AND a_x < {threshold} AND a_y < {threshold} AND b_sel < {B_CUT}")


def _fresh_session(fact_rows: int, paper_bytes: float, seed: int):
    ctx, catalog = CloudContext(), Catalog()
    tables = correlated_star_tables(fact_rows, seed=seed)
    for name in TABLES:
        load_table(ctx, catalog, name, tables[name], CORRELATED_STAR_SCHEMAS[name])
    return ctx, catalog, calibrate_tables(ctx, catalog, list(TABLES), paper_bytes)


def run(fact_rows: int = 8000, thresholds: tuple = DEFAULT_THRESHOLDS,
        paper_bytes: float = PAPER_TPCH_BYTES, seed: int = 11) -> ExperimentResult:
    """Sweep the correlated filter; compare static, adaptive and warm runs."""
    result = ExperimentResult(
        "fig14", "adaptive execution under correlated predicates + session stats reuse",
        notes={"fact_rows": fact_rows, "b_cut": B_CUT}, claims=CLAIMS,
    )
    picks = []
    for t in thresholds:
        ctx, catalog, scale = _fresh_session(fact_rows, paper_bytes, seed)
        static = plan_and_execute(ctx, catalog, make_sql(t), mode="optimized")
        ctx, catalog, _ = _fresh_session(fact_rows, paper_bytes, seed)
        adaptive = plan_and_execute(ctx, catalog, make_sql(t), mode="adaptive")
        warm = plan_and_execute(ctx, catalog, make_sql(t), mode="optimized")
        agree(adaptive.rows, static.rows, f"fig14 threshold={t} adaptive")
        agree(warm.rows, static.rows, f"fig14 threshold={t} warm")
        report = adaptive.report.adaptive
        q_error = max((e["q_error"] for e in report.events), default=1.0)
        result.rows += [
            execution_row("threshold", t, "static", static),
            execution_row("threshold", t, "adaptive", adaptive)
            | {"replans": report.replans, "max_q_error": q_error},
            execution_row("threshold", t, "warm", warm),
        ]
        same = ("runtime_seconds", "num_requests", "bytes_scanned", "bytes_returned")
        identical = adaptive.cost.total == static.cost.total and all(
            getattr(adaptive, a) == getattr(static, a) for a in same)
        outcome = ("WIN" if adaptive.cost.total < static.cost.total * (1 - 1e-9)
                   else "identical" if identical else "tie")
        picks.append(f"t={t}: replans={report.replans} {outcome}")

    ctx, catalog, _ = _fresh_session(fact_rows, paper_bytes, seed)
    query = FilterQuery("dima", parse_expression("a_x < 25 AND a_y < 25"))
    for repeat in range(1, PROBE_REPEATS + 1):
        mark = ctx.metrics.mark()
        choice = choose(ctx, catalog, query, probe=True, probe_fraction=0.25)
        result.rows.append({
            "repeat": repeat, "strategy": "probed-filter-choice",
            "probe_requests": len(ctx.metrics.records_since(mark)),
            "probed_selectivity": round(choice.notes["probe"]["selectivity"], 4),
            "picked": choice.picked,
        })
    result.notes.update(picks="; ".join(picks), paper_scale=f"{scale:.2e}")
    return result


def _arms(r) -> list:
    """``(threshold, {arm: row})`` per swept point (rows come static, adaptive, warm)."""
    return [(row["threshold"], {a["strategy"]: a for a in r.rows[i:i + 3]})
            for i, row in enumerate(r.rows) if row["strategy"] == "static"]


def _over_static(r, arm, metrics) -> list:
    return [p[arm][m] / p["static"][m] for _, p in _arms(r) for m in metrics]


CLAIMS = (
    Claim("fig14", "Re-planning fires and beats the static plan's cost somewhere",
          lambda r: [t for t, p in _arms(r) if p["adaptive"]["replans"]
                     and p["adaptive"]["cost_total"] < p["static"]["cost_total"]]),
    Claim("fig14", "Under the Q-error bound nothing fires: byte-identical to static",
          lambda r: [t for t, p in _arms(r) if not p["adaptive"]["replans"] and all(
              p["adaptive"][m] == p["static"][m]
              for m in ("runtime_s", "cost_total", "requests", "bytes_returned"))]),
    Claim("fig14", "Adaptive never measures worse than static; warm never costs more",
          lambda r: _over_static(r, "adaptive", ("cost_total", "runtime_s"))
          + _over_static(r, "warm", ("cost_total",)), lambda ratio: max(ratio) <= 1 + 1e-9),
    Claim("fig14", "Only the first probed optimization pays; repeats are free and agree",
          lambda r: [(row["probe_requests"], row["probed_selectivity"])
                     for row in r.series("probed-filter-choice")],
          lambda p: p[0][0] > 0 and not any(n for n, _ in p[1:])
          and len({s for _, s in p}) == 1),
)
