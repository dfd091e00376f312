"""Figure 14 (extension): feedback-driven adaptive execution.

Two sweeps attack the optimizer where static cost models break:

* **Correlated predicates vs mid-flight re-planning.**  The fig14 star
  workload's ``dima`` table carries two almost perfectly correlated
  columns; the conjunction ``a_x < t AND a_y < t`` keeps ~``t`` percent
  of its rows while the System-R independence assumption predicts
  ``(t/100)^2``.  The cold cost-based search therefore joins ``dima``
  far too early.  The sweep executes each threshold three ways, each in
  a fresh session:

  - ``static``   — the cold optimizer's pick, run as planned;
  - ``adaptive`` — the same pick under ``mode="adaptive"``: when the
    materialized build's Q-error crosses ``adaptive_threshold`` the
    remaining tree is re-planned around the *measured* cardinality;
  - ``warm``     — the same session after the adaptive run: the
    feedback store now holds the measured selectivities and join
    cardinalities, so a plain ``mode="optimized"`` run plans the good
    tree statically (learning, not luck).

  The harness asserts the adaptive run never measures worse than the
  static plan — at points below the Q-error threshold the two are
  byte-identical by construction — and records where re-planning fired
  and won.

* **Session statistics reuse vs repeated probe spend.**  The same
  filter query is optimized with a metered selectivity probe
  (``probe=True``) several times in one session.  The first call pays
  the probe requests; every later call hits the session feedback store
  and spends **zero** metered requests while reporting the same
  measured selectivity.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import (
    ExperimentResult,
    PAPER_TPCH_BYTES,
    calibrate_tables,
    close_enough,
    execution_row,
)
from repro.optimizer.chooser import choose
from repro.planner.planner import plan_and_execute
from repro.sqlparser.parser import parse_expression
from repro.strategies.filter import FilterQuery
from repro.workloads.synthetic import (
    CORRELATED_STAR_SCHEMAS,
    correlated_star_tables,
)

TABLES = ("fact", "dima", "dimb", "dimc")

#: Swept ``a_x < t AND a_y < t`` thresholds.  The low values are badly
#: underestimated (quadratic error) and fire re-planning; the highest
#: stays under the default 2x Q-error threshold, pinning the
#: byte-identical no-fire contract.
DEFAULT_THRESHOLDS = (10, 15, 25, 55)

#: Fixed, accurately-estimable ``b_sel < B_CUT`` filter on ``dimb``.
B_CUT = 12

#: Repetitions of the probed filter optimization in the session sweep.
PROBE_REPEATS = 4


def make_sql(threshold: int) -> str:
    return (
        "SELECT SUM(f_v) AS total FROM fact, dima, dimb, dimc"
        " WHERE f_a = a_id AND f_b = b_id AND f_c = c_id"
        f" AND a_x < {threshold} AND a_y < {threshold}"
        f" AND b_sel < {B_CUT}"
    )


def _fresh_session(
    fact_rows: int, paper_bytes: float, seed: int
) -> tuple[CloudContext, Catalog, float]:
    ctx = CloudContext()
    catalog = Catalog()
    tables = correlated_star_tables(fact_rows, seed=seed)
    for name in TABLES:
        load_table(ctx, catalog, name, tables[name], CORRELATED_STAR_SCHEMAS[name])
    scale = calibrate_tables(ctx, catalog, list(TABLES), paper_bytes)
    return ctx, catalog, scale


def run(
    fact_rows: int = 8000,
    thresholds: tuple = DEFAULT_THRESHOLDS,
    paper_bytes: float = PAPER_TPCH_BYTES,
    seed: int = 11,
) -> ExperimentResult:
    """Sweep the correlated filter; compare static, adaptive and warm runs."""
    result = ExperimentResult(
        experiment="fig14",
        title="adaptive execution under correlated predicates"
              " + session stats reuse",
        notes={"fact_rows": fact_rows, "b_cut": B_CUT},
    )
    outcomes = []
    for threshold in thresholds:
        sql = make_sql(threshold)
        ctx_s, cat_s, scale = _fresh_session(fact_rows, paper_bytes, seed)
        static = plan_and_execute(ctx_s, cat_s, sql, mode="optimized")
        reference = static.rows[0][0]
        result.rows.append(
            execution_row("threshold", threshold, "static", static)
        )

        ctx_a, cat_a, _ = _fresh_session(fact_rows, paper_bytes, seed)
        adaptive = plan_and_execute(ctx_a, cat_a, sql, mode="adaptive")
        if not close_enough(adaptive.rows[0][0], reference):
            raise AssertionError(
                f"adaptive result mismatch at t={threshold}:"
                f" {adaptive.rows[0][0]} vs {reference}"
            )
        adaptive_row = execution_row("threshold", threshold, "adaptive", adaptive)
        details = adaptive.details["adaptive"]
        adaptive_row["replans"] = details["replans"]
        adaptive_row["max_q_error"] = max(
            (e["q_error"] for e in details["events"]), default=1.0
        )
        result.rows.append(adaptive_row)

        if adaptive.cost.total > static.cost.total * (1 + 1e-9):
            raise AssertionError(
                f"adaptive execution cost regressed at t={threshold}:"
                f" {adaptive.cost.total} vs static {static.cost.total}"
            )
        if adaptive.runtime_seconds > static.runtime_seconds * (1 + 1e-9):
            raise AssertionError(
                f"adaptive runtime regressed at t={threshold}:"
                f" {adaptive.runtime_seconds} vs {static.runtime_seconds}"
            )

        # Same session, same query, static mode: the feedback store now
        # holds measured selectivities/cardinalities, so the *plan-time*
        # search already picks the corrected tree.
        warm = plan_and_execute(ctx_a, cat_a, sql, mode="optimized")
        if not close_enough(warm.rows[0][0], reference):
            raise AssertionError(
                f"warm result mismatch at t={threshold}:"
                f" {warm.rows[0][0]} vs {reference}"
            )
        warm_row = execution_row("threshold", threshold, "warm", warm)
        result.rows.append(warm_row)

        outcomes.append({
            "threshold": threshold,
            "replans": details["replans"],
            "fired": details["replans"] > 0,
            "identical": (
                adaptive.cost.total == static.cost.total
                and adaptive.runtime_seconds == static.runtime_seconds
                and adaptive.num_requests == static.num_requests
                and adaptive.bytes_scanned == static.bytes_scanned
                and adaptive.bytes_returned == static.bytes_returned
            ),
            "won": adaptive.cost.total < static.cost.total * (1 - 1e-9),
            "warm_beats_cold_static":
                warm.cost.total <= static.cost.total * (1 + 1e-9),
        })

    if not any(o["fired"] and o["won"] for o in outcomes):
        raise AssertionError(
            "no swept point fired a re-plan that beat the static plan"
        )
    if not any(o["identical"] for o in outcomes):
        raise AssertionError(
            "no swept point pinned the accurate-estimate byte-identical path"
        )

    probe_rows = _session_probe_sweep(fact_rows, paper_bytes, seed)
    result.rows.extend(probe_rows)
    warm_probe_requests = [r["probe_requests"] for r in probe_rows[1:]]
    if any(r != 0 for r in warm_probe_requests):
        raise AssertionError(
            f"warm probe runs still spent requests: {warm_probe_requests}"
        )

    result.notes["picks"] = "; ".join(
        f"t={o['threshold']}: replans={o['replans']}"
        f" {'WIN' if o['won'] else ('identical' if o['identical'] else 'tie')}"
        for o in outcomes
    )
    result.notes["replan_wins"] = sum(
        1 for o in outcomes if o["fired"] and o["won"]
    )
    result.notes["warm_agreement"] = (
        f"{sum(o['warm_beats_cold_static'] for o in outcomes)}/{len(outcomes)}"
    )
    result.notes["paper_scale"] = f"{scale:.2e}"
    return result


def _session_probe_sweep(
    fact_rows: int, paper_bytes: float, seed: int
) -> list[dict]:
    """Optimize the same probed filter repeatedly in one session.

    Returns one row per repetition with the metered probe request count:
    the first pays, the rest ride the feedback store for free.
    """
    ctx, catalog, _ = _fresh_session(fact_rows, paper_bytes, seed)
    predicate = parse_expression("a_x < 25 AND a_y < 25")
    query = FilterQuery(table="dima", predicate=predicate)
    rows = []
    for repeat in range(1, PROBE_REPEATS + 1):
        mark = ctx.metrics.mark()
        choice = choose(ctx, catalog, query, probe=True, probe_fraction=0.25)
        spent = len(ctx.metrics.records_since(mark))
        rows.append({
            "repeat": repeat,
            "strategy": "probed-filter-choice",
            "probe_requests": spent,
            "probed_selectivity": round(
                choice.notes["probe"]["selectivity"], 4
            ),
            "picked": choice.picked,
        })
    return rows
