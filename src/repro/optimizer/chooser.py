"""The strategy chooser: build candidate plans, price them, run the winner.

:func:`choose` builds the candidate :class:`~repro.planner.physical.
PhysicalPlan`s of the query's family — the plans the public strategy
runners execute — prices each through the one cost walker
(:func:`repro.planner.costing.annotate_costs`) and returns a
:class:`Choice`: the priced plans plus the pick, without touching storage
(unless a selectivity probe is requested, which is metered and reported).
:func:`run_auto` executes the picked plan and attaches the choice to
``execution.report.optimizer`` so callers can render the EXPLAIN
report next to the measured run.

Objectives: ``"cost"`` minimizes predicted total dollars (the paper's
Figures 1b-9b axis; compute cost folds simulated runtime in, so this is
the balanced default), ``"runtime"`` minimizes predicted simulated
seconds (the Figures 1a-9a axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.optimizer.cost import StrategyEstimate, objective_key
from repro.optimizer.selectivity import probe_selectivity
from repro.planner import physical
from repro.planner.costing import annotate_costs
from repro.planner.physical import PhysicalPlan
from repro.strategies import extensions, groupby, join, topk
from repro.strategies import filter as filters
from repro.strategies.filter import FilterQuery
from repro.strategies.groupby import GroupByQuery
from repro.strategies.join import JoinQuery
from repro.strategies.topk import TopKQuery

OBJECTIVES = ("cost", "runtime")

#: Hybrid group-by split points (head groups pushed to S3) offered as
#: candidates; the best under the objective competes as "hybrid group-by".
HYBRID_SPLIT_CANDIDATES = (4, 6, 8, 12, 16)


@dataclass
class Choice:
    """Outcome of one optimization: the priced candidate plans plus the pick."""

    query_kind: str
    objective: str
    #: One priced plan per candidate — the very objects a caller runs or
    #: renders; ``plan.estimate`` is the candidate's predicted profile.
    plans: list[PhysicalPlan] = field(default_factory=list)
    picked: str = ""
    #: Extra context (probe spend, the hybrid split sweep, the join-order
    #: table) for the report.
    notes: dict = field(default_factory=dict)

    @property
    def candidates(self) -> list[StrategyEstimate]:
        return [plan.estimate for plan in self.plans]

    @property
    def plan(self) -> PhysicalPlan:
        """The picked candidate's plan."""
        for plan in self.plans:
            if plan.estimate.strategy == self.picked:
                return plan
        raise PlanError(f"no candidate named {self.picked!r}")

    @property
    def best(self) -> StrategyEstimate:
        return self.plan.estimate

    def explain(self) -> str:
        """EXPLAIN-style report: one line per candidate, the pick marked."""
        return render_choice_summary(self.summary(), self.query_kind)

    def summary(self) -> dict:
        """Compact dict for ``ExecutionReport.optimizer`` / experiment rows."""
        return {
            "picked": self.picked,
            "objective": self.objective,
            "candidates": {
                c.strategy: {
                    "requests": round(c.requests, 3),
                    "bytes_scanned": int(c.bytes_scanned),
                    "bytes_returned": int(c.bytes_returned),
                    "bytes_transferred": int(c.bytes_transferred),
                    "runtime_s": round(c.runtime_seconds, 6),
                    "cost": round(c.total_cost, 9),
                }
                for c in self.candidates
            },
            **self.notes,
        }


def _choose(kind: str, plans: list[PhysicalPlan], objective: str,
            notes: dict | None = None) -> Choice:
    """Rank priced plans.  Plans sharing a strategy name are one
    candidate offered at several settings; its best competes."""
    if objective not in OBJECTIVES:
        raise PlanError(f"unknown objective {objective!r}; use {OBJECTIVES}")
    if not plans:
        raise PlanError(f"no candidate strategies for {kind}")
    key = objective_key(objective)
    best: dict[str, PhysicalPlan] = {}
    for plan in plans:
        name = plan.estimate.strategy
        if name not in best or key(plan.estimate) < key(best[name].estimate):
            best[name] = plan
    plans = list(best.values())
    picked = min(plans, key=lambda plan: key(plan.estimate))
    return Choice(kind, objective, plans, picked.estimate.strategy, notes or {})


def choose_planner_mode(
    ctx: CloudContext,
    catalog: Catalog,
    query,
    objective: str = "cost",
    prepared=None,
) -> Choice:
    """Pick the SQL planner's execution mode (``baseline`` / ``optimized``).

    ``query`` is a parsed :class:`repro.sqlparser.ast.Query`; this is the
    hook behind ``PushdownDB.execute(sql, mode="auto")``.  Both modes'
    physical plans are built once — one join-order search between them —
    and each is priced by the plan cost walker
    (:mod:`repro.planner.costing`); the candidates *are* the plans'
    predicted profiles, and the picked plan rides along as
    ``choice.plan``.  When the decorrelation pass rewrote the query,
    ``prepared`` is its output, so the priced plans carry the sub-joins
    and the subquery legs (init plans) that will run.

    For multi-table queries the join-order search's per-candidate table
    (each considered order with predicted rows/runtime/cost) is lifted
    into the choice's notes so EXPLAIN can render it.
    """
    # Imported here: the planner itself imports this module.
    from repro.planner import planner

    baseline, optimized = planner.build_plans(
        ctx, catalog, query, ("baseline", "optimized"), objective,
        prepared=prepared,
    )
    decision = optimized.join_decision
    return _choose(
        "sql", [baseline, optimized], objective,
        decision.summary() if decision is not None else None,
    )


#: Per query family: its name, the plan constructors always offered, and
#: the opt-in ones — the paper's Section X suggestions (multi-range GETs,
#: partial group-by), which real S3 does not offer.
_FAMILIES = {
    FilterQuery: ("filter", (
        filters.server_side_filter_plan, filters.s3_side_filter_plan,
        filters.indexed_filter_plan,
    ), (extensions.multirange_indexed_filter_plan,)),
    GroupByQuery: ("group-by", (
        groupby.server_side_group_by_plan, groupby.filtered_group_by_plan,
        groupby.s3_side_group_by_plan,
    ), (extensions.partial_pushdown_group_by_plan,)),
    TopKQuery: ("top-k", (
        topk.server_side_top_k_plan, topk.sampling_top_k_plan,
    ), ()),
    JoinQuery: ("join", (
        join.baseline_join_plan, join.filtered_join_plan, join.bloom_join_plan,
    ), ()),
}


def choose(
    ctx: CloudContext,
    catalog: Catalog,
    query,
    objective: str = "cost",
    include_extensions: bool = False,
    include_hybrid: bool = True,
    probe: bool = False,
    probe_fraction: float = 0.02,
    probe_refresh: bool = False,
) -> Choice:
    """Price the candidate plans of the query object's family; pick one.

    A candidate is whatever plan constructor accepts the query: one that
    raises :class:`PlanError` (no index on the predicate's column, K past
    the table, a non-integer Bloom key, several hybrid group columns)
    declines.  ``include_extensions=True`` adds the family's opt-in
    constructors; ``include_hybrid=False`` drops hybrid group-by, which
    is otherwise offered once per :data:`HYBRID_SPLIT_CANDIDATES`.

    ``probe=True`` (filter queries) measures selectivity with a metered
    ScanRange probe instead of trusting the statistics: the measurement
    lands in the session's feedback store, which every plan constructor
    consults first.  A selectivity already measured this session (earlier
    probe or executed scan) is reused without spending requests or
    re-reading ``probe_fraction`` — the note's request count is then 0 —
    unless ``probe_refresh=True`` forces a fresh probe.
    """
    if type(query) not in _FAMILIES:
        raise PlanError(
            f"cannot optimize query of type {type(query).__name__};"
            f" supported: {[t.__name__ for t in _FAMILIES]}"
        )
    kind, builders, opt_in = _FAMILIES[type(query)]
    notes = {}
    if probe:
        mark = ctx.metrics.mark()
        selectivity = probe_selectivity(
            ctx, catalog.get(query.table), query.predicate, probe_fraction,
            refresh=probe_refresh,
        )
        notes["probe"] = {
            "selectivity": selectivity,
            "requests": len(ctx.metrics.records_since(mark)),
        }
    builders = [*builders, *(opt_in if include_extensions else ())]
    if kind == "group-by" and include_hybrid:
        builders += [
            partial(groupby.hybrid_group_by_plan, s3_groups=split)
            for split in HYBRID_SPLIT_CANDIDATES
        ]
    plans = []
    for build in builders:
        try:
            plans.append(build(ctx, catalog, query))
        except PlanError:
            continue
    for plan in plans:
        annotate_costs(plan, ctx)
    swept = [p for p in plans if isinstance(p.root, groupby.HybridGroupByNode)]
    if swept:
        notes["split_candidates"] = {
            p.root.s3_groups: round(p.estimate.total_cost, 9) for p in swept
        }
    return _choose(kind, plans, objective, notes)


def run_auto(
    ctx: CloudContext, catalog: Catalog, query, objective: str = "cost", **options
) -> QueryExecution:
    """Choose the cheapest strategy for ``query`` (``options`` as for
    :func:`choose`), run its plan, report both.

    The measured execution's ``report.optimizer`` carries the full
    per-candidate prediction table (:meth:`Choice.summary`).
    """
    choice = choose(ctx, catalog, query, objective=objective, **options)
    execution = physical.execute_plan(ctx, choice.plan)
    execution.report = replace(execution.report, optimizer=choice.summary())
    return execution


def render_choice_summary(summary: dict, query_kind: str = "") -> str:
    """EXPLAIN-style report from a :meth:`Choice.summary` dict."""
    from repro.common.units import human_bytes, human_dollars, human_seconds

    objective = summary.get("objective", "cost")
    picked = summary.get("picked", "")
    kind = f"{query_kind} query, " if query_kind else ""
    lines = [f"optimizer: {kind}objective={objective}, picked {picked!r}"]
    candidates = summary.get("candidates", {})
    width = max(22, *map(len, candidates))
    lines.append(
        f"  {'':2} {'strategy':<{width}} {'requests':>10} {'scanned':>10}"
        f" {'returned':>10} {'moved':>10} {'runtime':>10} {'cost':>12}"
    )
    sort_key = (
        (lambda kv: (kv[1]["runtime_s"], kv[1]["cost"]))
        if objective == "runtime"
        else (lambda kv: (kv[1]["cost"], kv[1]["runtime_s"]))
    )
    for name, est in sorted(candidates.items(), key=sort_key):
        marker = "->" if name == picked else "  "
        lines.append(
            f"  {marker} {name:<{width}} {est['requests']:>10.1f}"
            f" {human_bytes(int(est['bytes_scanned'])):>10}"
            f" {human_bytes(int(est['bytes_returned'])):>10}"
            f" {human_bytes(int(est['bytes_transferred'])):>10}"
            f" {human_seconds(est['runtime_s']):>10}"
            f" {human_dollars(est['cost']):>12}"
        )
    if summary.get("join_orders"):
        method = summary.get("join_order_method", "dp")
        lines.append(
            f"  join-order search ({method}):"
            f" picked {summary.get('join_order', '')!r}"
        )
        lines.append(
            f"  {'':2} {'order':<40} {'est rows':>12} {'runtime':>10}"
            f" {'cost':>12}"
        )
        for row in summary["join_orders"]:
            marker = "->" if row.get("picked") else "  "
            lines.append(
                f"  {marker} {row['order']:<40} {row['est_rows']:>12.1f}"
                f" {human_seconds(row['runtime_s']):>10}"
                f" {human_dollars(row['cost']):>12}"
            )
    if summary.get("probe"):
        probe = summary["probe"]
        lines.append(
            f"  note: selectivity probed = {probe['selectivity']:.6f}"
            f" ({probe['requests']} metered request(s))"
        )
    return "\n".join(lines)

