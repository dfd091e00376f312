"""The strategy chooser: rank candidate estimates, run the winner.

``choose_*`` functions return a :class:`Choice` — the ranked
per-candidate :class:`~repro.optimizer.cost.StrategyEstimate` profiles
plus the pick — without touching storage (unless a selectivity probe is
requested, which is metered and reported).  :func:`run_auto` dispatches
on the query object, executes the picked strategy, and attaches the full
choice to ``execution.details["optimizer"]`` so callers can render the
EXPLAIN report next to the measured run.

Objectives: ``"cost"`` minimizes predicted total dollars (the paper's
Figures 1b-9b axis; compute cost folds simulated runtime in, so this is
the balanced default), ``"runtime"`` minimizes predicted simulated
seconds (the Figures 1a-9a axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.optimizer.cost import CostModel, StrategyEstimate, objective_key
from repro.optimizer.selectivity import probe_selectivity
from repro.strategies import extensions as extension_strategies
from repro.strategies import filter as filter_strategies
from repro.strategies import groupby as groupby_strategies
from repro.strategies import join as join_strategies
from repro.strategies import topk as topk_strategies
from repro.strategies.filter import FilterQuery
from repro.strategies.groupby import GroupByQuery
from repro.strategies.join import JoinQuery
from repro.strategies.topk import TopKQuery

if TYPE_CHECKING:
    from repro.planner.physical import PhysicalPlan

OBJECTIVES = ("cost", "runtime")

#: Strategy name -> executor, for every query family the chooser covers.
STRATEGY_RUNNERS: dict[str, Callable] = {
    "server-side filter": filter_strategies.server_side_filter,
    "s3-side filter": filter_strategies.s3_side_filter,
    "s3-side indexing": filter_strategies.indexed_filter,
    "multirange indexed filter": extension_strategies.multirange_indexed_filter,
    "server-side group-by": groupby_strategies.server_side_group_by,
    "filtered group-by": groupby_strategies.filtered_group_by,
    "s3-side group-by": groupby_strategies.s3_side_group_by,
    "hybrid group-by": groupby_strategies.hybrid_group_by,
    "partial group-by pushdown": extension_strategies.partial_pushdown_group_by,
    "server-side top-k": topk_strategies.server_side_top_k,
    "sampling top-k": topk_strategies.sampling_top_k,
    "baseline join": join_strategies.baseline_join,
    "filtered join": join_strategies.filtered_join,
    "bloom join": join_strategies.bloom_join,
}


@dataclass
class Choice:
    """Outcome of one optimization: ranked candidates plus the pick."""

    query_kind: str
    objective: str
    candidates: list[StrategyEstimate] = field(default_factory=list)
    picked: str = ""
    #: Extra context (probe spend, estimation inputs) for the report.
    notes: dict = field(default_factory=dict)
    #: SQL mode choices only: the picked candidate's plan — the very
    #: object that was priced, for the caller to run or render.
    plan: PhysicalPlan | None = None

    @property
    def best(self) -> StrategyEstimate:
        for candidate in self.candidates:
            if candidate.strategy == self.picked:
                return candidate
        raise PlanError(f"no candidate named {self.picked!r}")

    def ranked(self) -> list[StrategyEstimate]:
        return sorted(self.candidates, key=objective_key(self.objective))

    def explain(self) -> str:
        return explain_choice(self)

    def summary(self) -> dict:
        """Compact dict for ``QueryExecution.details`` / experiment rows."""
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


def _choose(kind: str, candidates: list[StrategyEstimate], objective: str,
            notes: dict | None = None) -> Choice:
    if objective not in OBJECTIVES:
        raise PlanError(f"unknown objective {objective!r}; use {OBJECTIVES}")
    if not candidates:
        raise PlanError(f"no candidate strategies for {kind}")
    best = min(candidates, key=objective_key(objective))
    return Choice(
        query_kind=kind,
        objective=objective,
        candidates=candidates,
        picked=best.strategy,
        notes=notes or {},
    )


def choose_filter_strategy(
    ctx: CloudContext,
    catalog: Catalog,
    query: FilterQuery,
    objective: str = "cost",
    probe: bool = False,
    probe_fraction: float = 0.02,
    probe_refresh: bool = False,
    include_extensions: bool = False,
) -> Choice:
    """Pick among server-side / S3-side / indexed filtering.

    ``probe=True`` measures selectivity with a metered ScanRange probe
    instead of trusting the statistics estimate.  A selectivity already
    measured this session (earlier probe or executed scan) is reused
    without spending requests — and without re-reading ``probe_fraction``
    — so the note's request count is 0 on warm hits; pass
    ``probe_refresh=True`` to force a fresh metered probe at the
    requested fraction.
    ``include_extensions=True`` adds the multi-range-GET indexed filter
    (Suggestion 1) to the candidate set.
    """
    model = CostModel(ctx, catalog)
    notes = {}
    selectivity = None
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
    candidates = model.estimate_filter(
        query, selectivity=selectivity, include_extensions=include_extensions
    )
    return _choose("filter", candidates, objective, notes)


def choose_group_by_strategy(
    ctx: CloudContext,
    catalog: Catalog,
    query: GroupByQuery,
    objective: str = "cost",
    include_hybrid: bool = True,
    include_extensions: bool = False,
) -> Choice:
    """Pick among the paper's four group-by strategies.

    ``include_extensions=True`` adds Suggestion 4's partial group-by
    pushdown to the candidate set (an extension real S3 does not offer,
    so it is opt-in, mirroring the multirange filter).
    """
    model = CostModel(ctx, catalog)
    candidates = model.estimate_group_by(
        query, include_hybrid=include_hybrid, objective=objective,
        include_extensions=include_extensions,
    )
    return _choose("group-by", candidates, objective)


def choose_top_k_strategy(
    ctx: CloudContext,
    catalog: Catalog,
    query: TopKQuery,
    objective: str = "cost",
) -> Choice:
    model = CostModel(ctx, catalog)
    return _choose("top-k", model.estimate_top_k(query), objective)


def choose_join_strategy(
    ctx: CloudContext,
    catalog: Catalog,
    query: JoinQuery,
    objective: str = "cost",
) -> Choice:
    model = CostModel(ctx, catalog)
    return _choose("join", model.estimate_join(query), objective)


def choose_planner_mode(
    ctx: CloudContext,
    catalog: Catalog,
    query,
    objective: str = "cost",
    extra_refs=(),
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
    that will run; ``extra_refs`` alone widens the core scans'
    projections by the columns such sub-joins would read.

    For multi-table queries the join-order search's per-candidate table
    (each considered order with predicted rows/runtime/cost) is lifted
    into the choice's notes so EXPLAIN can render it.
    """
    # Imported here: the planner itself imports this module.
    from repro.planner import planner
    from repro.planner.subquery import PreparedQuery

    if prepared is None and extra_refs:
        prepared = PreparedQuery(query, extra_refs=set(extra_refs))
    baseline, optimized = planner.build_plans(
        ctx, catalog, query, ("baseline", "optimized"), objective,
        prepared=prepared,
    )
    decision = optimized.join_decision
    choice = _choose(
        "sql", [baseline.estimate, optimized.estimate], objective,
        decision.summary() if decision is not None else None,
    )
    choice.plan = baseline if choice.picked == "baseline" else optimized
    return choice


_CHOOSERS = {
    FilterQuery: choose_filter_strategy,
    GroupByQuery: choose_group_by_strategy,
    TopKQuery: choose_top_k_strategy,
    JoinQuery: choose_join_strategy,
}


def choose(
    ctx: CloudContext, catalog: Catalog, query, objective: str = "cost", **kwargs
) -> Choice:
    """Dispatch on the query object's family."""
    chooser = _CHOOSERS.get(type(query))
    if chooser is None:
        raise PlanError(
            f"cannot optimize query of type {type(query).__name__};"
            f" supported: {[t.__name__ for t in _CHOOSERS]}"
        )
    return chooser(ctx, catalog, query, objective=objective, **kwargs)


def run_auto(
    ctx: CloudContext,
    catalog: Catalog,
    query,
    objective: str = "cost",
    **kwargs,
) -> QueryExecution:
    """Choose the cheapest strategy for ``query``, run it, report both.

    The measured execution's ``details["optimizer"]`` carries the full
    per-candidate prediction table (:meth:`Choice.summary`).
    """
    choice = choose(ctx, catalog, query, objective=objective, **kwargs)
    runner = STRATEGY_RUNNERS[choice.picked]
    runner_kwargs = {}
    if choice.picked == "hybrid group-by" and "s3_groups" in choice.best.notes:
        # The estimator swept the split point; run the winning split.
        runner_kwargs["s3_groups"] = choice.best.notes["s3_groups"]
    execution = runner(ctx, catalog, query, **runner_kwargs)
    execution.details["optimizer"] = choice.summary()
    return execution


def render_choice_summary(summary: dict, query_kind: str = "") -> str:
    """EXPLAIN-style report from a :meth:`Choice.summary` dict.

    Works off the plain dict so the CLI can render the report straight
    from ``execution.details["optimizer"]``.
    """
    from repro.common.units import human_bytes, human_dollars, human_seconds

    objective = summary.get("objective", "cost")
    picked = summary.get("picked", "")
    kind = f"{query_kind} query, " if query_kind else ""
    lines = [f"optimizer: {kind}objective={objective}, picked {picked!r}"]
    lines.append(
        f"  {'':2} {'strategy':<22} {'requests':>10} {'scanned':>10}"
        f" {'returned':>10} {'moved':>10} {'runtime':>10} {'cost':>12}"
    )
    candidates = summary.get("candidates", {})
    sort_key = (
        (lambda kv: (kv[1]["runtime_s"], kv[1]["cost"]))
        if objective == "runtime"
        else (lambda kv: (kv[1]["cost"], kv[1]["runtime_s"]))
    )
    for name, est in sorted(candidates.items(), key=sort_key):
        marker = "->" if name == picked else "  "
        lines.append(
            f"  {marker} {name:<22} {est['requests']:>10.1f}"
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


def explain_choice(choice: Choice) -> str:
    """EXPLAIN-style report: one line per candidate, the pick marked."""
    return render_choice_summary(choice.summary(), choice.query_kind)
