"""Optimizer validation: does `auto` pick the measured winner?

Replays the paper's three strategy-crossover sweeps — Figure 1 (filter
strategies vs selectivity), Figure 5 (group-by strategies vs group
count) and Figure 9 (top-K strategies vs K) — and at every swept point
asks the cost-based chooser for its pick *before* running every candidate
plan it priced for real.  A row records the pick, the measured winner
under the same objective, and whether they agree; the notes aggregate
the match rate.  This is the regression harness CI uses to catch cost-model
drift: a mis-ranked crossover shows up as ``agree=False``.

Ground truth is computed with :func:`~repro.experiments.harness.
winners_by_sweep` over metered executions of the priced plans — the
plans the figure harnesses' strategy runners execute.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import (
    ExperimentResult,
    PAPER_GROUPBY_BYTES,
    PAPER_LINEITEM_BYTES,
    calibrate_tables,
    execution_row,
    winners_by_sweep,
)
from repro.optimizer.chooser import Choice, choose
from repro.planner.physical import execute_plan
from repro.queries.dataset import load_tpch
from repro.sqlparser import ast
from repro.strategies.filter import FilterQuery
from repro.strategies.groupby import AggSpec, GroupByQuery
from repro.strategies.topk import TopKQuery
from repro.workloads.synthetic import (
    FILTER_SCHEMA,
    filter_table,
    groupby_schema,
    uniform_groupby_table,
)

#: Objectives validated at every swept point.
OBJECTIVES = ("cost", "runtime")

_METRIC = {"cost": "cost_total", "runtime": "runtime_s"}


def _validate(
    scenario: str, sweep_value, ctx, catalog, query, rows_out: list[dict],
    **options,
) -> None:
    """One swept point: pick under each objective, then meter every
    candidate plan and compare the picks with the measured winners."""
    choices = {
        obj: choose(ctx, catalog, query, objective=obj, **options)
        for obj in OBJECTIVES
    }
    measured = [
        execution_row("sweep", sweep_value, plan.strategy, execute_plan(ctx, plan))
        for plan in choices["cost"].plans
    ]
    for objective in OBJECTIVES:
        choice: Choice = choices[objective]
        winner = winners_by_sweep(
            measured, "sweep", _METRIC[objective]
        )[sweep_value]
        rows_out.append({
            "scenario": scenario,
            "sweep": sweep_value,
            "objective": objective,
            "picked": choice.picked,
            "measured_best": winner,
            "agree": choice.picked == winner,
            "predicted_runtime_s": round(choice.best.runtime_seconds, 4),
            "predicted_cost": round(choice.best.total_cost, 6),
        })


def _filter_scenario(num_rows: int, matches, rows_out: list[dict]) -> None:
    from repro.experiments.fig01_filter import PAPER_ROWS

    ctx, catalog = CloudContext(), Catalog()
    table_rows = filter_table(num_rows, seed=1)
    load_table(
        ctx, catalog, "filter_data", table_rows, FILTER_SCHEMA,
        bucket="auto", index_columns=["key"],
    )
    calibrate_tables(ctx, catalog, ["filter_data"], 10e9)
    ctx.client.range_request_weight = PAPER_ROWS / num_rows
    for matched in matches:
        if matched > num_rows:
            continue
        query = FilterQuery(
            table="filter_data",
            predicate=ast.Binary("<", ast.Column("key"), ast.Literal(matched)),
        )
        _validate("fig01-filter", matched, ctx, catalog, query, rows_out)


def _groupby_scenario(num_rows: int, group_counts, rows_out: list[dict]) -> None:
    from repro.experiments.fig05_groupby_groups import AGG_COLUMNS

    ctx, catalog = CloudContext(), Catalog()
    load_table(
        ctx, catalog, "uniform", uniform_groupby_table(num_rows, seed=1),
        groupby_schema(), bucket="auto",
    )
    calibrate_tables(ctx, catalog, ["uniform"], PAPER_GROUPBY_BYTES)
    aggregates = [AggSpec("sum", c) for c in AGG_COLUMNS]
    for groups in group_counts:
        column = f"g{groups.bit_length() - 2}"
        query = GroupByQuery(
            table="uniform", group_columns=[column], aggregates=aggregates
        )
        # Figure 5's candidate set has no hybrid strategy (uniform groups
        # give it no head to push).
        _validate(
            "fig05-groupby", groups, ctx, catalog, query, rows_out,
            include_hybrid=False,
        )


def _topk_scenario(scale_factor: float, k_fractions, rows_out: list[dict]) -> None:
    ctx, catalog = CloudContext(), Catalog()
    load_tpch(ctx, catalog, scale_factor, tables=("lineitem",))
    calibrate_tables(ctx, catalog, ["lineitem"], PAPER_LINEITEM_BYTES)
    table = catalog.get("lineitem")
    seen: set[int] = set()
    for fraction in k_fractions:
        k = max(1, int(table.num_rows * fraction))
        if k in seen:
            continue
        seen.add(k)
        query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=k)
        _validate("fig09-topk", k, ctx, catalog, query, rows_out)


def run(
    filter_rows: int = 20_000,
    filter_matches: tuple = (1, 6, 60, 600, 1_200),
    groupby_rows: int = 20_000,
    group_counts: tuple = (2, 4, 8, 16, 32),
    topk_scale_factor: float = 0.005,
    k_fractions: tuple = (1.7e-5, 1.7e-4, 1.7e-3, 8e-3, 4e-2),
) -> ExperimentResult:
    rows: list[dict] = []
    _filter_scenario(filter_rows, filter_matches, rows)
    _groupby_scenario(groupby_rows, group_counts, rows)
    _topk_scenario(topk_scale_factor, k_fractions, rows)
    agree = sum(1 for r in rows if r["agree"])
    result = ExperimentResult(
        experiment="auto",
        title="Cost-based strategy selection vs measured winners",
        rows=rows,
        notes={
            "points": len(rows),
            "agreement": f"{agree}/{len(rows)}",
        },
    )
    return result
