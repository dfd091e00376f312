"""The paper's statements, judged at reduced size.

Every experiment runs once, at the sizes below, and each of its
``CLAIMS`` is one test.  The other tests pin what is not a paper
statement: the shape of the rows, the one row-equivalence rule and how
a claim that fails is reported.
"""

import functools
import re
from types import SimpleNamespace

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import Claim, Disagreement, ExperimentResult, Sweep
from repro.experiments.harness import rows_match, run_sweep

#: Reduced sizes: seconds per experiment.
SIZES = {
    "fig1": dict(num_rows=8000, matches=(1, 8, 80, 480)),
    "fig2": dict(scale_factor=0.002, acctbals=(-950, -650, -450)),
    "fig3": dict(scale_factor=0.002),
    # acctbal -500 keeps the build side non-empty at this tiny scale.
    "fig4": dict(scale_factor=0.002, fprs=(0.0001, 0.01, 0.5), acctbal=-500),
    "fig5": dict(num_rows=8000, group_counts=(2, 8, 32)),
    "fig6": dict(num_rows=8000, splits=(1, 6, 12)),
    "fig7": dict(num_rows=8000, thetas=(0.0, 1.3)),
    "fig8": dict(scale_factor=0.002, k=50, sample_fractions=(1 / 100, 1 / 12, 1 / 2)),
    "fig9": dict(scale_factor=0.002, k_fractions=(1e-4, 1e-2)),
    "fig10": dict(scale_factor=0.002),
    "fig11": dict(num_rows=4000, column_counts=(1, 20), selectivities=(0.0, 0.5, 1.0)),
    "fig12": dict(scale_factor=0.002, dates=("1993-06-01", None)),
    "fig13": dict(fact_rows=4000, thresholds=(10, 25)),
    "fig14": dict(fact_rows=4000, thresholds=(15, 55)),
    "fig15": dict(num_rows=4000),
    "fig16": dict(num_rows=4000),
    "auto": dict(filter_rows=10_000, groupby_rows=10_000, topk_scale_factor=0.002),
    # One query per surface: HAVING + group (q01), pure filter (q06), LEFT
    # JOIN + derived (q13), correlated scalar (q17), NOT EXISTS / EXISTS
    # over aux copies (q21).
    "tpch": dict(scale_factor=0.001, modes=("baseline", "optimized"),
                 queries=("q01", "q06", "q13", "q17", "q21")),
}


@functools.cache
def result(name: str) -> ExperimentResult:
    return ALL_EXPERIMENTS[name](**SIZES[name])


CLAIMS = [claim for name in ALL_EXPERIMENTS for claim in ALL_EXPERIMENTS.module(name).CLAIMS]


@pytest.mark.parametrize("claim", CLAIMS, ids=[
    f"{c.figure}-{re.sub(r'[^a-z0-9]+', '-', c.text.lower())[:48].strip('-')}" for c in CLAIMS
])
def test_claim(claim):
    failure = claim.failure(result(claim.figure))
    assert failure is None, failure


def test_every_experiment_declares_a_claim():
    assert set(SIZES) == set(ALL_EXPERIMENTS)
    for name in ALL_EXPERIMENTS:
        claims = ALL_EXPERIMENTS.module(name).CLAIMS
        assert claims and all(c.figure == name for c in claims), name
        assert tuple(result(name).claims) == tuple(claims), name


def test_a_false_claim_is_reported_with_its_figure_and_text():
    false = Claim("fig1", "Indexing is always the slowest filter",
                  lambda r: r.column("indexing")[0], lambda first: first > 1e9)
    holds = Claim("fig1", "Indexing runs", lambda r: r.column("indexing"))
    fig1 = result("fig1")
    failing = ExperimentResult("fig1", "t", fig1.rows, fig1.notes, claims=(holds, false))
    (line,) = failing.failures()
    assert line.startswith("fig1: Indexing is always the slowest filter — observed ")
    assert line.endswith(repr(fig1.column("indexing")[0]))


def test_rows_that_disagree_raise():
    def returning(*rows):
        return lambda ctx, catalog, query: SimpleNamespace(rows=list(rows))

    sweep = Sweep("figX", "t", "x", lambda ctx, catalog, _: {}, lambda ctx, catalog, _: [
        (1, "q", {"a": returning((1, 2.0)), "b": returning((1, 2.5))})])
    with pytest.raises(Disagreement, match="figX x=1 b"):
        run_sweep(sweep)


def test_rows_match_null_and_float_rules():
    assert rows_match([(1, 2.0)], [(1, 2.0 + 1e-9)])
    assert rows_match([(None, 1), (2, 3)], [(2, 3), (None, 1)])
    assert not rows_match([(1,)], [(1,), (2,)])
    assert not rows_match([(None,)], [(0,)])
    assert not rows_match([(1, 2.0)], [(1, 2.1)])


def test_every_connected_order_runs():
    orders = {r["strategy"] for r in result("fig12").rows} - {"auto"}
    assert len(orders) == 4  # c-o-l chain: orders never joins last


def test_every_left_deep_order_runs():
    orders = {r["strategy"] for r in result("fig13").rows} - {"auto", "dp-pick"}
    assert len(orders) == 16  # 5-node path graph: 2^4 interval orders


def test_three_runs_per_point_plus_probe_sweep():
    strategies = {r["strategy"] for r in result("fig14").rows}
    assert strategies == {"static", "adaptive", "warm", "probed-filter-choice"}


def test_every_query_has_three_series():
    fig10 = result("fig10")
    for query in {r["query"] for r in fig10.rows} - {"geo-mean"}:
        strategies = {r["strategy"] for r in fig10.rows if r["query"] == query}
        assert strategies == {"baseline", "optimized", "presto (derived)"}


def test_tpch_rows_carry_metrics():
    tpch = result("tpch")
    assert tpch.notes["parsed"] == "5/5"
    for row in tpch.rows:
        assert row["requests"] > 0 and row["cost_total"] > 0 and row["runtime_s"] >= 0


def test_auto_rows_report_predictions():
    for row in result("auto").rows:
        assert row["predicted_runtime_s"] > 0 and row["predicted_cost"] > 0


def test_aux_schema_renames_prefix():
    from repro.experiments.tpch_suite import aux_schema
    from repro.workloads.tpch import TABLE_SCHEMAS

    schema = aux_schema(TABLE_SCHEMAS["nation"], "n2")
    assert schema.names[0] == "n2_nationkey"
    assert [c.type for c in schema.columns] == [c.type for c in TABLE_SCHEMAS["nation"].columns]


class TestHarnessUtilities:
    def test_to_table_renders(self):
        text = result("fig1").to_table()
        assert "fig1" in text and "server-side" in text

    def test_series_and_column_helpers(self):
        series = result("fig1").series("indexing")
        assert all(r["strategy"] == "indexing" for r in series)
        assert len(result("fig1").column("indexing", "runtime_s")) == len(series)
