"""Equi-depth histograms + the 3VL selectivity bugfix sweep.

Pins the three estimator bugs this change fixed — negated BETWEEN and
LIKE ignoring NULL operands, and equality spreading the *full* non-NULL
mass over cold keys on hot-key tables — and demonstrates the headline
win: on the fig07 Zipf workload, range estimates from the equi-depth
histogram carry a far smaller Q-error than min/max interpolation.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.common.rng import np_rng
from repro.optimizer.selectivity import estimate_selectivity
from repro.optimizer.stats import (
    DEFAULT_MCV_SIZE,
    Histogram,
    TableStats,
    build_histogram,
    collect_table_stats,
)
from repro.sqlparser.parser import parse_expression
from repro.storage.schema import TableSchema
from repro.workloads.synthetic import groupby_schema, skewed_groupby_table
from repro.workloads.zipf import zipf_sample


def estimate(sql: str, stats: TableStats) -> float:
    return estimate_selectivity(parse_expression(sql), stats)


def without_histograms(stats: TableStats) -> TableStats:
    """The pre-histogram estimator: min/max interpolation + MCVs only."""
    return dataclasses.replace(
        stats,
        columns={
            name: dataclasses.replace(col, histogram=None)
            for name, col in stats.columns.items()
        },
    )


class TestHistogramBuild:
    def test_dense_integer_domain_is_exact(self):
        hist = build_histogram(list(range(100)))
        assert hist.total == 100
        assert len(hist.buckets) == 32
        assert hist.fraction("<", 40) == pytest.approx(0.40)
        assert hist.fraction("<=", 40) == pytest.approx(0.41)
        assert hist.fraction(">", 89) == pytest.approx(0.10)
        assert hist.fraction(">=", 0) == pytest.approx(1.0)

    def test_skewed_mass_lands_in_narrow_buckets(self):
        # 900 zeros + 100 spread values: min/max interpolation would put
        # only ~1% below 1; the equi-depth buckets isolate the spike.
        values = [0] * 900 + list(range(1, 101))
        hist = build_histogram(values)
        # (the one straddling bucket interpolates, hence the tolerance —
        # versus ~0.01 from min/max interpolation)
        assert hist.fraction("<=", 0) == pytest.approx(0.9, rel=0.05)
        assert hist.fraction("<", 1) == pytest.approx(0.9, rel=0.05)

    def test_non_numeric_and_empty_return_none(self):
        assert build_histogram([]) is None
        assert build_histogram(["a", "b"]) is None
        assert build_histogram([True, False]) is None
        assert build_histogram([1, "a"]) is None

    def test_incomparable_value_returns_none(self):
        hist = build_histogram([1, 2, 3])
        assert hist.fraction("<", "oops") is None
        assert hist.fraction("=", 2) is None  # only range ops

    def test_fewer_values_than_buckets(self):
        hist = build_histogram([5, 7], num_buckets=32)
        assert hist.total == 2
        assert hist.fraction("<=", 5) == pytest.approx(0.5)

    def test_single_valued_float_bucket(self):
        hist = Histogram(buckets=((2.5, 2.5, 4),), total=4)
        assert hist.fraction("<", 2.5) == pytest.approx(0.0)
        assert hist.fraction("<=", 2.5) == pytest.approx(1.0)


NULL_SCHEMA = TableSchema.of("v:float", "tag:str")

#: 8 non-NULL v values spanning [0, 10] plus 2 NULLs; tag has one NULL
#: and a repeated hot value.
NULL_ROWS = [
    (0.5, "alpha"),
    (1.5, "alpha"),
    (2.5, "alpha"),
    (4.5, "alpha"),
    (5.5, "alpha"),
    (7.5, "beta"),
    (9.5, "beta"),
    (10.0, None),
    (None, "gamma"),
    (None, "delta"),
]


@pytest.fixture(scope="module")
def null_stats() -> TableStats:
    return collect_table_stats(NULL_ROWS, NULL_SCHEMA)


class TestThreeValuedNegation:
    """NOT BETWEEN / NOT LIKE are never true for NULL operands, so their
    complement must be taken within the non-NULL fraction (0.8 for v,
    0.9 for tag) — not within 1.0."""

    def test_not_between_complement_is_non_null_mass(self, null_stats):
        inside = estimate("v BETWEEN 0 AND 11", null_stats)
        negated = estimate("v NOT BETWEEN 0 AND 11", null_stats)
        assert inside + negated == pytest.approx(0.8)
        # the pre-fix complement 1.0 - inside counted NULL rows as hits
        assert negated == pytest.approx(0.8 - inside)

    def test_not_between_clamps_at_zero(self, null_stats):
        assert estimate("v NOT BETWEEN -100 AND 100", null_stats) >= 0.0

    def test_not_like_prefix_pattern(self, null_stats):
        # the sample (all ten rows) holds no 'zzz' tag: NOT LIKE is true
        # on every non-NULL tag, 0.9, and never on the NULL one
        assert estimate(
            "tag NOT LIKE 'zzz%'", null_stats
        ) == pytest.approx(0.9)

    def test_not_like_exact_pattern_uses_mcvs(self, null_stats):
        # 'alpha' covers 5/10 rows; NOT LIKE gets 0.9 - 0.5, not 1 - 0.5
        assert estimate("tag LIKE 'alpha'", null_stats) == pytest.approx(0.5)
        assert estimate(
            "tag NOT LIKE 'alpha'", null_stats
        ) == pytest.approx(0.4)


ZIPF_ROWS = 8000
ZIPF_GROUPS = 100


@pytest.fixture(scope="module")
def zipf_column() -> list[int]:
    values = zipf_sample(ZIPF_GROUPS, 1.1, ZIPF_ROWS, np_rng(11))
    return [int(v) for v in values]


@pytest.fixture(scope="module")
def zipf_stats(zipf_column) -> TableStats:
    return collect_table_stats(
        [(v,) for v in zipf_column], TableSchema.of("g:int")
    )


class TestZipfEquality:
    """The MCV-miss path on a hot-key (Zipf) column."""

    def test_cold_key_estimate_pins_residual_mass(self, zipf_stats):
        col = zipf_stats.column("g")
        assert len(col.mcvs) == DEFAULT_MCV_SIZE
        mcv_values = {v for v, _ in col.mcvs}
        cold = next(v for v in range(ZIPF_GROUPS) if v not in mcv_values)
        expected = (
            1.0 - col.mcv_fraction(zipf_stats.row_count, len(col.mcvs))
        ) / (col.distinct - len(col.mcvs))
        assert estimate(f"g = {cold}", zipf_stats) == pytest.approx(expected)

    def test_cold_key_beats_average_frequency(self, zipf_stats, zipf_column):
        """The pre-fix fallback handed cold keys the table-average
        frequency 1/distinct — on Zipf(1.1) several times the true
        residual mass."""
        col = zipf_stats.column("g")
        mcv_values = {v for v, _ in col.mcvs}
        cold_true = [
            zipf_column.count(v) / len(zipf_column)
            for v in range(ZIPF_GROUPS)
            if v not in mcv_values and v in set(zipf_column)
        ]
        avg_cold = sum(cold_true) / len(cold_true)
        cold_key = next(
            v for v in sorted(set(zipf_column)) if v not in mcv_values
        )
        fixed = estimate(f"g = {cold_key}", zipf_stats)
        naive = 1.0 / col.distinct
        assert abs(fixed - avg_cold) < abs(naive - avg_cold)
        assert fixed < naive  # MCV mass no longer double-counted

    def test_hot_key_still_reads_mcv(self, zipf_stats, zipf_column):
        hottest = max(set(zipf_column), key=zipf_column.count)
        true_frac = zipf_column.count(hottest) / len(zipf_column)
        assert estimate(
            f"g = {hottest}", zipf_stats
        ) == pytest.approx(true_frac)


def q_error(estimated: float, actual: float, floor: float = 1e-4) -> float:
    est, act = max(estimated, floor), max(actual, floor)
    return max(est / act, act / est)


class TestFig07QError:
    """Acceptance gate: on the fig07 Zipf workload, range-predicate
    Q-error with histograms must beat the min/max-interpolation
    estimator the histograms replaced."""

    THETA = 1.2

    @pytest.fixture(scope="class")
    def workload(self):
        rows = skewed_groupby_table(
            4000, self.THETA, group_columns=2, value_columns=1, seed=7
        )
        schema = groupby_schema(group_columns=2, value_columns=1)
        return rows, collect_table_stats(rows, schema)

    def predicates(self):
        for cut in (0, 1, 2, 4, 8, 16, 32, 64):
            yield f"g0 <= {cut}", lambda r, c=cut: r[0] <= c
            yield f"g0 > {cut}", lambda r, c=cut: r[0] > c

    def test_histogram_improves_geometric_mean_q_error(self, workload):
        rows, stats = workload
        legacy = without_histograms(stats)
        log_hist, log_legacy = 0.0, 0.0
        count = 0
        for sql, truth in self.predicates():
            actual = sum(1 for r in rows if truth(r)) / len(rows)
            log_hist += math.log(q_error(estimate(sql, stats), actual))
            log_legacy += math.log(q_error(estimate(sql, legacy), actual))
            count += 1
        hist_q = math.exp(log_hist / count)
        legacy_q = math.exp(log_legacy / count)
        # Zipf(1.2) packs ~half the mass into the first few groups; the
        # linear interpolation smears it and lands far off.
        assert hist_q < legacy_q / 2
        assert hist_q < 1.5

    def test_head_cut_is_near_exact(self, workload):
        rows, stats = workload
        actual = sum(1 for r in rows if r[0] <= 0) / len(rows)
        assert actual > 0.25  # the Zipf head really is heavy
        assert q_error(estimate("g0 <= 0", stats), actual) < 1.1
        legacy = without_histograms(stats)
        assert q_error(estimate("g0 <= 0", legacy), actual) > 5.0
