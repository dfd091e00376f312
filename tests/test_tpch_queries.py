"""Integration tests: TPC-H Q1/Q3/Q6/Q14/Q17/Q19 + Figure 10 micro queries.

The load-bearing assertions: every variant returns what sqlite3 returns
for the query's ``.sql`` file, and the optimized (pushdown) variant the
same answer as the baseline that computes everything on the query node.
"""

import sqlite3

import pytest

from helpers import assert_rows_close
from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog
from repro.experiments.harness import rows_match
from repro.experiments.tpch_suite import oracle_table
from repro.queries.dataset import DEFAULT_TABLES, load_tpch
from repro.queries.micro import MICRO_QUERIES
from repro.queries.tpch_queries import QUERY_DIR, TPCH_QUERIES
from repro.sqlparser.parser import parse
from repro.workloads.tpch import TABLE_SCHEMAS


@pytest.fixture(scope="module", params=[None, 6], ids=["seed-default", "seed6"])
def oracle_env(request):
    """(ctx, catalog, sqlite3) over the same rows at SF 0.002: Q17 and
    Q19 sum no row at the default seed (NULL) and some at seed 6."""
    ctx, catalog = CloudContext(), Catalog()
    gen = load_tpch(ctx, catalog, 0.002, seed=request.param)
    con = sqlite3.connect(":memory:")
    for name in DEFAULT_TABLES:
        oracle_table(con, name, TABLE_SCHEMAS[name], gen.table(name))
    yield ctx, catalog, con
    con.close()


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_every_variant_returns_sqlite3s_rows(oracle_env, name):
    """Names in the select list's order, rows to relative 1e-6."""
    ctx, catalog, con = oracle_env
    sql = (QUERY_DIR / f"q{int(name[1:]):02d}.sql").read_text()
    cursor = con.execute(parse(sql).to_sql())
    expected = cursor.fetchall()
    names = [column[0] for column in cursor.description]
    for mode in ("baseline", "optimized"):
        execution = getattr(TPCH_QUERIES[name], mode)(ctx, catalog)
        assert execution.column_names == names, mode
        assert rows_match(execution.rows, expected), (mode, execution.rows, expected)


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_query_variants_agree(tpch_env, name):
    ctx, catalog = tpch_env
    variants = TPCH_QUERIES[name]
    baseline = variants.baseline(ctx, catalog)
    optimized = variants.optimized(ctx, catalog)
    assert_rows_close(baseline.rows, optimized.rows, rel=1e-6)
    assert baseline.rows, f"{name} baseline returned no rows"


@pytest.mark.parametrize("name", sorted(MICRO_QUERIES))
def test_micro_query_variants_agree(tpch_env, name):
    ctx, catalog = tpch_env
    variants = MICRO_QUERIES[name]
    baseline = variants.baseline(ctx, catalog)
    optimized = variants.optimized(ctx, catalog)
    assert_rows_close(baseline.rows, optimized.rows, rel=1e-6)


class TestQueryShapes:
    def test_q1_returns_flag_status_groups(self, tpch_env):
        ctx, catalog = tpch_env
        result = TPCH_QUERIES["q1"].optimized(ctx, catalog)
        assert result.column_names[:2] == ["l_returnflag", "l_linestatus"]
        keys = [(r[0], r[1]) for r in result.rows]
        assert keys == sorted(keys)  # ORDER BY l_returnflag, l_linestatus
        assert {k[0] for k in keys} <= {"A", "N", "R"}

    def test_q1_count_adds_up(self, tpch_env):
        ctx, catalog = tpch_env
        result = TPCH_QUERIES["q1"].baseline(ctx, catalog)
        count_idx = result.column_names.index("count_order")
        lineitem = catalog.get("lineitem")
        assert sum(r[count_idx] for r in result.rows) <= lineitem.num_rows

    def test_q3_top10_sorted_by_revenue(self, tpch_env):
        ctx, catalog = tpch_env
        result = TPCH_QUERIES["q3"].optimized(ctx, catalog)
        assert len(result.rows) <= 10
        revenue_idx = result.column_names.index("revenue")
        revenues = [r[revenue_idx] for r in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q6_single_value(self, tpch_env):
        ctx, catalog = tpch_env
        result = TPCH_QUERIES["q6"].optimized(ctx, catalog)
        assert len(result.rows) == 1
        assert result.rows[0][0] is None or result.rows[0][0] > 0

    def test_q14_percentage_in_range(self, tpch_env):
        ctx, catalog = tpch_env
        result = TPCH_QUERIES["q14"].optimized(ctx, catalog)
        (value,) = result.rows[0]
        assert 0.0 <= value <= 100.0

    def test_optimized_moves_less_data(self, tpch_env):
        """Every optimized variant must move (return + transfer) less data
        to the query node than its baseline — that is the paper's thesis."""
        ctx, catalog = tpch_env
        for name, variants in TPCH_QUERIES.items():
            baseline = variants.baseline(ctx, catalog)
            optimized = variants.optimized(ctx, catalog)
            moved_baseline = baseline.bytes_returned + baseline.bytes_transferred
            moved_optimized = optimized.bytes_returned + optimized.bytes_transferred
            assert moved_optimized < moved_baseline, name

    def test_baseline_never_uses_select(self, tpch_env):
        ctx, catalog = tpch_env
        for name, variants in TPCH_QUERIES.items():
            baseline = variants.baseline(ctx, catalog)
            assert baseline.bytes_scanned == 0, f"{name} baseline used S3 Select"
