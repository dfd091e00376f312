"""Typed errors no workload reaches, one named case each.

Each statement must fail with its own error class and message before a
request is billed: the parser's ``SQLSyntaxError`` branches, the
decorrelation pass's ``PlanError`` guards and the join-order search's
duplicate-name cross product.  A strategy query naming a column its
table lacks fails with ``CatalogError`` in the chooser.
"""

from __future__ import annotations

import pytest

from repro.common.errors import CatalogError, PlanError, SQLSyntaxError
from repro.optimizer import choose
from repro.planner.database import PushdownDB
from repro.strategies.groupby import AggSpec, GroupByQuery
from repro.strategies.join import JoinQuery
from repro.storage.schema import TableSchema


@pytest.fixture(scope="module")
def db():
    db = PushdownDB()
    db.load_table("cust", [(1, 10, 1), (2, 20, 2)],
                  TableSchema.of("c_key:int", "c_bal:int", "c_ref:int"))
    db.load_table("ords", [(100, 2, 7), (101, 1, 8)],
                  TableSchema.of("o_id:int", "o_ref:int", "o_amt:int"))
    # Shares c_key with cust, so a cross product of the two has
    # duplicate column names.
    db.load_table("twin", [(1, 5), (2, 6)], TableSchema.of("c_key:int", "t_val:int"))
    return db


@pytest.mark.parametrize("sql, error, fragment", [
    ("SELECT c_key FROM cust LIMIT 1.5", SQLSyntaxError, "LIMIT requires an integer"),
    ("SELECT c_key FROM 5", SQLSyntaxError, "expected table name"),
    ("SELECT c_key AS 5 FROM cust", SQLSyntaxError, "expected alias name"),
    ("SELECT c_key FROM cust WHERE c_key NOT 5", SQLSyntaxError,
     "NOT here must be followed by BETWEEN, IN or LIKE"),
    ("SELECT c_key FROM cust WHERE c_ref < '1995-01-01' + INTERVAL 3 DAY",
     SQLSyntaxError, "INTERVAL requires a quoted count"),
    ("SELECT c_key FROM cust WHERE c_ref < '1995-01-01' + INTERVAL 'x' DAY",
     SQLSyntaxError, "INTERVAL count must be an integer"),
    ("SELECT c_key FROM cust WHERE c_ref < '1995-01-01' + INTERVAL '3' WEEK",
     SQLSyntaxError, "unsupported INTERVAL unit 'WEEK'"),
    ("SELECT c_key FROM cust WHERE c_ref < c_bal + INTERVAL '3' DAY",
     SQLSyntaxError, "requires a date-string literal on the left"),
    ("SELECT c_key FROM cust WHERE c_key = SELECT", SQLSyntaxError,
     "unexpected keyword SELECT"),
    ("SELECT cust.* FROM cust", SQLSyntaxError, "expected column name after '.'"),
    ("SELECT c_key FROM cust WHERE c_ref < 'soon' + INTERVAL '3' DAY",
     SQLSyntaxError, "requires an ISO date, got 'soon'"),
    ("SELECT x FROM (SELECT c_key AS x FROM cust) AS d"
     " WHERE x IN (SELECT o_ref FROM ords)", PlanError,
     "subqueries over a derived table are not supported"),
    ("SELECT c_key FROM cust WHERE c_bal >"
     " (SELECT MAX(o_amt) FROM ords WHERE o_ref = c_key)"
     " + (SELECT MIN(o_amt) FROM ords WHERE o_id = c_key)", PlanError,
     "at most one correlated scalar subquery per conjunct"),
    ("SELECT c_key FROM cust WHERE c_bal > (SELECT o_id, o_amt FROM ords)",
     PlanError, "a scalar subquery must produce one column"),
    ("SELECT c_key FROM cust WHERE c_bal > (SELECT MAX(o_amt) FROM ords"
     " WHERE o_ref = c_key GROUP BY o_ref)", PlanError,
     "correlated scalar subqueries support plain aggregate bodies"),
    ("SELECT c_ref, COUNT(*) AS n FROM cust GROUP BY c_ref"
     " HAVING EXISTS (SELECT 1 FROM ords)", PlanError,
     "only scalar subqueries are supported in HAVING"),
    ("SELECT COUNT(*) AS n FROM cust, twin", PlanError,
     "cross product would produce duplicate column names"),
    ("SELECT c_bal, COUNT(*) FROM cust GROUP BY c_ref", PlanError,
     "'c_bal' is outside every group expression and aggregate"),
    ("SELECT c_ref, COUNT(*) FROM cust GROUP BY c_ref HAVING c_bal > 1", PlanError,
     "'c_bal' is outside every group expression and aggregate"),
    ("SELECT c_ref, COUNT(*) FROM cust GROUP BY c_ref ORDER BY c_bal", PlanError,
     "'c_bal' is outside every group expression and aggregate"),
    ("SELECT c_bal, COUNT(*) FROM cust", PlanError,
     "'c_bal' is outside every group expression and aggregate"),
], ids=[
    "limit-not-integer", "table-name", "alias-name", "bare-not",
    "interval-unquoted", "interval-count", "interval-unit", "interval-left",
    "unexpected-keyword", "column-after-dot", "interval-iso-date",
    "derived-table-subquery", "two-correlated-scalars", "scalar-two-columns",
    "correlated-scalar-grouped", "having-exists", "cross-product-duplicates",
    "ungrouped-item", "ungrouped-having", "ungrouped-order-by", "ungrouped-aggregate",
])
def test_raises_its_typed_error_before_any_request(db, sql, error, fragment):
    before = db.ctx.metrics.num_requests
    with pytest.raises(error) as raised:
        db.execute(sql)
    assert type(raised.value) is error
    assert fragment in str(raised.value)
    assert db.ctx.metrics.num_requests == before


@pytest.mark.parametrize("query", [
    GroupByQuery("cust", ["c_rfe"], [AggSpec("sum", "c_bal")]),
    JoinQuery("cust", "ords", build_key="c_key", probe_key="o_rfe"),
], ids=["group-column", "join-key"])
def test_strategy_query_with_an_unknown_column(db, query):
    before = db.ctx.metrics.num_requests
    with pytest.raises(CatalogError, match="no column '[co]_rfe'"):
        choose(db.ctx, db.catalog, query)
    assert db.ctx.metrics.num_requests == before
