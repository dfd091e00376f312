"""NULL semantics at the decorrelated join edges, pinned vs sqlite3.

``test_null_semantics.py`` pins three-valued logic at the *expression*
level; the fuzzer sweeps it statistically at the query level.  These
tests pin the specific NULL rules the new join kinds introduce, each as
a named case a failure message can point at:

* ``NOT IN (SELECT ...)`` whose subquery returns any NULL yields an
  *empty* result (x <> NULL is unknown for every x) — the NULL-aware
  anti join, not the plain anti join;
* a NULL probe key never matches ``IN`` and never satisfies ``NOT IN``
  against a non-empty list;
* ``EXISTS`` is a semi join: an outer row with many inner matches
  appears exactly once, and a NULL correlation key never matches;
* ``NOT EXISTS`` keeps rows whose correlation key is NULL (the
  correlated equality is unknown for every inner row, so no match);
* LEFT OUTER JOIN pads non-matching probe rows with NULLs that then
  flow through aggregation with SQL semantics — ``COUNT(col)`` skips
  pads, ``COUNT(*)`` counts them, ``SUM`` over only-pads is NULL, and
  pads group together under GROUP BY on the padded column.

Every case runs in baseline, optimized and auto modes against a sqlite3
oracle executing the identical statement.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.planner.database import PushdownDB
from repro.storage.schema import TableSchema

MODES = ("baseline", "optimized", "auto")


@pytest.fixture(scope="module")
def engines():
    """A tiny two-table world where every NULL edge case is reachable.

    ``cust``: c_key 1..6 with c_ref NULL at key 2 and c_bal NULL at
    key 4.  ``ords``: o_ref 2, 2, 3, NULL — so key 2 has duplicate
    matches, 3 one match, NULL never matches, and 1/4/5/6 have none.
    """
    db = PushdownDB()
    cust_rows = [
        (1, 10, 1), (2, 20, None), (3, 30, 3),
        (4, None, 4), (5, 50, 5), (6, 60, 6),
    ]
    ords_rows = [
        (100, 2, 7), (101, 2, 8), (102, 3, None), (103, None, 9),
    ]
    db.load_table(
        "cust", cust_rows, TableSchema.of("c_key:int", "c_bal:int", "c_ref:int")
    )
    db.load_table(
        "ords", ords_rows, TableSchema.of("o_id:int", "o_ref:int", "o_amt:int")
    )
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE cust (c_key INTEGER, c_bal INTEGER, c_ref INTEGER)")
    con.execute("CREATE TABLE ords (o_id INTEGER, o_ref INTEGER, o_amt INTEGER)")
    con.executemany("INSERT INTO cust VALUES (?,?,?)", cust_rows)
    con.executemany("INSERT INTO ords VALUES (?,?,?)", ords_rows)
    yield db, con
    con.close()


def _check(engines, sql, modes=MODES):
    db, con = engines
    expected = sorted(
        con.execute(sql).fetchall(),
        key=lambda r: tuple((v is None, v or 0) for v in r),
    )
    for mode in modes:
        got = sorted(
            db.execute(sql, mode=mode).rows,
            key=lambda r: tuple((v is None, v or 0) for v in r),
        )
        assert got == expected, f"{mode}: {got} != {expected}\n{sql}"
    return expected


class TestNotInNullAware:
    def test_not_in_with_null_in_subquery_is_empty(self, engines):
        """One NULL in the IN-list empties NOT IN entirely."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust"
            " WHERE c_key NOT IN (SELECT o_ref FROM ords)",
        )
        assert rows == []

    def test_not_in_without_nulls_is_plain_anti(self, engines):
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE c_key NOT IN"
            " (SELECT o_ref FROM ords WHERE o_ref IS NOT NULL)",
        )
        assert [r[0] for r in rows] == [1, 4, 5, 6]

    def test_null_operand_never_in(self, engines):
        """c_ref NULL: IN is unknown -> filtered on both engines."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE c_ref IN"
            " (SELECT o_ref FROM ords WHERE o_ref IS NOT NULL)",
        )
        assert [r[0] for r in rows] == [3]


class TestExistsSemiAnti:
    def test_semi_join_never_duplicates(self, engines):
        """c_key 2 matches two orders; EXISTS must emit it once."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE EXISTS"
            " (SELECT 1 FROM ords WHERE o_ref = c_key)",
        )
        assert [r[0] for r in rows] == [2, 3]

    def test_null_correlation_key_never_matches_exists(self, engines):
        """Only c_ref 3 has an order; c_ref NULL (key 2) never matches."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE EXISTS"
            " (SELECT 1 FROM ords WHERE o_ref = c_ref)",
        )
        assert [r[0] for r in rows] == [3]

    def test_not_exists_keeps_null_correlation_key(self, engines):
        """c_ref NULL (key 2): the equality is unknown for every order,
        so there is no match and NOT EXISTS keeps the row."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE NOT EXISTS"
            " (SELECT 1 FROM ords WHERE o_ref = c_ref)",
        )
        assert [r[0] for r in rows] == [1, 2, 4, 5, 6]


class TestLeftOuterPads:
    def test_count_column_skips_pads_count_star_counts_them(self, engines):
        rows = _check(
            engines,
            "SELECT COUNT(*) AS n_all, COUNT(o_id) AS n_matched"
            " FROM cust LEFT OUTER JOIN ords ON o_ref = c_key",
        )
        # 6 cust rows: key 2 fans out to 2 orders (7 result rows), and
        # only the 3 genuinely matched rows carry an o_id.
        assert rows == [(7, 3)]

    def test_sum_over_only_pads_is_null(self, engines):
        rows = _check(
            engines,
            "SELECT SUM(o_amt) AS s FROM cust"
            " LEFT OUTER JOIN ords ON o_ref = c_key WHERE c_key = 5",
        )
        assert rows == [(None,)]

    def test_group_by_padded_column_groups_pads_together(self, engines):
        rows = _check(
            engines,
            "SELECT o_ref, COUNT(*) AS n FROM cust"
            " LEFT OUTER JOIN ords ON o_ref = c_key GROUP BY o_ref",
        )
        # Pads for keys 1, 4, 5, 6 collapse into the o_ref IS NULL group.
        assert (None, 4) in rows

    def test_on_residual_rejects_rows_into_pads(self, engines):
        """An ON residual that fails turns would-be matches into pads —
        it must not filter the preserved side like a WHERE would."""
        rows = _check(
            engines,
            "SELECT c_key, o_id FROM cust"
            " LEFT OUTER JOIN ords ON o_ref = c_key AND o_amt > 7",
        )
        assert (2, 101) in rows      # survives the residual
        assert (2, 100) not in rows  # o_amt 7 fails it...
        assert (3, None) in rows     # ...and key 3's match (NULL amt) pads


class TestLeftJoinPostFilter:
    """A WHERE conjunct that reads the padded side is held back above
    the LEFT JOIN (``PreparedQuery.post_filter``): it sees the pads, so
    ``IS NULL`` keeps them and a comparison drops them, unlike an ON
    conjunct, which turns a failed match into a pad."""

    @pytest.mark.parametrize("sql", [
        "SELECT c_key, o_id FROM cust LEFT OUTER JOIN ords ON c_key = o_ref"
        " WHERE o_id IS NULL",
        "SELECT c_key, o_id FROM cust LEFT OUTER JOIN ords ON c_key = o_ref"
        " WHERE o_amt > 7",
        "SELECT c_key, o_id FROM cust LEFT OUTER JOIN ords"
        " ON c_key = o_ref AND o_amt > 7",
        "SELECT c_key, o_id FROM cust LEFT OUTER JOIN ords ON c_key = o_ref"
        " WHERE o_amt IS NULL OR c_bal > 25",
        "SELECT c_key, o_id FROM cust LEFT OUTER JOIN ords"
        " ON c_key = o_ref AND o_amt < c_bal",
        "SELECT c_key, COUNT(o_id) AS n FROM cust LEFT OUTER JOIN ords"
        " ON c_key = o_ref AND o_amt > 7 WHERE c_key < 5 GROUP BY c_key",
    ], ids=["pads-only", "drops-pads", "on-residual", "or-across-sides",
            "on-match-condition", "grouped-count"])
    def test_matches_sqlite(self, engines, sql):
        _check(engines, sql, modes=MODES + ("adaptive",))


class TestDecorrelationGuards:
    """Unsupported shapes fail with a named PlanError, never a wrong
    answer — each case pins one guard in the decorrelation pass."""

    @pytest.mark.parametrize("sql, message", [
        ("SELECT (SELECT MAX(o_amt) FROM ords) AS m FROM cust",
         "subqueries in the select list"),
        ("SELECT c_key FROM cust WHERE EXISTS"
         " (SELECT o_ref FROM ords GROUP BY o_ref)",
         "plain SELECT ... FROM ... WHERE bodies"),
        ("SELECT c_key FROM cust WHERE EXISTS"
         " (SELECT 1 FROM ords WHERE o_ref > c_key)",
         "needs an inner = outer equality"),
        ("SELECT c_key FROM cust WHERE c_key = 1 OR EXISTS"
         " (SELECT 1 FROM ords WHERE o_ref = c_key)",
         "top-level AND conjuncts"),
        ("SELECT c_key FROM cust WHERE c_bal + 1 IN"
         " (SELECT o_amt FROM ords)",
         "needs a plain column on the left-hand side"),
        ("SELECT c_key FROM cust WHERE c_key IN"
         " (SELECT o_ref FROM ords WHERE o_amt = c_bal)",
         "correlated IN subqueries are not supported"),
        ("SELECT c_key FROM cust WHERE c_key IN"
         " (SELECT o_ref, o_amt FROM ords)",
         "exactly one column"),
        ("SELECT c_key FROM cust WHERE c_bal >"
         " (SELECT o_amt FROM ords)",
         "at most one row"),
        ("SELECT c_key FROM cust WHERE c_bal >"
         " (SELECT o_amt FROM ords WHERE o_ref = c_key)",
         "must compute one aggregate"),
        ("SELECT c_key FROM cust WHERE c_bal >"
         " (SELECT MAX(o_amt) FROM ords WHERE o_ref > c_key)",
         "inner = outer equality correlation"),
        ("SELECT c_key FROM cust LEFT OUTER JOIN ords ON o_amt > c_bal",
         "LEFT JOIN needs an ON equality"),
        ("SELECT c_key FROM cust LEFT OUTER JOIN ords"
         " ON o_ref = c_key AND o_amt IN (SELECT c_bal FROM cust)",
         "subqueries in ON conditions"),
        ("SELECT c_ref, COUNT(*) AS n FROM cust GROUP BY c_ref"
         " HAVING COUNT(*) > (SELECT MAX(o_amt) FROM ords"
         " WHERE o_ref = c_ref)",
         "correlated subqueries in HAVING"),
        ("SELECT c_key FROM cust WHERE EXISTS"
         " (SELECT 1 FROM ords WHERE o_ref = no_such_col)",
         "unknown column"),
    ])
    def test_unsupported_shape_raises(self, engines, sql, message):
        from repro.common.errors import PlanError

        db, _ = engines
        with pytest.raises(PlanError, match=message):
            db.execute(sql)

    def test_uncorrelated_exists_folds_to_constant(self, engines):
        """No correlation: EXISTS probes one row and folds to TRUE/FALSE."""
        rows = _check(
            engines,
            "SELECT c_key FROM cust WHERE EXISTS"
            " (SELECT 1 FROM ords WHERE o_amt > 100)",
        )
        assert rows == []
        rows = _check(
            engines,
            "SELECT COUNT(*) AS n FROM cust WHERE NOT EXISTS"
            " (SELECT 1 FROM ords WHERE o_amt > 100)",
        )
        assert rows == [(6,)]


class TestExplainProvenance:
    """EXPLAIN names each decorrelated edge's origin (satellite: the
    plan renderer threads join_type and provenance end-to-end)."""

    @pytest.mark.parametrize("sql, fragment", [
        ("SELECT c_key FROM cust WHERE EXISTS"
         " (SELECT 1 FROM ords WHERE o_ref = c_key)",
         "(decorrelated EXISTS)"),
        ("SELECT c_key FROM cust WHERE NOT EXISTS"
         " (SELECT 1 FROM ords WHERE o_ref = c_key)",
         "(decorrelated NOT EXISTS)"),
        ("SELECT c_key FROM cust WHERE c_key NOT IN"
         " (SELECT o_ref FROM ords)",
         "(decorrelated NOT IN)"),
        ("SELECT c_key, o_id FROM cust"
         " LEFT OUTER JOIN ords ON o_ref = c_key",
         "(LEFT OUTER JOIN)"),
        ("SELECT c_key FROM cust WHERE c_bal >"
         " (SELECT AVG(o_amt) FROM ords WHERE o_ref = c_key)",
         "(decorrelated scalar subquery)"),
    ])
    def test_explain_names_join_origin(self, engines, sql, fragment):
        db, _ = engines
        assert fragment in db.explain(sql)

    def test_explain_renders_join_kind(self, engines):
        db, _ = engines
        report = db.explain(
            "SELECT c_key FROM cust WHERE EXISTS"
            " (SELECT 1 FROM ords WHERE o_ref = c_key)"
        )
        assert "semi hash-join" in report
        report = db.explain(
            "SELECT c_key, o_id FROM cust"
            " LEFT OUTER JOIN ords ON o_ref = c_key"
        )
        assert "left hash-join" in report
