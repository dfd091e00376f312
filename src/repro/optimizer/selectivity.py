"""Predicate selectivity estimation for the cost-based optimizer.

Two tiers, per the classic System-R recipe adapted to the statistics we
collect at load time:

* :func:`estimate_selectivity` — free, purely from
  :class:`~repro.optimizer.stats.TableStats`: min/max interpolation for
  range predicates, MCV/distinct counts for equality, three-valued
  combinators for AND/OR/NOT;
* :func:`probe_selectivity` — a cheap *metered* ScanRange probe that
  pushes ``SUM(CASE WHEN p THEN 1 ELSE 0 END)`` over a leading fraction
  of each partition.  It spends a few requests and scanned bytes (every
  one accounted like any other query work) to replace a heuristic with a
  measurement — worth it when a crossover sits nearby.
"""

from __future__ import annotations

from repro.optimizer.stats import ColumnStats, TableStats
from repro.sqlparser import ast

#: Fallback selectivity for predicates the estimator cannot decompose.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Fallback for LIKE with leading wildcards.
LIKE_SELECTIVITY = 0.25

#: Fallback for LIKE anchored at the start (``'abc%'``).
PREFIX_LIKE_SELECTIVITY = 0.1


def estimate_selectivity(predicate: ast.Expr | None, stats: TableStats) -> float:
    """Estimated fraction of rows satisfying ``predicate`` (in [0, 1])."""
    if predicate is None:
        return 1.0
    return _clamp(_estimate(predicate, stats))


def _clamp(s: float) -> float:
    return min(max(s, 0.0), 1.0)


def _estimate(expr: ast.Expr, stats: TableStats) -> float:
    if isinstance(expr, ast.Binary):
        if expr.op == "AND":
            return _estimate(expr.left, stats) * _estimate(expr.right, stats)
        if expr.op == "OR":
            a, b = _estimate(expr.left, stats), _estimate(expr.right, stats)
            return a + b - a * b
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison(expr, stats)
        return DEFAULT_SELECTIVITY
    if isinstance(expr, ast.Unary) and expr.op == "NOT":
        return 1.0 - _estimate(expr.operand, stats)
    if isinstance(expr, ast.Between):
        return _between(expr, stats)
    if isinstance(expr, ast.InList):
        return _in_list(expr, stats)
    if isinstance(expr, ast.Like):
        return _like(expr, stats)
    if isinstance(expr, ast.IsNull):
        return _is_null(expr, stats)
    if isinstance(expr, ast.Literal):
        if expr.value is True:
            return 1.0
        if expr.value in (False, None):
            return 0.0
    return DEFAULT_SELECTIVITY


def _column_literal(expr: ast.Binary) -> tuple[ast.Column, object, str] | None:
    """Normalize ``col op lit`` / ``lit op col`` to (column, value, op)."""
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(expr.left, ast.Column) and isinstance(expr.right, ast.Literal):
        return expr.left, expr.right.value, expr.op
    if isinstance(expr.right, ast.Column) and isinstance(expr.left, ast.Literal):
        return expr.right, expr.left.value, flip[expr.op]
    return None


def _non_null_fraction(col: ColumnStats, stats: TableStats) -> float:
    if not stats.row_count:
        return 1.0
    return 1.0 - col.null_count / stats.row_count


def _equality(col: ColumnStats, value: object, stats: TableStats) -> float:
    for mcv_value, count in col.mcvs:
        if mcv_value == value:
            return count / max(stats.row_count, 1)
    if col.distinct:
        # An MCV miss means the value is one of the *cold* keys: spread
        # the non-MCV mass over the non-MCV distinct values.  Dividing
        # the full non-NULL fraction by the distinct count would hand
        # every cold key the table's average frequency, which on a
        # hot-key (Zipf) table overestimates by the MCV-covered mass.
        non_null = _non_null_fraction(col, stats)
        if col.mcvs:
            mcv_frac = col.mcv_fraction(stats.row_count, len(col.mcvs))
            cold_keys = max(col.distinct - len(col.mcvs), 1)
            return _clamp((non_null - mcv_frac) / cold_keys)
        return non_null / col.distinct
    return 0.0


def _range_fraction(col: ColumnStats, value: object, op: str) -> float | None:
    """Fraction of non-NULL values satisfying ``col op value``.

    Prefers the column's equi-depth histogram (exact bucket mass plus
    within-bucket interpolation — robust under skew); falls back to
    plain min/max interpolation, and ``None`` when the domain is not
    interpolable."""
    if col.histogram is not None:
        fraction = col.histogram.fraction(op, value)
        if fraction is not None:
            return fraction
    lo, hi = col.min_value, col.max_value
    if lo is None or hi is None:
        return None
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in (lo, hi, value)
    ):
        return None
    if hi <= lo:
        span_le = 1.0 if value >= lo else 0.0
        return span_le if op in ("<=", "<") else 1.0 - span_le
    # Integer domains get the half-open correction so dense permutations
    # (the fig01 table) estimate exactly.
    unit = 1.0 if isinstance(lo, int) and isinstance(hi, int) else 0.0
    width = hi - lo + unit
    if op == "<":
        return (value - lo) / width
    if op == "<=":
        return (value - lo + unit) / width
    if op == ">":
        return (hi - value) / width
    if op == ">=":
        return (hi - value + unit) / width
    return None


def _comparison(expr: ast.Binary, stats: TableStats) -> float:
    normalized = _column_literal(expr)
    if normalized is None:
        return DEFAULT_SELECTIVITY
    column, value, op = normalized
    col = stats.column(column.name)
    if col is None or value is None:
        return 0.0 if value is None else DEFAULT_SELECTIVITY
    if op == "=":
        return _equality(col, value, stats)
    if op == "<>":
        return _non_null_fraction(col, stats) - _equality(col, value, stats)
    fraction = _range_fraction(col, value, op)
    if fraction is None:
        return DEFAULT_SELECTIVITY
    return _clamp(fraction) * _non_null_fraction(col, stats)


def _between(expr: ast.Between, stats: TableStats) -> float:
    if not isinstance(expr.operand, ast.Column):
        return DEFAULT_SELECTIVITY
    ge = _estimate(ast.Binary(">=", expr.operand, expr.low), stats)
    le = _estimate(ast.Binary("<=", expr.operand, expr.high), stats)
    inside = _clamp(ge + le - 1.0)
    if not expr.negated:
        return inside
    # NOT BETWEEN is never true for NULL operands (3VL): the complement
    # is taken within the non-NULL fraction, mirroring _in_list.
    col = stats.column(expr.operand.name)
    if col is not None:
        return _clamp(_non_null_fraction(col, stats) - inside)
    return 1.0 - inside


def _in_list(expr: ast.InList, stats: TableStats) -> float:
    if not isinstance(expr.operand, ast.Column):
        return DEFAULT_SELECTIVITY
    col = stats.column(expr.operand.name)
    if col is None:
        return DEFAULT_SELECTIVITY
    total = 0.0
    for item in expr.items:
        if isinstance(item, ast.Literal) and item.value is not None:
            total += _equality(col, item.value, stats)
        else:
            total += 1.0 / max(col.distinct, 1)
    inside = _clamp(total)
    return _clamp(_non_null_fraction(col, stats) - inside) if expr.negated else inside


def _like(expr: ast.Like, stats: TableStats) -> float:
    if not isinstance(expr.pattern, ast.Literal) or not isinstance(
        expr.pattern.value, str
    ):
        return DEFAULT_SELECTIVITY
    pattern = expr.pattern.value
    if "%" not in pattern and "_" not in pattern:
        if isinstance(expr.operand, ast.Column):
            col = stats.column(expr.operand.name)
            if col is not None:
                s = _equality(col, pattern, stats)
                return _negate_like(expr, s, stats) if expr.negated else s
        s = DEFAULT_SELECTIVITY
    elif pattern and not pattern.startswith(("%", "_")):
        s = PREFIX_LIKE_SELECTIVITY
    else:
        s = LIKE_SELECTIVITY
    return _negate_like(expr, s, stats) if expr.negated else s


def _negate_like(expr: ast.Like, s: float, stats: TableStats) -> float:
    """3VL complement of a LIKE match fraction: NULL operands match
    neither ``LIKE`` nor ``NOT LIKE``, so the complement is taken within
    the column's non-NULL fraction when stats are available."""
    if isinstance(expr.operand, ast.Column):
        col = stats.column(expr.operand.name)
        if col is not None:
            return _clamp(_non_null_fraction(col, stats) - s)
    return 1.0 - s


def _is_null(expr: ast.IsNull, stats: TableStats) -> float:
    if isinstance(expr.operand, ast.Column):
        col = stats.column(expr.operand.name)
        if col is not None and stats.row_count:
            s = col.null_count / stats.row_count
            return 1.0 - s if expr.negated else s
    return 0.05 if not expr.negated else 0.95


def probe_selectivity(
    ctx,
    table,
    predicate: ast.Expr,
    fraction: float = 0.02,
    refresh: bool = False,
) -> float:
    """Measure selectivity on a leading slice of every partition.

    Pushes one aggregate-only S3 Select per partition over a ScanRange of
    ``fraction`` of the object — requests and scanned bytes are metered
    exactly like query work, so a chooser that probes pays for what it
    learns (and the EXPLAIN report says so).

    The session's :class:`~repro.optimizer.feedback.FeedbackStore` is
    consulted first: a selectivity already measured this session (by an
    earlier probe *or* by an executed scan) is returned without issuing
    any request, so repeated queries stop paying for probes.  The
    measurement is recorded back into the store either way.
    ``refresh=True`` forces a fresh metered probe.
    """
    from repro.s3select.engine import PreparedSelect
    from repro.strategies.scans import iter_scan_batches, select_query

    store = ctx.feedback
    if store is not None and not refresh:
        cached = store.lookup_selectivity(table.name, predicate)
        if cached is not None:
            return cached
    one = ast.Literal(1)
    matched_sum = ast.Aggregate("SUM", ast.Case(((predicate, one),), ast.Literal(0)))
    statement = PreparedSelect(select_query([matched_sum, ast.Aggregate("SUM", one)]))
    matched = seen = 0
    for batch in iter_scan_batches(ctx, table, statement, scan_range_fraction=fraction):
        matched += sum(v or 0 for v in batch.column(0))
        seen += sum(v or 0 for v in batch.column(1))
    if not seen:
        return estimate_selectivity(predicate, table.stats_or_default())
    measured = matched / seen
    if store is not None:
        store.record_selectivity(table.name, predicate, measured, source="probe")
    return measured
