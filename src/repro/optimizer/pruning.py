"""Static partition pruning: refute zone maps against pushed predicates.

The paper's pushdown model only ever shrinks *bytes per request* — every
partition object is still fetched or SELECTed.  Zone maps (per-partition
min/max/null-count, collected free during the load-time stats pass) let
a pushdown scan skip whole partitions whose envelope proves the pushed
predicate can never be true there, cutting the request count itself.

Refutation is a three-valued *possibility* analysis.  For each
expression over a partition's zone map we compute an over-approximation
``(can_be_true, can_be_false, can_be_null)``: a flag is only ``False``
when the zone map *proves* that outcome impossible for every row of the
partition.  A partition is prunable exactly when ``can_be_true`` is
``False`` — rows where the predicate is FALSE or NULL are filtered out
anyway, so only possibly-TRUE partitions must be scanned.  Anything the
analysis cannot decide degrades to "all three possible", which never
prunes; correctness is therefore one-sided by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.stats import ColumnZone, PartitionZoneMap
from repro.sqlparser import ast


@dataclass(frozen=True)
class _Tri:
    """Possible outcomes of a predicate over one partition's rows."""

    true: bool
    false: bool
    null: bool


#: The conservative "anything could happen" verdict.
_ANY = _Tri(True, True, True)


def partition_may_match(
    predicate: ast.Expr | None, zone: PartitionZoneMap
) -> bool:
    """Whether ``predicate`` could be TRUE for some row of the partition."""
    if predicate is None:
        return True
    if not zone.row_count:
        # An empty partition contributes no rows no matter the predicate.
        return False
    return _tri(predicate, zone).true


def keep_partitions(table, predicate: ast.Expr | None) -> list[int] | None:
    """Partition indices a pushed ``predicate`` cannot refute.

    Returns ``None`` when pruning is inapplicable (no predicate, no zone
    maps, or zone maps out of sync with the partition list) *or* when
    nothing was pruned — callers treat ``None`` as "scan everything".
    When every partition is refuted, one partition is still kept: pushed
    aggregates need at least one response to shape their result, and the
    single wasted request keeps the executor's phase math trivial.
    """
    zone_maps = getattr(table, "zone_maps", None)
    if predicate is None or not zone_maps:
        return None
    if len(zone_maps) != len(table.keys):
        return None
    keep = [
        i for i, zone in enumerate(zone_maps)
        if partition_may_match(predicate, zone)
    ]
    if not keep:
        keep = [0]
    if len(keep) == len(table.keys):
        return None
    return keep


# ----------------------------------------------------------------------
# predicate implication (semantic-cache subsumption)
# ----------------------------------------------------------------------

#: Sentinel bounds for one-sided envelopes.  Comparisons against a
#: non-numeric domain raise TypeError inside ``_compare_zone``, which
#: degrades to ``_ANY`` — conservative, never unsound.
_NEG_INF = float("-inf")
_POS_INF = float("inf")


def predicate_implies(new: ast.Expr | None, cached: ast.Expr | None) -> bool:
    """Sound check that ``new`` implies ``cached``.

    True only when every row on which ``new`` evaluates TRUE also makes
    ``cached`` TRUE — i.e. the rows a scan with predicate ``new`` wants
    are a subset of the rows a cached scan with predicate ``cached``
    already holds.  Two layers, both one-sided:

    1. textual: cached conjuncts that appear verbatim (by normalized
       SQL) among ``new``'s conjuncts are trivially implied;
    2. semantic: the remaining cached conjuncts are evaluated with the
       zone-map possibility analysis against a synthetic *envelope*
       over-approximating the set of rows where ``new`` is TRUE.  A
       conjunct is implied only when the analysis proves it can be
       neither FALSE nor NULL anywhere inside that envelope.

    Anything unprovable returns False — a missed reuse, never a wrong
    answer.
    """
    if cached is None:
        return True
    if new is None:
        return False
    new_sigs = {c.to_sql() for c in ast.split_conjuncts(new)}
    remaining = [
        c for c in ast.split_conjuncts(cached) if c.to_sql() not in new_sigs
    ]
    if not remaining:
        return True
    env = predicate_envelope(new)
    return all(
        not v.false and not v.null
        for v in (_tri(conjunct, env) for conjunct in remaining)
    )


def predicate_envelope(predicate: ast.Expr) -> PartitionZoneMap:
    """A synthetic zone map over-approximating rows where ``predicate``
    is TRUE.

    Only column-vs-literal range conjuncts (``=``, ``<``, ``<=``, ``>``,
    ``>=``, non-negated BETWEEN/IN over literals) contribute bounds;
    every such conjunct must be TRUE, so its column is provably non-NULL
    and inside the accumulated ``[lo, hi]``.  Columns constrained only
    by shapes the builder does not understand are simply absent, which
    the possibility analysis treats as "anything possible" — the
    envelope only ever grows, keeping implication one-sided.
    """
    bounds: dict[str, list] = {}

    def tighten(name: str, lo=None, hi=None) -> None:
        key = name.lower()  # zone maps key columns in lower case
        entry = bounds.get(key)
        if entry is None:
            entry = bounds[key] = [_NEG_INF, _POS_INF]
        elif entry is _INCOMPARABLE:
            return
        try:
            if lo is not None and (entry[0] is _NEG_INF or lo > entry[0]):
                entry[0] = lo
            if hi is not None and (entry[1] is _POS_INF or hi < entry[1]):
                entry[1] = hi
        except TypeError:
            # Mixed-type bounds on one column (e.g. int vs str): give up
            # on this column entirely rather than keep a half-right box.
            bounds[key] = _INCOMPARABLE

    for conjunct in ast.split_conjuncts(predicate):
        if isinstance(conjunct, ast.Binary):
            from repro.optimizer.selectivity import _column_literal

            normalized = _column_literal(conjunct)
            if normalized is None:
                continue
            column, value, op = normalized
            if value is None:
                continue
            if op == "=":
                tighten(column.name, lo=value, hi=value)
            elif op in ("<", "<="):
                tighten(column.name, hi=value)
            elif op in (">", ">="):
                tighten(column.name, lo=value)
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            if (
                isinstance(conjunct.operand, ast.Column)
                and isinstance(conjunct.low, ast.Literal)
                and isinstance(conjunct.high, ast.Literal)
                and conjunct.low.value is not None
                and conjunct.high.value is not None
            ):
                tighten(
                    conjunct.operand.name,
                    lo=conjunct.low.value,
                    hi=conjunct.high.value,
                )
        elif isinstance(conjunct, ast.InList) and not conjunct.negated:
            if isinstance(conjunct.operand, ast.Column) and conjunct.items:
                values = [
                    item.value for item in conjunct.items
                    if isinstance(item, ast.Literal) and item.value is not None
                ]
                if len(values) != len(conjunct.items):
                    continue
                try:
                    tighten(
                        conjunct.operand.name, lo=min(values), hi=max(values)
                    )
                except TypeError:
                    continue
    columns = {
        name: ColumnZone(entry[0], entry[1], 0)
        for name, entry in bounds.items()
        if entry is not _INCOMPARABLE
    }
    return PartitionZoneMap(row_count=1, columns=columns)


#: Marker for a column whose accumulated bounds mixed incomparable types.
_INCOMPARABLE: list = []


# ----------------------------------------------------------------------
# the possibility evaluator
# ----------------------------------------------------------------------


def _tri(expr: ast.Expr, zone: PartitionZoneMap) -> _Tri:
    if isinstance(expr, ast.Binary):
        if expr.op == "AND":
            a, b = _tri(expr.left, zone), _tri(expr.right, zone)
            return _Tri(
                a.true and b.true, a.false or b.false, a.null or b.null
            )
        if expr.op == "OR":
            a, b = _tri(expr.left, zone), _tri(expr.right, zone)
            return _Tri(
                a.true or b.true, a.false and b.false, a.null or b.null
            )
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison(expr, zone)
        return _ANY
    if isinstance(expr, ast.Unary) and expr.op == "NOT":
        inner = _tri(expr.operand, zone)
        return _Tri(inner.false, inner.true, inner.null)
    if isinstance(expr, ast.Between):
        return _between(expr, zone)
    if isinstance(expr, ast.InList):
        return _in_list(expr, zone)
    if isinstance(expr, ast.IsNull):
        return _is_null(expr, zone)
    if isinstance(expr, ast.Like):
        return _like(expr, zone)
    if isinstance(expr, ast.Literal):
        if expr.value is True:
            return _Tri(True, False, False)
        if expr.value is False:
            return _Tri(False, True, False)
        if expr.value is None:
            return _Tri(False, False, True)
    return _ANY


def _column_zone(expr: ast.Expr, zone: PartitionZoneMap) -> ColumnZone | None:
    if isinstance(expr, ast.Column):
        return zone.column(expr.name)
    return None


def _comparison(expr: ast.Binary, zone: PartitionZoneMap) -> _Tri:
    from repro.optimizer.selectivity import _column_literal

    normalized = _column_literal(expr)
    if normalized is None:
        return _ANY
    column, value, op = normalized
    cz = zone.column(column.name)
    if cz is None:
        # Column absent from the zone map: nothing provable.
        return _ANY
    if value is None:
        # ``col op NULL`` is NULL for every row.
        return _Tri(False, False, True)
    return _compare_zone(cz, value, op, zone.row_count)


def _compare_zone(cz: ColumnZone, value, op: str, row_count: int) -> _Tri:
    nullable = cz.null_count > 0
    lo, hi = cz.min_value, cz.max_value
    if lo is None:
        # Every value in the partition is NULL: any comparison is NULL.
        return _Tri(False, False, True)
    try:
        if op == "=":
            can_true = lo <= value <= hi
            can_false = not (lo == hi == value)
        elif op == "<>":
            can_true = not (lo == hi == value)
            can_false = lo <= value <= hi
        elif op == "<":
            can_true = lo < value
            can_false = hi >= value
        elif op == "<=":
            can_true = lo <= value
            can_false = hi > value
        elif op == ">":
            can_true = hi > value
            can_false = lo <= value
        elif op == ">=":
            can_true = hi >= value
            can_false = lo < value
        else:
            return _ANY
    except TypeError:
        # Incomparable literal/domain (e.g. string vs int): no proof.
        return _ANY
    return _Tri(bool(can_true), bool(can_false), nullable)


def _between(expr: ast.Between, zone: PartitionZoneMap) -> _Tri:
    inside = _tri(
        ast.Binary(
            "AND",
            ast.Binary(">=", expr.operand, expr.low),
            ast.Binary("<=", expr.operand, expr.high),
        ),
        zone,
    )
    if expr.negated:
        return _Tri(inside.false, inside.true, inside.null)
    return inside


def _in_list(expr: ast.InList, zone: PartitionZoneMap) -> _Tri:
    # ``x IN (a, b, ...)`` is the OR of the equalities; non-literal items
    # defeat the analysis for that disjunct.
    verdict: _Tri | None = None
    for item in expr.items:
        if isinstance(item, ast.Literal):
            term = _tri(ast.Binary("=", expr.operand, item), zone)
        else:
            term = _ANY
        if verdict is None:
            verdict = term
        else:
            verdict = _Tri(
                verdict.true or term.true,
                verdict.false and term.false,
                verdict.null or term.null,
            )
    if verdict is None:  # empty IN list: vacuously false
        verdict = _Tri(False, True, False)
    if expr.negated:
        return _Tri(verdict.false, verdict.true, verdict.null)
    return verdict


def _is_null(expr: ast.IsNull, zone: PartitionZoneMap) -> _Tri:
    cz = _column_zone(expr.operand, zone)
    if cz is None:
        return _ANY
    some_null = cz.null_count > 0
    some_value = cz.null_count < zone.row_count
    if expr.negated:  # IS NOT NULL
        return _Tri(some_value, some_null, False)
    return _Tri(some_null, some_value, False)


def _like(expr: ast.Like, zone: PartitionZoneMap) -> _Tri:
    # Pattern matching is not refutable from an envelope — except on an
    # all-NULL column, where LIKE and NOT LIKE are both NULL everywhere.
    cz = _column_zone(expr.operand, zone)
    if cz is not None and cz.min_value is None and zone.row_count:
        return _Tri(False, False, True)
    return _ANY
