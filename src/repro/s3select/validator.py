"""Dialect validation for S3 Select queries.

The real service accepts only a narrow SQL subset; PushdownDB's whole
design revolves around that boundary (Sections IV-VII rebuild join,
group-by and top-K *on top of* this subset).  The validator enforces it
so a strategy that accidentally pushes unsupported SQL fails exactly the
way it would against AWS.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.errors import (
    ExpressionLimitExceededError,
    UnsupportedFeatureError,
)
from repro.sqlparser import ast

#: The service limit on the SQL expression length (Section V-B1).
EXPRESSION_LIMIT_BYTES = 256 * 1024

#: The only table name S3 Select accepts.
S3_OBJECT_TABLE = "s3object"


def check_expression_size(sql: str, expression_limit: int = EXPRESSION_LIMIT_BYTES) -> None:
    """Raise unless the statement text ``sql`` is within the service's
    expression limit — the first check the real service makes."""
    size = len(sql.encode())
    if size > expression_limit:
        raise ExpressionLimitExceededError(size, expression_limit)


class StatementShape(NamedTuple):
    """What one walk of each expression of a statement finds: the columns
    it reads (``None`` under ``*``), which select items aggregate, whether
    its WHERE does, and whether any part holds a subquery."""

    columns: frozenset[str] | None
    item_aggregates: tuple[bool, ...]
    where_aggregate: bool
    subquery: bool


def statement_shape(query: ast.Query) -> StatementShape:
    """The :class:`StatementShape` of ``query``: each node walked once."""
    items = [item.expr for item in query.select_items]
    where = query.where or ast.Literal(True)
    parts = [list(ast.walk(e)) for e in (*items, where, *query.group_by)]
    nodes = [node for part in parts for node in part]
    aggregates = [any(isinstance(n, ast.Aggregate) for n in part) for part in parts]
    return StatementShape(
        None if any(isinstance(e, ast.Star) for e in items)
        else frozenset(n.name for n in nodes if isinstance(n, ast.Column)),
        tuple(aggregates[:len(items)]), aggregates[len(items)],
        any(isinstance(n, ast.SUBQUERY_NODES) for n in nodes),
    )


def validate_select_sql(
    query: ast.Query, allow_group_by: bool = False,
    shape: StatementShape | None = None,
) -> None:
    """Raise unless ``query`` (whose :func:`statement_shape` is ``shape``,
    when the caller has it) is inside the S3 Select dialect.

    Checks, in the order the real service would reject them (after the
    size check, :func:`check_expression_size`):

    * ``FROM S3Object`` only — no joins, derived tables or subqueries;
    * no GROUP BY, no HAVING, no ORDER BY (LIMIT is allowed);
    * aggregates must not be mixed with per-row select items.

    Args:
        allow_group_by: opt into the *partial group-by* extension the
            paper's Suggestion 4 proposes (not in the real service).
    """
    if query.table.lower() != S3_OBJECT_TABLE:
        raise UnsupportedFeatureError(
            f"S3 Select queries must read FROM S3Object, got {query.table!r}"
        )
    if len(query.from_tables) > 1 or query.joins:
        raise UnsupportedFeatureError("S3 Select does not support joins")
    if query.derived is not None:
        raise UnsupportedFeatureError("S3 Select does not support derived tables")
    if query.group_by and not allow_group_by:
        raise UnsupportedFeatureError("S3 Select does not support GROUP BY")
    if query.having is not None:
        raise UnsupportedFeatureError("S3 Select does not support HAVING")
    if query.order_by:
        raise UnsupportedFeatureError("S3 Select does not support ORDER BY")
    shape = shape or statement_shape(query)
    if not query.group_by:
        _validate_select_list(shape)
    if shape.where_aggregate:
        raise UnsupportedFeatureError("aggregates are not allowed in WHERE")
    if shape.subquery:
        raise UnsupportedFeatureError("S3 Select does not support subqueries")


def _validate_select_list(shape: StatementShape) -> None:
    aggregates = shape.item_aggregates
    if any(aggregates) and not all(aggregates):
        raise UnsupportedFeatureError(
            "S3 Select cannot mix aggregates with per-row columns"
            " (it has no GROUP BY)"
        )


def expression_complexity(query: ast.Query) -> int:
    """Expression *terms* evaluated per scanned row.

    A term is one computed select item (bare columns and ``*`` are free —
    they are just parsed fields) or one top-level WHERE conjunct.  The
    performance model charges S3-side CPU proportional to this count
    times rows scanned, which is what makes huge ``CASE WHEN`` lists
    (S3-side group-by, Fig 5) and many-hash Bloom filters (Fig 4)
    progressively slower while leaving plain filters and projections at
    scan speed.
    """
    count = 0
    for item in query.select_items:
        if not isinstance(item.expr, (ast.Star, ast.Column)):
            count += 1
    return count + len(ast.split_conjuncts(query.where))
