"""A query's local tail (GROUP BY / HAVING / ORDER BY / LIMIT / the
select list) as plan nodes above the scans and joins that feed it."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from repro.common.errors import PlanError, UnsupportedFeatureError
from repro.engine.operators.groupby import slotted, unqualified
from repro.engine.operators.project import projected_names
from repro.planner.nodes import (
    FilterNode,
    GroupByNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TopKNode,
)
from repro.sqlparser import ast


def _has_aggregate(items: Sequence[ast.SelectItem]) -> bool:
    """Whether any select item calls an aggregate."""
    return any(ast.contains_aggregate(item.expr) for item in items)


def unalias(expr: ast.Expr, select_items) -> ast.Expr:
    """Substitute output-alias references with their select expressions.

    Recurses through the whole expression (``ORDER BY k + l_tax`` with
    ``... AS k`` rewrites the ``k`` inside the sum), matching SQL's rule
    that ORDER BY names resolve against the select list first.  Binding
    spelled every alias reference as its alias, so names match exactly.
    """
    aliases = {item.alias: item.expr for item in select_items if item.alias}

    def substitute(column: ast.Column) -> ast.Expr:
        if column.table is None:
            replacement = aliases.get(column.name)
            if replacement is not None:
                return replacement
        return column

    return ast.map_columns(expr, substitute)


def _over_items(
    expr: ast.Expr, clause: str, query: ast.Query, hidden: list[ast.SelectItem]
) -> ast.Expr:
    """A HAVING or ORDER BY term over the group-by's output (the select
    list, then ``hidden``): each part an item computes reads that item's
    column; a GROUP BY expression or an aggregate call no item computes
    is appended to ``hidden`` as a ``__<clause>_<n>`` item first.  A
    column outside both is a :class:`PlanError`, raised while planning."""
    expr = unalias(expr, query.select_items)
    _check_grouped(expr, query.group_by)
    keys = set(map(unqualified, query.group_by))

    def resolve(node: ast.Expr) -> ast.Expr | None:
        for ordinal, item in enumerate(chain(query.select_items, hidden), start=1):
            if node == item.expr:
                return ast.Column(item.output_name(ordinal))
        if unqualified(node) in keys or isinstance(node, ast.Aggregate):
            hidden.append(ast.SelectItem(node, f"__{clause}_{len(hidden)}"))
            return ast.Column(hidden[-1].alias)
        return None

    return ast.map_expr(expr, resolve)


def _check_grouped(expr: ast.Expr, group_by: Sequence[ast.Expr]) -> None:
    """The group-by's own check (:func:`slotted`), as a plan error."""
    try:
        slotted(expr, group_by, [])
    except UnsupportedFeatureError as exc:
        raise PlanError(str(exc)) from None


def attach_local_tail(
    node: PlanNode, query: ast.Query, input_names: Sequence[str]
) -> PlanNode:
    """GROUP BY / aggregate / ORDER BY / LIMIT as plan nodes above ``node``.

    Row-at-a-time operators (projection, LIMIT) stay streaming; pipeline
    breakers (group-by, sort, top-K) drain internally.  A grouped query
    is one group-by emitting its select list, plus the hidden items its
    HAVING and ORDER BY read (:func:`_over_items`), projected away after
    the HAVING filter — or after the sort when it reads one.  An
    ungrouped ``ORDER BY`` key outside the select list defers the
    projection until after the sort so the key stays in scope; alias
    references in the deferred sort are rewritten to their select
    expressions.  ``input_names`` are the plan-time column names of
    ``node``'s output (presence only — runtime order may differ when an
    inner join swaps its hash sides).
    """
    order_by = query.order_by
    deferred: list[ast.SelectItem] | None = None
    if query.group_by or _has_aggregate(query.select_items):
        for item in query.select_items:
            _check_grouped(item.expr, query.group_by)
        hidden: list[ast.SelectItem] = []
        having = None if query.having is None else (
            _over_items(query.having, "having", query, hidden)
        )
        order_by = tuple(
            ast.OrderItem(_over_items(o.expr, "order", query, hidden), o.descending)
            for o in order_by
        )
        node = GroupByNode(node, query.group_by, [*query.select_items, *hidden])
        if having is not None:
            node = FilterNode(node, having)
        if hidden:
            deferred = column_items(
                item.output_name(i) for i, item in enumerate(query.select_items, start=1)
            )
            names = {item.alias for item in hidden}
            if not any(ast.referenced_columns(o.expr) & names for o in order_by):
                node, deferred = ProjectNode(node, deferred), None
    elif not all(isinstance(i.expr, ast.Star) for i in query.select_items):
        out_names = set(projected_names(list(input_names), query.select_items))
        if any(
            ref not in out_names
            for item in order_by
            for ref in ast.referenced_columns(item.expr)
        ):
            deferred = list(query.select_items)
            order_by = tuple(
                ast.OrderItem(unalias(o.expr, query.select_items), o.descending)
                for o in order_by
            )
        else:
            node = ProjectNode(node, query.select_items)

    if order_by:
        if query.limit is not None:
            node = TopKNode(node, order_by, query.limit)
        else:
            node = SortNode(node, order_by)
    elif query.limit is not None:
        node = LimitNode(node, query.limit)
    if deferred is not None:
        node = ProjectNode(node, deferred)
    return node


def column_items(columns: Iterable[str]) -> list[ast.SelectItem]:
    """A plain column projection as select items."""
    return [ast.SelectItem(ast.Column(c)) for c in columns]


def select_list_node(
    child: PlanNode, items: Sequence[ast.SelectItem] | None
) -> PlanNode:
    """A final select list over ``child``: ``None`` passes it through, a
    list holding an aggregate is a one-group aggregation (the micro
    benchmarks' ``SUM(o_totalprice)`` shape), anything else a projection."""
    if items is None:
        return child
    if _has_aggregate(items):
        return GroupByNode(child, (), items)
    return ProjectNode(child, items)
