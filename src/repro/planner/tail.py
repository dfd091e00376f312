"""A query's local tail (GROUP BY / HAVING / ORDER BY / LIMIT / the
select list) as plan nodes above the scans and joins that feed it."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.engine.operators.groupby import group_key_names
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


def _aggregates(items: Sequence[ast.SelectItem]) -> list[ast.SelectItem]:
    """Aggregate-bearing select items (group columns come from GROUP BY)."""
    return [
        item
        for item in items
        if not isinstance(item.expr, ast.Star)
        and ast.contains_aggregate(item.expr)
    ]


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


def _rewrite_having(
    query: ast.Query, items: list[ast.SelectItem]
) -> tuple[ast.Expr, list[ast.SelectItem]]:
    """Rewrite HAVING into a predicate over the group-by output schema.

    Aggregates already produced by the select list become references to
    their output columns; aggregates appearing only in HAVING get hidden
    ``__having_N`` items (computed by the GroupByNode, filtered on, then
    projected away).  Group-key columns pass through by name, and a
    group-key expression becomes its ``group_N`` output.
    """
    having = unalias(query.having, query.select_items)
    known: list[tuple[ast.Expr, str]] = [
        (item.expr, item.output_name(ordinal))
        for ordinal, item in enumerate(items, start=1)
    ] + [(g, name) for g, name in zip(query.group_by, group_key_names(query.group_by))
         if not isinstance(g, ast.Column)]
    hidden: list[ast.SelectItem] = []

    def rewrite(expr: ast.Expr) -> ast.Expr | None:
        for src, name in known:
            if expr == src:
                return ast.Column(name)
        if isinstance(expr, ast.Aggregate):
            name = f"__having_{len(hidden)}"
            hidden.append(ast.SelectItem(expr, alias=name))
            known.append((expr, name))
            return ast.Column(name)
        return None

    return ast.map_expr(having, rewrite), hidden


def _group_output_projection(
    query: ast.Query, items: list[ast.SelectItem], has_hidden: bool
) -> list[ast.SelectItem] | None:
    """Projection restoring select-list column order over group-by output.

    The GroupByNode always emits group keys first, then aggregate items;
    when the select list interleaves them (TPC-H Q3's ``key, SUM(...),
    date, priority``) — or hidden HAVING aggregates must be dropped — a
    ProjectNode reorders by output-column reference.  Returns ``None``
    when the group-by output already matches (the historical fast path,
    byte-identical to prior releases).
    """
    group_names = group_key_names(query.group_by)
    visible = group_names + [
        item.output_name(ordinal) for ordinal, item in enumerate(items, start=1)
    ]
    proj: list[ast.SelectItem] = []
    for item in query.select_items:
        if not isinstance(item.expr, ast.Star) and ast.contains_aggregate(
            item.expr
        ):
            try:
                j = items.index(item)
            except ValueError:
                return None
            proj.append(ast.SelectItem(ast.Column(item.output_name(j + 1))))
        elif isinstance(item.expr, ast.Column):
            proj.append(ast.SelectItem(ast.Column(item.expr.name), item.alias))
        else:
            match = next(
                (i for i, g in enumerate(query.group_by) if g == item.expr),
                None,
            )
            if match is None:
                return None
            proj.append(
                ast.SelectItem(ast.Column(group_names[match]), item.alias)
            )
    if not has_hidden and [p.output_name(0) for p in proj] == visible:
        return None
    return proj


def attach_local_tail(
    node: PlanNode, query: ast.Query, input_names: Sequence[str]
) -> PlanNode:
    """GROUP BY / aggregate / ORDER BY / LIMIT as plan nodes above ``node``.

    Row-at-a-time operators (projection, LIMIT) stay streaming; pipeline
    breakers (group-by, sort, top-K) drain internally.  ``ORDER BY``
    keys outside the select list defer the projection until after the
    sort so the keys stay in scope; alias references in the deferred
    sort are rewritten to their select expressions.  ``input_names`` are
    the plan-time column names of ``node``'s output (presence only —
    runtime order may differ when an inner join swaps its hash sides).
    """
    deferred_projection = False
    aggregates = _aggregates(query.select_items)
    if query.group_by or aggregates:
        # Ungrouped: the whole select list is computed as one group.
        items = aggregates if query.group_by else list(query.select_items)
        having_pred, hidden = (None, [])
        if query.having is not None:
            having_pred, hidden = _rewrite_having(query, items)
        node = GroupByNode(node, query.group_by, items + hidden)
        if having_pred is not None:
            node = FilterNode(node, having_pred)
        if query.group_by:
            output = _group_output_projection(query, items, bool(hidden))
        elif hidden:
            output = column_items(
                item.output_name(i) for i, item in enumerate(items, start=1)
            )
        else:
            output = None
        if output is not None:
            node = ProjectNode(node, output)
    elif not all(isinstance(i.expr, ast.Star) for i in query.select_items):
        out_names = set(projected_names(list(input_names), query.select_items))
        deferred_projection = any(
            ref not in out_names
            for item in query.order_by
            for ref in ast.referenced_columns(item.expr)
        )
        if not deferred_projection:
            node = ProjectNode(node, query.select_items)

    order_by = query.order_by
    if deferred_projection:
        order_by = tuple(
            ast.OrderItem(unalias(o.expr, query.select_items), o.descending)
            for o in order_by
        )
    if order_by:
        if query.limit is not None:
            node = TopKNode(node, order_by, query.limit)
        else:
            node = SortNode(node, order_by)
    elif query.limit is not None:
        node = LimitNode(node, query.limit)
    if deferred_projection:
        node = ProjectNode(node, query.select_items)
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
    if _aggregates(items):
        return GroupByNode(child, (), items)
    return ProjectNode(child, items)
