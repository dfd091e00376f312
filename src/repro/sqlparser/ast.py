"""AST node definitions for the SQL dialect.

Nodes are immutable dataclasses.  A pushed statement is a tree; its wire
text, which S3 Select weighs against its expression limit, is ``to_sql()``.
Round-trip contract: ``parse(q.to_sql())`` rebuilds any parsed tree ``q``
exactly (``repr``-equal; ±inf renders as ``1e999`` / ``-1e999``).  Only
parentheses our parser or sqlite3 needs are printed — sqlite3 binds ``||``
tighter than ``*``, so every non-primary operand of ``||`` (and, to render
a Bloom hash as the paper's Listing 1, of ``%``) is parenthesized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import is_
from typing import Union

Expr = Union[
    "Literal", "Column", "Star", "Unary", "Binary", "FuncCall", "Cast",
    "Case", "InList", "Between", "Like", "IsNull", "Aggregate",
    "Exists", "InSubquery", "ScalarSubquery", "Param",
]

#: Aggregate function names the dialect (and S3 Select) understands.
AGGREGATE_FUNCS = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})


def _sql_str(value: str) -> str:
    """Render a string literal, doubling embedded quotes."""
    return "'" + value.replace("'", "''") + "'"


#: The levels the parser climbs, loosest first; a comparison (or IN,
#: BETWEEN, LIKE, IS) takes additive operands.
_OR, _AND, _NOT, _PREDICATE, _ADDITIVE, _MULTIPLICATIVE, _SIGN, _PRIMARY = range(8)
_BINARY_LEVEL = {
    "OR": _OR, "AND": _AND, **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), _PREDICATE),
    "+": _ADDITIVE, "-": _ADDITIVE, "||": _ADDITIVE,
    "*": _MULTIPLICATIVE, "/": _MULTIPLICATIVE, "%": _MULTIPLICATIVE,
}


def _operand(node: Expr, level: int) -> str:
    """``node`` rendered where the parser reads a ``level`` expression:
    parenthesized if it binds looser."""
    text = node.to_sql()
    own = (
        _BINARY_LEVEL[node.op] if isinstance(node, Binary)
        else _PREDICATE if isinstance(node, (InList, InSubquery, Between, Like, IsNull))
        else _NOT if text.startswith("NOT ")  # NOT x, NOT EXISTS (...)
        else _SIGN if text.startswith(("-", "+"))  # a sign, a negative number
        else _PRIMARY
    )
    return text if own >= level else f"({text})"


@dataclass(frozen=True)
class Literal:
    """A constant: int, float, str, bool, or None (SQL NULL)."""

    value: object

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return _sql_str(self.value)
        if isinstance(self.value, float) and abs(self.value) == float("inf"):
            return "1e999" if self.value > 0 else "-1e999"
        return repr(self.value)


@dataclass(frozen=True)
class Param:
    """``$index``: the value of init plan ``index`` (an uncorrelated
    scalar or EXISTS subquery), unknown until it has run."""

    index: int

    def to_sql(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True)
class Column:
    """A column reference, optionally qualified (``t.col``)."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star:
    """``*`` in a select list or ``COUNT(*)``."""

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Unary:
    """Unary operator: ``-expr``, ``+expr`` or ``NOT expr``."""

    op: str
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"NOT {_operand(self.operand, _NOT)}"
        # Only a primary goes bare: ``-(-a)``, as ``--`` opens a comment.
        return self.op + _operand(self.operand, _PRIMARY)


@dataclass(frozen=True)
class Binary:
    """Binary operator (arithmetic, comparison, AND/OR, ``||``)."""

    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        # Left-associative, a comparison takes no comparison operand, and
        # || and % parenthesize every operand but a primary.
        level = _BINARY_LEVEL[self.op]
        left, right = level + (level == _PREDICATE), level + 1
        if self.op in ("||", "%"):
            left = right = _PRIMARY
        return f"{_operand(self.left, left)} {self.op} {_operand(self.right, right)}"


@dataclass(frozen=True)
class FuncCall:
    """A scalar function call such as ``SUBSTRING(s, 1, 4)``."""

    name: str
    args: tuple[Expr, ...]

    def to_sql(self) -> str:
        rendered = ", ".join(a.to_sql() for a in self.args)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class Cast:
    """``CAST(expr AS TYPE)``."""

    operand: Expr
    type_name: str

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.type_name})"


@dataclass(frozen=True)
class Case:
    """``CASE WHEN cond THEN val ... [ELSE val] END`` (searched form)."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def to_sql(self) -> str:
        rendered = ", ".join(item.to_sql() for item in self.items)
        maybe_not = "NOT " if self.negated else ""
        return f"{_operand(self.operand, _ADDITIVE)} {maybe_not}IN ({rendered})"


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high`` (inclusive both ends)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return (
            f"{_operand(self.operand, _ADDITIVE)} {maybe_not}BETWEEN "
            f"{_operand(self.low, _ADDITIVE)} AND {_operand(self.high, _ADDITIVE)}"
        )


@dataclass(frozen=True)
class Like:
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return (
            f"{_operand(self.operand, _ADDITIVE)} {maybe_not}LIKE "
            f"{_operand(self.pattern, _ADDITIVE)}"
        )


@dataclass(frozen=True)
class IsNull:
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{_operand(self.operand, _ADDITIVE)} {suffix}"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call: ``SUM(expr)``, ``COUNT(*)``, ``AVG(expr)``, ..."""

    func: str
    operand: Expr  # Star() for COUNT(*)
    distinct: bool = False

    def to_sql(self) -> str:
        inner = self.operand.to_sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class Exists:
    """``[NOT] EXISTS (SELECT ...)``; the planner decorrelates it into a
    semi (or anti) hash join."""

    query: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"{maybe_not}EXISTS ({self.query.to_sql()})"


@dataclass(frozen=True)
class InSubquery:
    """``expr [NOT] IN (SELECT ...)``; NULL-aware on the NOT side."""

    operand: Expr
    query: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"{_operand(self.operand, _ADDITIVE)} {maybe_not}IN ({self.query.to_sql()})"


@dataclass(frozen=True)
class ScalarSubquery:
    """``(SELECT ...)`` used as a scalar value; the planner turns
    uncorrelated ones into init plans bound as :class:`Param` values and
    decorrelates correlated aggregates into grouped joins."""

    query: "Query"

    def to_sql(self) -> str:
        return f"({self.query.to_sql()})"


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression plus optional alias."""

    expr: Expr
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()

    def output_name(self, ordinal: int) -> str:
        """Column name this item produces in the result schema."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name
        return f"_{ordinal}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class JoinSpec:
    """One explicit ``LEFT [OUTER] JOIN table ON condition`` clause.

    ``INNER JOIN ... ON`` is desugared by the parser into the comma FROM
    list plus WHERE conjuncts, so only outer joins appear here.
    """

    table: str
    condition: Expr
    join_type: str = "left"  # only outer joins are carried explicitly

    def to_sql(self) -> str:
        return f"LEFT OUTER JOIN {self.table} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class Query:
    """A parsed SELECT statement.

    The comma ``FROM`` list is one tuple, :attr:`from_tables`, in source
    order (``INNER JOIN ... ON`` lands here too, its condition in WHERE);
    :attr:`table` is its first entry.  Explicit outer joins live in
    ``joins`` (their tables are *not* part of :attr:`from_tables` — the
    planner applies them on top of the comma-join core).  A sole derived
    table (``FROM (SELECT ...) AS x``) is carried in ``derived`` with the
    one FROM entry holding its alias.
    """

    select_items: tuple[SelectItem, ...]
    from_tables: tuple[str, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = field(default=())
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: int | None = None
    having: Expr | None = None
    joins: tuple[JoinSpec, ...] = field(default=())
    derived: "Query | None" = None

    @property
    def table(self) -> str:
        """The first ``FROM`` entry (a derived table's alias)."""
        return self.from_tables[0]

    @property
    def all_tables(self) -> tuple[str, ...]:
        """Every table the query reads, including outer-joined ones."""
        return self.from_tables + tuple(j.table for j in self.joins)

    def to_sql(self) -> str:
        parts = ["SELECT " + ", ".join(item.to_sql() for item in self.select_items)]
        if self.derived is not None:
            from_clause = f"FROM ({self.derived.to_sql()}) AS {self.table}"
        else:
            from_clause = "FROM " + ", ".join(self.from_tables)
        for join in self.joins:
            from_clause += " " + join.to_sql()
        parts.append(from_clause)
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.to_sql() for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def walk(expr: Expr):
    """Yield ``expr`` and all sub-expressions, depth-first."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        yield expr
        if isinstance(expr, (Literal, Column)):
            continue
        children: tuple = ()
        if isinstance(expr, Unary):
            children = (expr.operand,)
        elif isinstance(expr, Binary):
            children = (expr.left, expr.right)
        elif isinstance(expr, FuncCall):
            children = expr.args
        elif isinstance(expr, Cast):
            children = (expr.operand,)
        elif isinstance(expr, Case):
            children = tuple(x for pair in expr.whens for x in pair)
            if expr.default is not None:
                children += (expr.default,)
        elif isinstance(expr, InList):
            children = (expr.operand, *expr.items)
        elif isinstance(expr, Between):
            children = (expr.operand, expr.low, expr.high)
        elif isinstance(expr, Like):
            children = (expr.operand, expr.pattern)
        elif isinstance(expr, IsNull):
            children = (expr.operand,)
        elif isinstance(expr, Aggregate):
            children = (expr.operand,)
        elif isinstance(expr, InSubquery):
            # The subquery body is a separate scope; only the outer operand
            # is walked.  Exists/ScalarSubquery have no outer children.
            children = (expr.operand,)
        stack.extend(reversed(children))


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate's top-level AND chain into its conjuncts.

    ``None`` (no predicate) yields the empty list.  The planner and the
    join-order search share this as the unit of WHERE decomposition.
    """
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_join(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a conjunction from :func:`split_conjuncts` output."""
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for extra in conjuncts[1:]:
        expr = Binary("AND", expr, extra)
    return expr


def referenced_columns(expr: Expr) -> set[str]:
    """Set of (unqualified) column names referenced by ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, Column)}


def has_params(expr: Expr | None) -> bool:
    """True if any sub-expression is a :class:`Param`."""
    return expr is not None and any(isinstance(n, Param) for n in walk(expr))


def contains_aggregate(expr: Expr) -> bool:
    """True if any sub-expression is an aggregate call."""
    return any(isinstance(node, Aggregate) for node in walk(expr))


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` top-down through ``fn``, the one AST rebuilder.

    ``fn`` sees each node before its children and returns the node's
    replacement (which is not descended into) or ``None`` to keep the
    node with its children mapped in turn.  Children are found
    generically — the fields a node class annotates with ``Expr`` — so a
    new node type needs no case here; subquery bodies stay separate
    scopes, as :func:`walk` treats them.  An expression nothing was
    replaced in is returned as the same object.
    """

    def rebuild(value):
        if isinstance(value, tuple):
            out = tuple(map(rebuild, value))
            return value if all(map(is_, out, value)) else out
        if value is None:
            return None  # no ELSE
        replacement = fn(value)
        if replacement is not None:
            return replacement
        changed = {
            name: new for name in _child_fields(type(value))
            if (new := rebuild(old := getattr(value, name))) is not old
        }
        return type(value)(**{**vars(value), **changed}) if changed else value

    return rebuild(expr)


@lru_cache(maxsize=None)
def _child_fields(cls: type) -> tuple[str, ...]:
    """The fields of a node class that hold sub-expressions."""
    return tuple(f.name for f in fields(cls) if "Expr" in f.type)


def map_columns(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` with every :class:`Column` node passed through
    ``fn`` (which returns a replacement expression, possibly the node
    itself).  The planner uses this to substitute output aliases with
    their select expressions; :func:`rename_columns` builds on it."""
    return map_expr(expr, lambda node: fn(node) if isinstance(node, Column) else None)


def rename_columns(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Return ``expr`` with column names rewritten per ``mapping``.

    Used by the indexing strategy to retarget a data-table predicate at
    the index table's ``value`` column, keyed by the name as that
    predicate spells it.  Lookup is exact (names are compared as
    spelled); qualifiers are dropped on renamed columns.
    """

    def rename(column: Column) -> Expr:
        new_name = mapping.get(column.name)
        if new_name is not None:
            return Column(name=new_name)
        return column

    return map_columns(expr, rename)
