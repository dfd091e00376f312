"""Name binding: one pass resolves every table and column of a query.

The parser keeps identifiers as written; :func:`bind` resolves them once,
before planning, as PostgreSQL's parse analysis (range-table entries,
every column a ``Var``) and DuckDB's ``Binder`` do.  Tables and columns
become the catalog's spelling, so a bare column item is named as its
catalog column (sqlite3's rule) and an alias keeps the user's spelling.
An unqualified ORDER BY / HAVING name that a select item aliases means
that alias (in GROUP BY, only a name no table has, and it stands for
the item's expression, as in sqlite3) — the one place a name is matched
to an alias without regard to case.  A subquery body
is bound against its scope chain, the innermost scope shadowing.
Unknown columns, qualifiers naming a table outside FROM and ambiguous
names raise :class:`~repro.common.errors.PlanError` here, before any
request (an unknown table, the catalog's ``CatalogError``).  After this
pass names compare by plain string equality; binding a bound query
returns the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.sqlparser import ast

_SUBQUERY_NODES = (ast.Exists, ast.InSubquery, ast.ScalarSubquery)


@dataclass(frozen=True, eq=False)
class Bound:
    """A query spelled as the catalog spells it, and what binding learned."""

    query: ast.Query
    #: The FROM list's tables, then the outer-joined ones, by catalog name.
    tables: dict[str, TableInfo]
    #: Per table of this scope: the columns the select list, GROUP BY,
    #: HAVING and ORDER BY read (every column under ``*``).
    columns: dict[str, set[str]]
    #: Each column reference -> its table (an enclosing scope's, if outer).
    owner: dict[ast.Column, str]
    #: Each subquery body (a derived table too), by identity -> its binding.
    bodies: dict[int, "Bound"]

    @cached_property
    def reads(self) -> tuple[frozenset[tuple[str, str]], ...]:
        """Per WHERE conjunct (``split_conjuncts`` order): the ``(table,
        column)`` pairs it reads, outer references included."""
        return tuple(
            frozenset(
                (self.owner[c], c.name) for c in ast.walk(conj)
                if isinstance(c, ast.Column)
            )
            for conj in ast.split_conjuncts(self.query.where)
        )

    def owners(self, i: int) -> frozenset[str]:
        """The tables WHERE conjunct ``i`` reads."""
        return frozenset(table for table, _ in self.reads[i])

    def is_outer(self, column: ast.Column) -> bool:
        """Whether ``column`` resolves to an enclosing scope."""
        return self.owner[column] not in self.columns

    def body(self, query: ast.Query) -> "Bound":
        return self.bodies[id(query)]


def bind(query: ast.Query, catalog: Catalog) -> Bound:
    """Resolve every table and column of ``query`` (see the module docs)."""
    return _Binder(query, catalog, None).bound()


def _key(name: str) -> str:
    """The case-insensitive matching key of a user-spelled name."""
    return name.lower()


class _Binder:
    """Binds one query level, whose scope is its FROM list."""

    def __init__(self, query: ast.Query, catalog: Catalog, parent: "_Binder | None"):
        self.query, self.catalog, self.parent = query, catalog, parent
        self.infos: dict[str, TableInfo] = {}
        self.bodies: dict[int, Bound] = {}
        self.owner: dict[ast.Column, str] = {}
        self.derived = None
        if query.derived is not None:
            if query.joins:
                raise PlanError("explicit JOINs over a derived table are not supported")
            # A derived table is its own scope: it sees no enclosing query.
            self.derived = _as_written(
                query.derived, _Binder(query.derived, catalog, None).bound()
            )
            self.bodies[id(self.derived.query)] = self.derived
            names = _output_names(self.derived)
            #: table -> (column names, column key -> position)
            self.scope = {query.table: (names, {_key(n): i for i, n in enumerate(names)})}
            self.from_tables = query.from_tables
        else:
            for name in query.all_tables:
                info = catalog.get(name)
                if info.name in self.infos:
                    raise PlanError(f"duplicate table in FROM list: {query.all_tables}")
                self.infos[info.name] = info
            self.scope = {
                t: (info.schema.names, info.schema.name_to_index)
                for t, info in self.infos.items()
            }
            self.from_tables = tuple(self.infos)[:len(query.from_tables)]
        self._by_key = {_key(t): t for t in self.scope}

    def hits(self, key: str) -> list[tuple[str, str]]:
        """``(table, column)`` of each table here with a column of ``key``."""
        return [
            (table, names[i]) for table, (names, index) in self.scope.items()
            if (i := index.get(key)) is not None
        ]

    def resolve(self, column: ast.Column) -> tuple[str, str]:
        """``(table, column)`` in catalog spelling; innermost scope first."""
        key, level = _key(column.name), self
        while level is not None:
            if column.table is not None:
                table = level._by_key.get(_key(column.table))
                if table is not None:
                    names, index = level.scope[table]
                    if key not in index:
                        raise PlanError(f"table {table!r} has no column {column.name!r}")
                    return table, names[index[key]]
            elif hits := level.hits(key):
                if len(hits) > 1:
                    raise PlanError(
                        f"ambiguous column {column.name!r}: qualify it with a"
                        f" table name ({', '.join(t for t, _ in hits)})"
                    )
                return hits[0]
            level = level.parent
        where = f": no table {column.table!r} in FROM" if column.table else ""
        raise PlanError(f"unknown column {column.to_sql()!r}{where}")

    def expr(self, expr: ast.Expr, aliases: dict[str, str] | None = None) -> ast.Expr:
        """``expr`` bound: the same object when nothing is respelled.  An
        unqualified name whose key is in ``aliases`` becomes that alias."""
        renamed: dict[int, object] = {}
        for node in ast.walk(expr):
            if isinstance(node, ast.Column):
                alias = aliases and node.table is None and aliases.get(_key(node.name))
                if alias:
                    bound = node if alias == node.name else ast.Column(alias)
                else:
                    table, name = self.resolve(node)
                    bound = node
                    if name != node.name or node.table not in (None, table):
                        bound = ast.Column(name, node.table and table)
                    self.owner[bound] = table
                if bound is not node:
                    renamed[id(node)] = bound
            elif isinstance(node, _SUBQUERY_NODES):
                body = _Binder(node.query, self.catalog, self).bound()
                self.bodies[id(body.query)] = body
                if body.query is not node.query:
                    renamed[id(node)] = body.query

        def rename(node):
            new = renamed.get(id(node))
            if new is None or not isinstance(node, _SUBQUERY_NODES):
                return new  # None: an IN's operand may still be respelled
            if isinstance(node, ast.InSubquery):
                return replace(node, query=new, operand=ast.map_expr(node.operand, rename))
            return replace(node, query=new)

        return ast.map_expr(expr, rename) if renamed else expr

    def bound(self) -> Bound:
        query = self.query
        items = [
            i if isinstance(i.expr, ast.Star) else _rebuilt(i, {"expr": self.expr(i.expr)})
            for i in query.select_items
        ]
        aliases = {_key(i.alias): i.alias for i in query.select_items if i.alias}
        # A GROUP BY name means a column first, an alias only if no table
        # has it; the alias groups by its item's expression.
        grouping = {k: a for k, a in aliases.items() if not self.hits(k)}
        grouped = {i.alias: i.expr for i in items if i.alias in grouping.values()}
        changed = {
            "from_tables": self.from_tables,
            "select_items": tuple(items),
            "group_by": tuple(
                ast.map_columns(self.expr(g, grouping), lambda c: grouped.get(c.name, c))
                for g in query.group_by
            ),
            "order_by": tuple(
                _rebuilt(o, {"expr": self.expr(o.expr, aliases)}) for o in query.order_by
            ),
            "joins": tuple(
                _rebuilt(j, {"table": t, "condition": self.expr(j.condition)})
                for j, t in zip(query.joins, list(self.infos)[len(query.from_tables):])
            ),
        }
        if query.having is not None:
            changed["having"] = self.expr(query.having, aliases)
        if query.where is not None:
            changed["where"] = self.expr(query.where)
        if self.derived is not None:
            changed["derived"] = self.derived.query
        bound = _rebuilt(query, changed)

        star = any(isinstance(i.expr, ast.Star) for i in bound.select_items)
        columns = {t: set(names) if star else set() for t, (names, _) in self.scope.items()}
        upper = [*bound.group_by, *(o.expr for o in bound.order_by), bound.having]
        upper += [] if star else [i.expr for i in bound.select_items]
        for node in (n for e in filter(None, upper) for n in ast.walk(e)):
            table = isinstance(node, ast.Column) and self.owner.get(node)
            if table in columns:  # not an alias, nor an outer reference
                columns[table].add(node.name)
        return Bound(bound, self.infos, columns, self.owner, self.bodies)


def _rebuilt(node, fields: dict):
    """``node`` with ``fields`` replaced, or ``node`` itself when every new
    value equals the old (an unchanged part is the same object)."""
    changed = {k: v for k, v in fields.items() if v != getattr(node, k)}
    return replace(node, **changed) if changed else node


def _as_written(written: ast.Query, bound: Bound) -> Bound:
    """A derived table's binding, each bare column item aliased as the
    select list spelled it: sqlite3 names a subquery's column by its text
    (``(SELECT T0_A FROM T0)`` has a column ``T0_A``)."""
    items = tuple(
        replace(b, alias=w.expr.name) if isinstance(b.expr, ast.Column)
        and not b.alias and w.expr.name != b.expr.name else b
        for w, b in zip(written.select_items, bound.query.select_items)
    )
    return replace(bound, query=_rebuilt(bound.query, {"select_items": items}))


def _output_names(bound: Bound) -> tuple[str, ...]:
    """The columns a bound query produces, ``*`` spelled out."""
    query, names = bound.query, []
    for ordinal, item in enumerate(query.select_items):
        if not isinstance(item.expr, ast.Star):
            names.append(item.output_name(ordinal))
        elif query.derived is not None:
            names += _output_names(bound.body(query.derived))
        else:
            names += [n for info in bound.tables.values() for n in info.schema.names]
    return tuple(names)
