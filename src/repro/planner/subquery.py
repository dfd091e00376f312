"""Decorrelation: subqueries and outer joins become hash-join wraps.

The planner's core understands only conjunctive comma-joins.  This
module rewrites everything richer — ``EXISTS`` / ``IN (SELECT ...)``,
scalar subqueries, ``LEFT OUTER JOIN ... ON`` and derived tables — into
that core plus a list of :class:`SubJoin` wraps the plan builders stack
on top of the core join tree (below the GROUP BY / ORDER BY tail):

* ``EXISTS`` / ``NOT EXISTS`` → semi / anti hash join against the
  subquery's correlation columns;
* ``col IN (SELECT ...)`` → semi join; ``NOT IN`` → NULL-aware anti
  join (``anti_null``), preserving three-valued ``NOT IN`` semantics
  (a NULL in the subquery result empties the output; a NULL probe
  value never qualifies);
* correlated scalar aggregates (``x < (SELECT AVG(y) ... WHERE k =
  outer.k)``) → the subquery is re-grouped by its correlation keys and
  inner-joined back on those keys; the comparison becomes the join's
  residual ``match_cond`` (rows without a matching group drop, exactly
  like a comparison against a NULL scalar);
* uncorrelated scalar subqueries (in WHERE and HAVING) and uncorrelated
  ``[NOT] EXISTS`` → a parameter ``$n``, bound to the subquery's value
  at run time;
* ``LEFT OUTER JOIN t ON ...`` → a left hash join whose build side is a
  scan of ``t`` (ON-clause predicates local to ``t`` push into the
  scan; cross-side conditions become ``match_cond``).  Outer WHERE
  conjuncts that reference ``t``'s columns are held back in
  :attr:`PreparedQuery.post_filter` so they see the NULL padding
  (three-valued logic) instead of being pushed into a scan;
* a sole derived table (``FROM (SELECT ...) AS x``) → the core the
  outer query's tail runs over.

Every subquery leg is *planned*, never run, here: it goes through the
planner's one entry (:func:`~repro.planner.planner.plan_parsed`, so
nested subqueries decorrelate the same way) and becomes an
:class:`~repro.planner.physical.InitPlan` of the outer plan, which the
executor runs before the root and bills to the query; a
:class:`~repro.planner.nodes.LegNode` reads its rows, a ``$n`` its
value.  Name collisions between build and probe sides are impossible:
every build column a leg feeds is renamed to a ``__sq<N>_`` prefix.  Column
scoping follows SQL: an unqualified name resolves to the innermost
query that has it, so self-correlation needs a renamed table copy (the
TPC-H suite loads ``lineitem2`` etc. for exactly this).

Join-order interaction: wraps are *pinned*.  The join-order DP reorders
only the inner comma-join core; outer/semi/anti edges keep their
syntactic position on top of it, which is always sound (they were
defined relative to the completed core result).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from repro.cloud.context import CloudContext
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.planner.binder import Bound
from repro.planner.physical import InitPlan
from repro.planner.tail import column_items
from repro.sqlparser import ast

_SUBQUERY_NODES = (ast.Exists, ast.InSubquery, ast.ScalarSubquery)


def contains_subquery(expr: ast.Expr | None) -> bool:
    """Whether ``expr`` contains any subquery construct."""
    return expr is not None and any(
        isinstance(n, _SUBQUERY_NODES) for n in ast.walk(expr)
    )


@dataclass
class SubJoin:
    """One decorrelated join to stack on top of the core join tree."""

    kind: str  # left | semi | anti | anti_null | inner
    build_key: str
    probe_key: str
    match_cond: ast.Expr | None
    provenance: str
    #: The build side's init plan (EXISTS / IN / scalar decorrelations);
    #: its names carry their collision-proof ``__sq<N>_`` prefix.
    leg: InitPlan | None = None
    #: Scanned build side (LEFT JOIN): the planner builds the ScanNode
    #: itself so pushdown follows the chosen execution mode.
    table: TableInfo | None = None
    scan_pred: ast.Expr | None = None
    scan_cols: list[str] | None = None


@dataclass
class PreparedQuery:
    """A rewritten query: conjunctive core plus the wraps around it."""

    query: ast.Query
    sub_joins: list[SubJoin] = field(default_factory=list)
    #: Every subquery leg, planned, in the order they run (all before
    #: the outer plan's root); ``$n`` is the value of the ``n``-th.
    init_plans: list[InitPlan] = field(default_factory=list)
    #: Outer WHERE conjuncts referencing LEFT-JOINed columns; applied
    #: as a filter above the wraps so NULL padding survives into 3VL.
    post_filter: ast.Expr | None = None
    #: Core-side columns the wraps probe or evaluate; threaded into the
    #: core scans' projections.
    extra_refs: set[str] = field(default_factory=set)
    #: The init plan of a sole-FROM ``(SELECT ...) AS x``.
    derived: InitPlan | None = None
    #: The core's binding (a table query's; ``None`` over a derived
    #: table): what the join graph reads.
    bound: Bound | None = None


def prepare_query(
    ctx: CloudContext, catalog: Catalog, bound: Bound, mode: str
) -> PreparedQuery:
    """Rewrite a bound query for planning, planning its subquery legs; a
    query with no subquery, explicit JOIN or derived table is its own
    core, with no wrap (plain HAVING is the local tail's).

    Which side of a subquery a column belongs to, and which tables a
    conjunct reads, is what binding resolved
    (:class:`~repro.planner.binder.Bound`); nothing is resolved here.
    ``mode`` is the requested execution mode; legs are planned with the
    same mode (``"auto"`` legs each make their own choice).  Touches no
    storage.
    """
    if not (bound.query.joins or bound.bodies):
        return PreparedQuery(bound.query, bound=bound)
    return _Rewriter(ctx, catalog, bound, mode).run()


class _Rewriter:
    """Single-use rewrite pass over one bound query."""

    def __init__(
        self, ctx: CloudContext, catalog: Catalog, bound: Bound, mode: str
    ):
        self.ctx = ctx
        self.catalog = catalog
        self.bound = bound
        self.query = bound.query
        self.mode = mode
        self.sub_joins: list[SubJoin] = []
        self.init_plans: list[InitPlan] = []
        self.extra_refs: set[str] = set()
        self._counter = itertools.count()

    def run(self) -> PreparedQuery:
        query = self.query
        for item in query.select_items:
            if not isinstance(item.expr, ast.Star) and contains_subquery(
                item.expr
            ):
                raise PlanError(
                    "subqueries in the select list are not supported"
                )
        if query.derived is not None:
            return self._prepare_derived(query)
        # FROM-clause joins wrap closest to the core (they run before
        # WHERE-derived semi/anti joins in SQL's evaluation order).
        for spec in query.joins:
            self.sub_joins.append(self._left_join(spec))
        kept, post = self._rewrite_where()
        having = query.having
        if contains_subquery(having):
            having = self._inline_having(having)
        core = dataclasses.replace(
            query, where=ast.and_join(kept), having=having, joins=()
        )
        tables = {t: self.bound.tables[t] for t in core.from_tables}
        return PreparedQuery(
            query=core,
            sub_joins=self.sub_joins,
            init_plans=self.init_plans,
            post_filter=ast.and_join(post),
            extra_refs=self.extra_refs,
            bound=dataclasses.replace(self.bound, query=core, tables=tables),
        )

    # ------------------------------------------------------------------
    # derived tables
    # ------------------------------------------------------------------
    def _prepare_derived(self, query: ast.Query) -> PreparedQuery:
        if contains_subquery(query.where) or contains_subquery(query.having):
            raise PlanError(
                "subqueries over a derived table are not supported"
            )
        leg = self._leg(query.derived, f"derived table {query.table}")
        return PreparedQuery(
            query=dataclasses.replace(query, derived=None),
            init_plans=self.init_plans,
            derived=leg,
        )

    # ------------------------------------------------------------------
    # WHERE conjunct rewriting
    # ------------------------------------------------------------------
    def _rewrite_where(self) -> tuple[list[ast.Expr], list[ast.Expr]]:
        """The core's WHERE conjuncts, and the ones held back above the
        wraps."""
        joined = {spec.table for spec in self.query.joins}
        kept: list[ast.Expr] = []
        post: list[ast.Expr] = []
        for i, conj in enumerate(ast.split_conjuncts(self.query.where)):
            if not contains_subquery(conj):
                if self.bound.owners(i) & joined:
                    post.append(conj)
                    # Its core-side columns must reach the filter.
                    self.extra_refs.update(
                        c for t, c in self.bound.reads[i] if t not in joined
                    )
                else:
                    kept.append(conj)
                continue
            replaced = self._rewrite_conjunct(conj)
            if replaced is not None:
                kept.append(replaced)
        return kept, post

    def _rewrite_conjunct(self, conj: ast.Expr) -> ast.Expr | None:
        if isinstance(conj, ast.Exists):
            return self._exists(conj)
        if isinstance(conj, ast.InSubquery):
            return self._in_subquery(conj)
        nodes = [n for n in ast.walk(conj) if isinstance(n, _SUBQUERY_NODES)]
        if any(not isinstance(n, ast.ScalarSubquery) for n in nodes):
            raise PlanError(
                "EXISTS / IN (SELECT ...) must appear as top-level AND"
                " conjuncts of the WHERE clause"
            )
        correlated: list[ast.ScalarSubquery] = []
        for node in nodes:
            if self._is_correlated(node.query):
                correlated.append(node)
            else:
                conj = _replace(conj, node, self._param(node.query, "scalar"))
        if not correlated:
            return conj
        if len(correlated) > 1:
            raise PlanError(
                "at most one correlated scalar subquery per conjunct"
            )
        self.sub_joins.append(self._correlated_scalar(conj, correlated[0]))
        return None

    # ------------------------------------------------------------------
    # EXISTS / IN
    # ------------------------------------------------------------------
    def _exists(self, node: ast.Exists) -> ast.Expr | None:
        sub = node.query
        what = "NOT EXISTS" if node.negated else "EXISTS"
        if not _plain(sub):
            raise PlanError(
                f"{what} supports plain SELECT ... FROM ... WHERE bodies"
            )
        body, local, corr = self._split_sub_where(sub)
        if not corr:
            # Uncorrelated EXISTS is a run-time constant; probing for a
            # single row is enough to decide it.
            probe = dataclasses.replace(
                sub, limit=1 if sub.limit is None else min(1, sub.limit)
            )
            return self._param(probe, "not exists" if node.negated else "exists")
        edge: tuple[str, str] | None = None
        rest: list[ast.Expr] = []
        for conj in corr:
            pair = None if edge is not None else _corr_edge(conj, body.is_outer)
            if pair is not None:
                edge = pair
            else:
                rest.append(conj)
        if edge is None:
            raise PlanError(
                f"correlated {what} needs an inner = outer equality"
            )
        # The build side is the subquery's correlation columns only —
        # the hash key plus whatever the residual conditions read.
        cols: list[str] = [edge[0]]
        for conj in rest:
            for c in ast.walk(conj):
                if (
                    isinstance(c, ast.Column)
                    and not body.is_outer(c)
                    and c.name not in cols
                ):
                    cols.append(c.name)
        synth = _make_query(
            [ast.SelectItem(ast.Column(c)) for c in cols],
            sub.from_tables,
            ast.and_join(local),
        )
        kind = "anti" if node.negated else "semi"
        leg, ren = self._build_leg(synth, kind)
        self._note_outer_refs(edge[1], rest, body.is_outer)
        self.sub_joins.append(
            SubJoin(
                kind=kind,
                build_key=ren[edge[0]],
                probe_key=edge[1],
                match_cond=ast.and_join(
                    [_substitute(c, ren) for c in rest]
                ),
                provenance=f"decorrelated {what}",
                leg=leg,
            )
        )
        return None

    def _in_subquery(self, node: ast.InSubquery) -> None:
        if not isinstance(node.operand, ast.Column):
            raise PlanError(
                "IN (SELECT ...) needs a plain column on the left-hand side"
            )
        sub = node.query
        what = "NOT IN" if node.negated else "IN"
        if self._is_correlated(sub):
            raise PlanError(f"correlated {what} subqueries are not supported")
        if len(sub.select_items) != 1 or isinstance(
            sub.select_items[0].expr, ast.Star
        ):
            raise PlanError("an IN subquery must select exactly one column")
        kind = "anti_null" if node.negated else "semi"
        leg, _ = self._build_leg(sub, kind)
        self.extra_refs.add(node.operand.name)
        self.sub_joins.append(
            SubJoin(
                kind=kind,
                build_key=leg.names[0],
                probe_key=node.operand.name,
                match_cond=None,
                provenance=f"decorrelated {what}",
                leg=leg,
            )
        )

    # ------------------------------------------------------------------
    # scalar subqueries
    # ------------------------------------------------------------------
    def _param(self, sub: ast.Query, value: str) -> ast.Param:
        """An uncorrelated scalar or ``[NOT] EXISTS`` subquery: ``$n``,
        bound to ``value`` of init plan ``n`` when it has run."""
        n = len(self.init_plans)
        leg = self._leg(sub, f"${n}", value)
        if value == "scalar" and len(leg.names) != 1:
            raise PlanError(
                "a scalar subquery must produce one column and at most"
                " one row"
            )
        return ast.Param(n)

    def _correlated_scalar(
        self, conj: ast.Expr, node: ast.ScalarSubquery
    ) -> SubJoin:
        sub = node.query
        if not _plain(sub):
            raise PlanError(
                "correlated scalar subqueries support plain aggregate bodies"
            )
        if len(sub.select_items) != 1 or not ast.contains_aggregate(
            sub.select_items[0].expr
        ):
            raise PlanError(
                "a correlated scalar subquery must compute one aggregate"
            )
        body, local, corr = self._split_sub_where(sub)
        pairs: list[tuple[str, str]] = []
        for c in corr:
            pair = _corr_edge(c, body.is_outer)
            if pair is None:
                raise PlanError(
                    "correlated scalar subqueries support only"
                    " inner = outer equality correlation"
                )
            pairs.append(pair)
        keys: list[str] = []
        for inner_col, _ in pairs:
            if inner_col not in keys:
                keys.append(inner_col)
        # Re-group the aggregate by its correlation keys: one build row
        # per key combination, joined back as an at-most-one-match
        # inner join (group keys are unique).
        synth = _make_query(
            [ast.SelectItem(ast.Column(k)) for k in keys]
            + [ast.SelectItem(sub.select_items[0].expr, alias="__val")],
            sub.from_tables,
            ast.and_join(local),
            group_by=[ast.Column(k) for k in keys],
        )
        leg, ren = self._build_leg(synth, "inner")
        comparison = _replace(conj, node, ast.Column(ren["__val"]))
        extras = [
            ast.Binary("=", ast.Column(ren[i]), ast.Column(o))
            for i, o in pairs[1:]
        ]
        self.extra_refs.update(outer_col for _, outer_col in pairs)
        self.extra_refs.update(ast.referenced_columns(comparison) - set(leg.names))
        return SubJoin(
            kind="inner",
            build_key=ren[pairs[0][0]],
            probe_key=pairs[0][1],
            match_cond=ast.and_join(extras + [comparison]),
            provenance="decorrelated scalar subquery",
            leg=leg,
        )

    def _inline_having(self, having: ast.Expr) -> ast.Expr:
        nodes = [
            n for n in ast.walk(having) if isinstance(n, _SUBQUERY_NODES)
        ]
        for node in nodes:
            if not isinstance(node, ast.ScalarSubquery):
                raise PlanError(
                    "only scalar subqueries are supported in HAVING"
                )
            if self._is_correlated(node.query):
                raise PlanError(
                    "correlated subqueries in HAVING are not supported"
                )
            having = _replace(having, node, self._param(node.query, "scalar"))
        return having

    # ------------------------------------------------------------------
    # LEFT OUTER JOIN
    # ------------------------------------------------------------------
    def _left_join(self, spec: ast.JoinSpec) -> SubJoin:
        jt = self.bound.tables[spec.table]
        owner = self.bound.owner

        def is_outer(column: ast.Column) -> bool:
            return owner[column] != jt.name

        scan_preds: list[ast.Expr] = []
        rest: list[ast.Expr] = []
        edge: tuple[str, str] | None = None
        for conj in ast.split_conjuncts(spec.condition):
            if contains_subquery(conj):
                raise PlanError(
                    "subqueries in ON conditions are not supported"
                )
            sides = {
                is_outer(c) for c in ast.walk(conj) if isinstance(c, ast.Column)
            }
            if sides == {False}:
                # Local to the joined table: push into its scan — sound
                # for a LEFT JOIN because it only shrinks the build
                # side, never the preserved probe side.
                scan_preds.append(conj)
                continue
            pair = None if edge is not None else _corr_edge(conj, is_outer)
            if pair is not None:
                edge = pair
            else:
                rest.append(conj)
        if edge is None:
            raise PlanError(
                "LEFT JOIN needs an ON equality linking the joined table"
                " to the FROM list"
            )
        # The joined table's columns the query reads anywhere, and the
        # ones the match condition reads.
        refs = set(self.bound.columns[jt.name])
        for reads in self.bound.reads:
            refs.update(c for t, c in reads if t == jt.name)
        for conj in rest:
            refs.update(
                c.name for c in ast.walk(conj)
                if isinstance(c, ast.Column) and not is_outer(c)
            )
        scan_cols = [n for n in jt.schema.names if n in refs or n == edge[0]]
        self._note_outer_refs(edge[1], rest, is_outer)
        return SubJoin(
            kind="left",
            build_key=edge[0],
            probe_key=edge[1],
            match_cond=ast.and_join([_substitute(c, {}) for c in rest]),
            provenance="LEFT OUTER JOIN",
            table=jt,
            scan_pred=ast.and_join(scan_preds),
            scan_cols=scan_cols,
        )

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _leg(
        self, query: ast.Query, feeds: str, value: str | None = None
    ) -> InitPlan:
        """Plan a subquery leg (recursively) as the next init plan; its
        output names are its select list's, positionally."""
        from repro.planner.planner import plan_parsed

        star = any(isinstance(i.expr, ast.Star) for i in query.select_items)
        if star and query.derived is None:
            # Spelled out: only a projection fixes a join's column order.
            query = dataclasses.replace(query, select_items=_spell_star(
                query.select_items,
                [c for t in query.all_tables
                 for c in self.catalog.get(t).schema.names],
            ))
        plan, _ = plan_parsed(self.ctx, self.catalog, query, self.mode)
        items = query.select_items
        if star and query.derived is not None:
            # A derived table's columns are its one init plan's, in order.
            items = _spell_star(items, plan.init_plans[0].names)
        names = [item.output_name(i) for i, item in enumerate(items)]
        leg = InitPlan(len(self.init_plans), plan, names, feeds, value)
        self.init_plans.append(leg)
        return leg

    def _build_leg(self, query: ast.Query, kind: str):
        """A leg feeding the build side of a ``kind`` join, its columns
        renamed to a ``__sq<N>_`` prefix; returns it and the renames."""
        leg = self._leg(query, f"build of {kind} join")
        prefix = f"__sq{next(self._counter)}_"
        renames = {c: prefix + c for c in leg.names}
        leg.names = [prefix + c for c in leg.names]
        return leg, renames

    def _split_sub_where(self, sub: ast.Query):
        """A subquery body's binding, and its WHERE split into local and
        correlated (outer-reading) conjuncts."""
        body = self.bound.body(sub)
        local: list[ast.Expr] = []
        corr: list[ast.Expr] = []
        for i, conj in enumerate(ast.split_conjuncts(sub.where)):
            outer = body.owners(i) - body.columns.keys()
            (corr if outer else local).append(conj)
        return body, local, corr

    def _is_correlated(self, sub: ast.Query) -> bool:
        if sub.derived is not None:
            return False
        return bool(self._split_sub_where(sub)[2])

    def _note_outer_refs(self, probe_key: str, conjs: list[ast.Expr], is_outer) -> None:
        """Record core-side columns a wrap reads, so scans project them."""
        self.extra_refs.add(probe_key)
        for conj in conjs:
            for c in ast.walk(conj):
                if isinstance(c, ast.Column) and is_outer(c):
                    self.extra_refs.add(c.name)


def _make_query(
    select_items,
    from_tables,
    where: ast.Expr | None,
    group_by=(),
) -> ast.Query:
    """Assemble a synthesized subquery over the comma FROM list."""
    return ast.Query(
        select_items=tuple(select_items),
        from_tables=tuple(from_tables),
        where=where,
        group_by=tuple(group_by),
    )


def _plain(sub: ast.Query) -> bool:
    """Whether ``sub`` is a plain ``SELECT ... FROM ... WHERE`` body."""
    return not (sub.group_by or sub.having is not None or sub.joins
                or sub.derived is not None)


def _spell_star(items, columns) -> tuple[ast.SelectItem, ...]:
    """``items`` with each ``*`` replaced by ``columns``."""
    return tuple(
        out for item in items
        for out in (column_items(columns) if isinstance(item.expr, ast.Star)
                    else [item])
    )


def _substitute(expr: ast.Expr, renames: dict[str, str]) -> ast.Expr:
    """Strip table qualifiers and apply build-side renames, so the
    expression compiles against the join's combined output schema."""
    return ast.map_columns(
        expr,
        lambda col: ast.Column(renames.get(col.name, col.name)),
    )


def _corr_edge(conj: ast.Expr, is_outer) -> tuple[str, str] | None:
    """``(inner_col, outer_col)`` when ``conj`` is a cross-side equality
    between two plain columns (``is_outer`` tells the sides apart)."""
    if (
        isinstance(conj, ast.Binary)
        and conj.op == "="
        and isinstance(conj.left, ast.Column)
        and isinstance(conj.right, ast.Column)
    ):
        left_outer, right_outer = is_outer(conj.left), is_outer(conj.right)
        if right_outer and not left_outer:
            return conj.left.name, conj.right.name
        if left_outer and not right_outer:
            return conj.right.name, conj.left.name
    return None


def _replace(expr, target, replacement):
    """Rebuild ``expr`` with the node ``target`` (matched by identity)
    swapped for ``replacement``.  Subquery bodies are separate scopes
    and are not descended into."""
    return ast.map_expr(expr, lambda node: replacement if node is target else None)
