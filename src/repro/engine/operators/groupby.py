"""Local hash group-by with aggregates.

Used by the server-side / filtered group-by strategies, by hybrid
group-by for its small-group tail, by the SQL planner for TPC-H
queries with GROUP BY, by S3 Select for pushed aggregates and the
partial group-by extension, and — as :func:`combine_partials` — to
finish the per-partition partials those pushed aggregates return.

Group keys and aggregate inputs are extracted column-at-a-time and each
group's slice of a batch is folded with :meth:`Accumulator.add_many`, in
row order, so float sums do not depend on batch boundaries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.expr.aggregates import Accumulator
from repro.expr.vector import compile_aggregate_input_vector, compile_expr_vector
from repro.sqlparser import ast


def slotted(
    expr: ast.Expr, group_exprs: Sequence[ast.Expr], calls: list[ast.Aggregate]
) -> ast.Expr:
    """``expr`` over the group-by's slots: each GROUP BY expression becomes
    its key slot ``#i``, each aggregate call a call slot numbered after
    the keys (and appended to ``calls``).

    Columns match by name, as the input schema reads them (``t.a`` is
    the key ``a``).  Raises :class:`UnsupportedFeatureError` naming a
    column (or ``*``) outside every GROUP BY expression and every
    aggregate call.
    """
    keys = {unqualified(g): i for i, g in enumerate(group_exprs)}

    def slot(node: ast.Expr) -> ast.Expr | None:
        if keys and (key := keys.get(unqualified(node))) is not None:
            return ast.Column(f"#{key}")
        if isinstance(node, ast.Aggregate):
            calls.append(node)
            return ast.Column(f"#{len(keys) + len(calls) - 1}")
        if isinstance(node, (ast.Column, ast.Star)):
            raise UnsupportedFeatureError(
                f"{node.to_sql()!r} is outside every group expression and aggregate"
            )
        return None

    return ast.map_expr(expr, slot)


def unqualified(expr: ast.Expr) -> ast.Expr:
    """A column as the group-by's input schema reads it: by name alone."""
    return ast.Column(expr.name) if isinstance(expr, ast.Column) and expr.table else expr


class GroupBy:
    """A hash group-by compiled once against its input columns, emitting
    exactly its ``items``, in order (PostgreSQL's Agg node evaluates its
    target list the same way).

    An item is any grouped expression: a GROUP BY expression, an
    aggregate call, a literal, or anything computed from them.  Every
    aggregate call folds into an accumulator of its own, in item order;
    after the drain a bare key or bare call is its slot's column as it
    stands, any other item one kernel over the slots batch.

    Holds only kernels and output names; every :meth:`run` folds into
    fresh state, so one instance serves any number of streams (S3
    Select's storage-side aggregates reuse one per bound statement).
    """

    def __init__(
        self,
        column_names: Sequence[str],
        group_exprs: Sequence[ast.Expr],
        items: Sequence[ast.SelectItem],
    ):
        schema = {name: i for i, name in enumerate(column_names)}
        self.group_fns = [compile_expr_vector(g, schema) for g in group_exprs]
        calls: list[ast.Aggregate] = []
        exprs = [slotted(item.expr, group_exprs, calls) for item in items]
        self.calls = calls
        self.input_fns = [compile_aggregate_input_vector(c, schema) for c in calls]
        slots = {f"#{i}": i for i in range(len(group_exprs) + len(calls))}
        #: Per item: its slot's index, or a kernel over the slots batch.
        self.outputs = [
            slots[e.name] if isinstance(e, ast.Column) else compile_expr_vector(e, slots)
            for e in exprs
        ]
        self.names = [item.output_name(i) for i, item in enumerate(items, start=1)]

    def _new_state(self) -> list:
        return [Accumulator(call.func, call.distinct) for call in self.calls]

    def _fold_batch(self, state: list, input_cols: list, idxs: list[int] | None):
        if idxs is None:
            for col, acc in zip(input_cols, state):
                acc.add_many(col)
        else:
            for col, acc in zip(input_cols, state):
                acc.add_many([col[i] for i in idxs])

    def run(self, batches: Iterable[Batch], tally: CpuTally | None = None) -> Batch:
        """Drain ``batches`` into fresh hash-table accumulators; the items
        as one batch, a row per group in order of first appearance."""
        groups: dict[tuple, list] = {}
        if not self.group_fns:
            # A global aggregate (no GROUP BY) always produces exactly one
            # output row, even over zero input rows (SQL semantics: SUM of
            # nothing is NULL, COUNT of nothing is 0).
            groups[()] = self._new_state()
        rows = 0
        for batch in batches:
            n = len(batch)
            if n == 0:
                continue
            rows += n
            input_cols = [fn(batch) for fn in self.input_fns]
            if not self.group_fns:
                self._fold_batch(groups[()], input_cols, None)
                continue
            key_cols = [fn(batch) for fn in self.group_fns]
            buckets: dict[tuple, list[int]] = {}
            setdefault = buckets.setdefault
            for i, key in enumerate(zip(*key_cols)):
                setdefault(key, []).append(i)
            for key, idxs in buckets.items():
                state = groups.get(key)
                if state is None:
                    state = groups[key] = self._new_state()
                self._fold_batch(state, input_cols, None if len(idxs) == n else idxs)
        if tally is not None:
            tally.add_seconds(group_by_cpu(rows, len(self.input_fns)))
        keys = [[key[i] for key in groups] for i in range(len(self.group_fns))]
        results = [
            [state[j].result() for state in groups.values()]
            for j in range(len(self.calls))
        ]
        slots = Batch(keys + results, len(groups))
        return Batch(
            [slots.columns[out] if isinstance(out, int) else out(slots)
             for out in self.outputs],
            len(groups),
        )


def aggregate_inputs(items: Sequence[ast.SelectItem]) -> int:
    """The input columns a group-by folds per row: one per aggregate
    call (``AVG`` is one; ``SUM(a) / SUM(b)`` is two), as :class:`GroupBy`
    compiles them."""
    return sum(
        isinstance(node, ast.Aggregate) for item in items for node in ast.walk(item.expr)
    )


def group_by_cpu(rows: float, inputs: int) -> float:
    """CPU seconds to fold ``rows`` rows into ``inputs`` accumulators each."""
    return rows * inputs * SERVER_CPU_PER_ROW["aggregate"]


def group_by_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    group_exprs: Sequence[ast.Expr],
    items: Sequence[ast.SelectItem],
    tally: CpuTally | None = None,
) -> Batch:
    """Group the stream by ``group_exprs`` and evaluate ``items`` per group.

    A pipeline breaker: drains the batch stream into hash-table
    accumulators as batches arrive — nothing upstream is ever
    materialized whole — and bills its CPU into ``tally``.  The output
    holds one column per item (see :class:`GroupBy`); output order
    follows first appearance of each group (deterministic).
    """
    return GroupBy(column_names, group_exprs, items).run(batches, tally)


#: The partial aggregates each combinable function travels as, in the
#: order :func:`combine_partials` reads them: AVG as a SUM and a COUNT.
PARTIALS = {
    "SUM": ("SUM",), "COUNT": ("COUNT",), "MIN": ("MIN",), "MAX": ("MAX",),
    "AVG": ("SUM", "COUNT"),
}


def combine_partials(partials: Batch, keys: int, funcs: Sequence[str]) -> Batch:
    """Finish pushed aggregates from their partials, with a group-by (the
    combine and final functions of PostgreSQL's two-phase aggregation).

    ``partials`` holds ``keys`` group columns, then the :data:`PARTIALS`
    columns of each of ``funcs``, a row per (partition, group).  The
    result holds the keys, then one column per function, a row per group
    in first-seen order: COUNT partials add up, SUM / MIN / MAX ones
    combine as themselves, and AVG is its summed SUM over its summed
    COUNT — a float (the engine's ``/`` keeps an exact int quotient an
    int), NULL at count 0.  Combining bills no CPU.
    """
    names = [f"p{i}" for i in range(len(partials.columns))]
    columns = iter(map(ast.Column, names[keys:]))
    finals: list[ast.Expr] = []
    for func in funcs:
        if func == "AVG":
            total = ast.Aggregate("SUM", next(columns))
            count = ast.Aggregate("SUM", next(columns))
            finals.append(ast.Binary("/", ast.Cast(total, "FLOAT"), count))
        else:
            finals.append(ast.Aggregate("SUM" if func == "COUNT" else func, next(columns)))
    group_exprs = [ast.Column(name) for name in names[:keys]]
    items = [ast.SelectItem(expr) for expr in (*group_exprs, *finals)]
    return GroupBy(names, group_exprs, items).run([partials])
