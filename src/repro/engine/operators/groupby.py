"""Local hash group-by with aggregates.

Used by the server-side / filtered group-by strategies, by hybrid
group-by for its small-group tail, by the SQL planner for TPC-H
queries with GROUP BY, and by S3 Select for pushed aggregates and the
partial group-by extension.

Group keys and aggregate inputs are extracted column-at-a-time and each
group's slice of a batch is folded with :meth:`Accumulator.add_many`, in
row order, so float sums do not depend on batch boundaries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch
from repro.engine.operators.base import OpResult
from repro.expr.aggregates import CompiledAggregate, split_aggregate_expr
from repro.expr.vector import compile_aggregate_input_vector, compile_expr_vector
from repro.sqlparser import ast


def group_key_names(group_exprs: Sequence[ast.Expr]) -> list[str]:
    """A group-by's key output columns: a column key keeps its name, any
    other key is ``group_{i}``."""
    return [
        g.name if isinstance(g, ast.Column) else f"group_{i}"
        for i, g in enumerate(group_exprs)
    ]


class GroupBy:
    """A hash group-by compiled once against its input columns.

    Holds only kernels and output names; every :meth:`run` folds into
    fresh state, so one instance serves any number of streams (S3
    Select's storage-side aggregates reuse one per bound statement).
    """

    def __init__(
        self,
        column_names: Sequence[str],
        group_exprs: Sequence[ast.Expr],
        agg_items: Sequence[ast.SelectItem],
    ):
        schema = {name: i for i, name in enumerate(column_names)}
        self.group_fns = [compile_expr_vector(g, schema) for g in group_exprs]
        self.compiled_items: list[tuple[list[CompiledAggregate], object]] = []
        self.input_fns: list = []
        self.out_names = group_key_names(group_exprs)
        for ordinal, item in enumerate(agg_items, start=1):
            agg_nodes, finisher = split_aggregate_expr(item.expr)
            compiled = [CompiledAggregate(node, schema) for node in agg_nodes]
            self.compiled_items.append((compiled, finisher))
            self.input_fns.extend(
                compile_aggregate_input_vector(node, schema) for node in agg_nodes
            )
            self.out_names.append(item.output_name(ordinal))

    def _new_state(self) -> list:
        return [
            [agg.new_accumulator() for agg in compiled]
            for compiled, _ in self.compiled_items
        ]

    def _fold_batch(self, state: list, input_cols: list, idxs: list[int] | None):
        flat_accs = (acc for accs in state for acc in accs)
        if idxs is None:
            for col, acc in zip(input_cols, flat_accs):
                acc.add_many(col)
        else:
            for col, acc in zip(input_cols, flat_accs):
                acc.add_many([col[i] for i in idxs])

    def run(self, batches: Iterable[Batch]) -> OpResult:
        """Drain ``batches`` into fresh hash-table accumulators."""
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
        out: list[tuple] = []
        for key, state in groups.items():
            values: list[object] = list(key)
            for (_, finisher), accs in zip(self.compiled_items, state):
                results = [acc.result() for acc in accs]
                values.append(results[0] if finisher is None else finisher(results))
            out.append(tuple(values))
        cpu = rows * len(self.input_fns) * SERVER_CPU_PER_ROW["aggregate"]
        return OpResult(rows=out, column_names=self.out_names, cpu_seconds=cpu)


def group_by_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    group_exprs: Sequence[ast.Expr],
    agg_items: Sequence[ast.SelectItem],
) -> OpResult:
    """Group the stream by ``group_exprs`` and evaluate ``agg_items``.

    A pipeline breaker: drains the batch stream into hash-table
    accumulators as batches arrive — nothing upstream is ever
    materialized whole.  Each aggregate item may be a bare aggregate or
    arithmetic over aggregates (``SUM(a) / SUM(b)``).  Output columns are
    the group expressions followed by one column per aggregate item;
    output order follows first appearance of each group (deterministic).
    """
    return GroupBy(column_names, group_exprs, agg_items).run(batches)
