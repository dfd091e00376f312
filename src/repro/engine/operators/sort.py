"""Local sort with multi-key ASC/DESC support."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch
from repro.engine.operators.base import OpResult
from repro.expr.vector import compile_expr_vector
from repro.sqlparser import ast


class SortKey:
    """Wrapper making any comparable value order-reversible.

    Lets one ``sorted`` call handle mixed ASC/DESC keys without numeric
    negation tricks (which would break on strings/dates).  NULLs sort
    first ascending, last descending.
    """

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "SortKey") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            if a is None and b is None:
                return False
            ascending_result = a is None  # NULLs first when ascending
            return ascending_result != self.descending
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortKey) and self.value == other.value


def make_vector_key_fn(
    column_names: Sequence[str], order_items: Sequence[ast.OrderItem]
):
    """Build a ``batch -> list of sort key tuples`` function.

    Each ORDER BY expression is evaluated once per column; a key tuple
    holds one :class:`SortKey` per item.
    """
    schema = {name: i for i, name in enumerate(column_names)}
    compiled = [
        (compile_expr_vector(o.expr, schema), o.descending) for o in order_items
    ]

    def keys_fn(batch) -> list[tuple]:
        cols = [
            [SortKey(v, desc) for v in fn(batch)] for fn, desc in compiled
        ]
        return list(zip(*cols)) if cols else [()] * len(batch)
    return keys_fn


def sort_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    order_items: Sequence[ast.OrderItem],
) -> OpResult:
    """Sort the stream by the ORDER BY items (a pipeline breaker).

    Stable: rows with equal keys keep arrival order.
    """
    keys_fn = make_vector_key_fn(column_names, order_items)
    keys: list[tuple] = []
    rows: list[tuple] = []
    for batch in batches:
        keys.extend(keys_fn(batch))
        rows.extend(batch)
    n = len(rows)
    out = [rows[i] for i in sorted(range(n), key=keys.__getitem__)]
    comparisons = n * max(1.0, math.log2(n)) if n else 0.0
    cpu = comparisons * len(order_items) * SERVER_CPU_PER_ROW["sort_per_cmp"]
    return OpResult(rows=out, column_names=list(column_names), cpu_seconds=cpu)
