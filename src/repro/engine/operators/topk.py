"""Local top-K selection using a bounded heap.

The paper's top-K strategies both finish with a heap on the query node
(Section VII: "The algorithm then uses a heap to select the top-K records
from all returned records"); a heap is O(n log K) instead of a full
O(n log n) sort, which matters in Figure 9's CPU-cost trend as K grows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.engine.operators.sort import make_vector_key_fn
from repro.sqlparser import ast


def top_k_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    order_items: Sequence[ast.OrderItem],
    k: int,
    tally: CpuTally | None = None,
) -> Batch:
    """The K smallest rows under the ORDER BY items, in sorted order, as
    one batch; bills its CPU into ``tally``.

    Equivalent to ``nsmallest`` over the whole input (ties keep input
    order), but memory is bounded by K + one batch instead of the full
    row set.  Rows are carried as ``(key, seq, batch, position)`` heap
    entries — the globally increasing ``seq`` breaks key ties by arrival
    order, so the payload itself is never compared; keys are computed
    column-at-a-time and only the (at most K) surviving row tuples per
    batch are materialized.
    """
    if k < 0:
        raise ValueError(f"K must be non-negative, got {k}")
    keys_fn = make_vector_key_fn(column_names, order_items)
    best: list[tuple] = []
    n = 0
    for batch in batches:
        # Bind the running row count now: the entry generator is lazy,
        # and seq must reflect arrival order, not post-increment state.
        base = n
        n += len(batch)
        entries = (
            (key, base + i, batch, i) for i, key in enumerate(keys_fn(batch))
        )
        best = heapq.nsmallest(k, itertools.chain(best, entries))
        # Pin at most K rows, not whole batches: swap surviving batch
        # references for materialized row tuples right away.
        best = [
            (key, seq, None, b.row(payload) if b is not None else payload)
            for key, seq, b, payload in best
        ]
    if tally is not None:
        tally.add_seconds(top_k_cpu(n, k))
    return Batch.from_rows([payload for _, _, _, payload in best], len(column_names))


def top_k_cpu(n: float, k: int) -> float:
    """CPU seconds to heap-select K of ``n`` rows."""
    return n * max(1.0, math.log2(max(k, 2))) * SERVER_CPU_PER_ROW["heap"]
