"""Local filter: apply a WHERE predicate on the query node.

This is what the paper's *server-side* baselines do after loading raw
table bytes: parse, then filter locally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.expr.vector import compile_predicate_vector
from repro.sqlparser import ast


def filter_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    predicate: ast.Expr | None,
    tally: CpuTally | None = None,
) -> Iterator[Batch]:
    """Filter each batch as it flows: one mask sweep + one gather.

    Charges per-input-row CPU into ``tally`` while batches are pulled, so
    a downstream LIMIT that stops early also stops paying.
    """
    if predicate is None:
        yield from batches
        return
    schema = {name: i for i, name in enumerate(column_names)}
    keep_mask = compile_predicate_vector(predicate, schema)  # compile errors now
    per_row = SERVER_CPU_PER_ROW["filter"]
    for batch in batches:
        if tally is not None:
            tally.add_seconds(len(batch) * per_row)
        yield batch.filter(keep_mask(batch))
