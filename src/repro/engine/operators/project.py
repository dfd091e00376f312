"""Local projection: evaluate select-list expressions per batch."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.expr.vector import compile_expr_vector
from repro.sqlparser import ast


def compile_items(
    column_names: Sequence[str], items: Sequence[ast.SelectItem]
) -> tuple[list, list[str]]:
    """``batch -> column`` functions + output names for a select list."""
    schema = {name: i for i, name in enumerate(column_names)}
    extractors = []
    out_names: list[str] = []
    for ordinal, item in enumerate(items, start=1):
        if isinstance(item.expr, ast.Star):
            for idx, name in enumerate(column_names):
                extractors.append(lambda batch, i=idx: batch.column(i))
                out_names.append(name)
            continue
        extractors.append(compile_expr_vector(item.expr, schema))
        out_names.append(item.output_name(ordinal))
    return extractors, out_names


def projected_names(
    column_names: Sequence[str], items: Sequence[ast.SelectItem]
) -> list[str]:
    """Output column names of a projection without evaluating rows."""
    return compile_items(column_names, items)[1]


def project_batches(
    batches: Iterable[Batch],
    column_names: Sequence[str],
    items: Sequence[ast.SelectItem],
    tally: CpuTally | None = None,
) -> Iterator[Batch]:
    """Evaluate the select list once per column of each batch.

    Output names are available up front via :func:`projected_names`.
    """
    extractors = compile_items(column_names, items)[0]
    per_row = len(extractors) * SERVER_CPU_PER_ROW["filter"]
    for batch in batches:
        if tally is not None:
            tally.add_seconds(len(batch) * per_row)
        yield Batch([fn(batch) for fn in extractors], len(batch))
