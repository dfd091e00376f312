"""Execution engine for the simulated S3 Select service.

Given a stored object (CSV or SPQ1 "Parquet") and a SQL query inside the
S3 Select dialect, the engine scans the object, evaluates the query, and
returns a CSV payload — *always CSV*, even for Parquet input, mirroring
the limitation the paper calls out in Section IX ("the current S3 Select
always returns data in CSV format").

Accounting mirrors AWS billing:

* CSV input: ``bytes_scanned`` is the full object (or the requested
  ScanRange);
* Parquet input: ``bytes_scanned`` is only the referenced column chunks
  plus footer;
* ``bytes_returned`` is the size of the CSV payload shipped back.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.common.errors import UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.expr.aggregates import CompiledAggregate, split_aggregate_expr
from repro.expr.compiler import compile_expr
from repro.expr.vector import (
    compile_aggregate_input_vector,
    compile_expr_vector,
    compile_predicate_vector,
)
from repro.s3select.validator import (
    EXPRESSION_LIMIT_BYTES,
    expression_complexity,
    validate_select_sql,
)
from repro.sqlparser import ast, parser
from repro.storage.csvcodec import (
    DEFAULT_BATCH_SIZE,
    chunk_rows,
    encode_row,
    encoded_size,
    iter_column_batches,
    iter_decode_column_batches,
    iter_records,
)
from repro.storage.object_store import StoredObject
from repro.storage.parquet import ParquetFile
from repro.storage.schema import TableSchema


@dataclass(frozen=True)
class ScanRange:
    """CSV scan range (inclusive start, exclusive end byte).

    Matches S3 Select semantics: a record belongs to the range if its
    first byte lies inside it, and scanning is billed for the range
    length only.  PushdownDB's sampling strategies (hybrid group-by,
    top-K) use this to read a prefix or slice of a table cheaply.
    """

    start: int
    end: int


@dataclass
class SelectResult:
    """Outcome of one S3 Select request.

    The response stays columnar (``batches``); ``bytes_returned`` is the
    size of its CSV encoding.  The row tuples and the CSV bytes
    themselves are built on first use only — the planner's streaming
    pipeline consumes the batches and never asks for either.
    """

    batches: list[Batch]
    column_names: list[str]
    bytes_scanned: int
    bytes_returned: int
    rows_scanned: int
    term_evals: int

    @cached_property
    def rows(self) -> list[tuple]:
        return [row for batch in self.batches for row in batch.iter_rows()]

    @cached_property
    def payload(self) -> bytes:
        return b"".join(encode_row(row) for row in self.rows)


def object_schema(obj: StoredObject) -> TableSchema:
    """Recover the table schema attached to an object at load time.

    PushdownDB writes ``schema`` metadata (``["name:type", ...]``) when
    it loads tables; real S3 Select would instead see untyped CSV and
    rely on CAST.  Using typed schemas keeps the paper's queries readable
    without changing which bytes are scanned or returned.
    """
    spec = obj.metadata.get("schema")
    if not spec:
        raise UnsupportedFeatureError("object has no schema metadata")
    return TableSchema.of(*spec)


def execute_select(
    obj: StoredObject,
    sql: str,
    scan_range: ScanRange | None = None,
    expression_limit: int = EXPRESSION_LIMIT_BYTES,
    allow_group_by: bool = False,
    compress_output: bool = False,
) -> SelectResult:
    """Run one S3 Select request against ``obj``.

    Args:
        allow_group_by: enable the *partial group-by* extension of the
            paper's Suggestion 4 (see :mod:`repro.strategies.extensions`).
        compress_output: enable the Section IX mitigation the paper
            proposes for the always-CSV return format: compress the
            response payload, shrinking ``bytes_returned`` (and hence
            transfer cost and network/ingest time).  Not offered by the
            real service.

    Raises:
        SQLSyntaxError: bad SQL.
        UnsupportedFeatureError: SQL outside the S3 Select dialect.
        ExpressionLimitExceededError: SQL text over ``expression_limit``.
    """
    query = parser.parse(sql)
    validate_select_sql(sql, query, expression_limit, allow_group_by=allow_group_by)
    fmt = obj.metadata.get("format", "csv")
    if fmt == "csv":
        result = _execute_csv(obj, query, scan_range)
    elif fmt == "parquet":
        if scan_range is not None:
            raise UnsupportedFeatureError("ScanRange applies to CSV input only")
        result = _execute_parquet(obj, query)
    else:
        raise UnsupportedFeatureError(f"unknown object format {fmt!r}")
    if compress_output:
        result.payload = zlib.compress(result.payload)
        result.bytes_returned = len(result.payload)
    return result


def _execute_csv(
    obj: StoredObject, query: ast.Query, scan_range: ScanRange | None
) -> SelectResult:
    schema = object_schema(obj)
    has_header = obj.metadata.get("header", True)
    # Only the referenced columns are typed; the rest stay raw text.
    needed = _referenced_columns(query, schema) or None
    if scan_range is not None:
        window = obj.data[scan_range.start : scan_range.end]
        bytes_scanned = len(window)
        records = _iter_range_records(obj, window, scan_range, schema, has_header)
        batches = iter_column_batches(records, schema, columns=needed)
    else:
        bytes_scanned = len(obj.data)
        batches = iter_decode_column_batches(
            obj.data, schema, has_header=has_header, columns=needed
        )
    if needed:
        schema = schema.project(needed)
    return _evaluate(query, batches, schema, bytes_scanned)


def _iter_range_records(
    obj: StoredObject,
    window: bytes,
    scan_range: ScanRange,
    schema: TableSchema,
    has_header: bool,
) -> Iterator[list[str]]:
    """Lazily tokenize the records of one CSV ScanRange window.

    A record is in-range if it *starts* inside the range; the engine
    reads through its end.  We approximate by dropping a trailing record
    only when the range genuinely cuts it mid-content: a trailing record
    is complete when the range reaches the object boundary, when the
    window ends with the record delimiter, or when the delimiter is the
    very next byte after the window (a range ending exactly on a record
    boundary must not lose that record).
    """
    keep_trailing = (
        scan_range.end >= len(obj.data)
        or window.endswith(b"\n")
        or obj.data[scan_range.end : scan_range.end + 1] == b"\n"
    )
    header = list(schema.names)
    pending: list[str] | None = None
    # A range may cut a multi-byte character; those bytes can only belong
    # to the cut trailing record, which is dropped below.
    for record in iter_records(window.decode(errors="ignore").encode()):
        if pending is not None:
            yield pending
        if has_header and record == header:
            pending = None  # range started at 0 and swallowed the header
            continue
        pending = record
    if pending is not None and keep_trailing:
        yield pending


def _execute_parquet(obj: StoredObject, query: ast.Query) -> SelectResult:
    pq = ParquetFile(obj.data)
    needed = _referenced_columns(query, pq.schema)
    schema = pq.schema.project(needed) if needed else pq.schema
    batches = (
        Batch.from_rows(chunk)
        for chunk in chunk_rows(pq.iter_rows(needed), DEFAULT_BATCH_SIZE)
    )
    bytes_scanned = pq.scan_bytes_for(needed if needed else None)
    return _evaluate(query, batches, schema, bytes_scanned)


def _referenced_columns(query: ast.Query, schema: TableSchema) -> list[str]:
    """Columns the query touches, in schema order (``*`` means all)."""
    names: set[str] = set()
    for item in query.select_items:
        if isinstance(item.expr, ast.Star):
            return list(schema.names)
        names |= ast.referenced_columns(item.expr)
    for expr in (query.where, *query.group_by):
        if expr is not None:
            names |= ast.referenced_columns(expr)
    lowered = {n.lower() for n in names}
    return [n for n in schema.names if n.lower() in lowered]


class _BatchCounter:
    """Counts rows pulled from a lazy batch source (``rows_scanned``).

    With LIMIT early-termination the engine stops pulling once enough
    output rows exist, so the count reflects what was actually parsed.
    Counting whole batches totals the same as the old per-row meter:
    the decoder has no lookahead and the count is only read at the end.
    """

    __slots__ = ("_batches", "count")

    def __init__(self, batches: Iterable):
        self._batches = batches
        self.count = 0

    def __iter__(self) -> Iterator:
        for batch in self._batches:
            self.count += len(batch)
            yield batch


def _filtered_batches(
    batches: Iterable[Batch], where: ast.Expr | None, name_to_index: dict[str, int]
) -> Iterator[Batch]:
    """Apply the WHERE predicate per batch through the vector kernels."""
    if where is None:
        yield from batches
        return
    keep_mask = compile_predicate_vector(where, name_to_index)
    for batch in batches:
        yield batch.filter(keep_mask(batch))


def _evaluate(
    query: ast.Query,
    raw_batches: Iterable[Batch],
    schema: TableSchema,
    bytes_scanned: int,
) -> SelectResult:
    """Evaluate ``query`` over a lazy source of columnar batches.

    ``rows_scanned`` / ``term_evals`` meter the records actually parsed;
    ``bytes_scanned`` is fixed by the caller (the full object or the
    requested ScanRange — billing does not shrink when LIMIT stops the
    scan early, matching the byte accounting of the materialized engine).
    """
    name_to_index = schema.name_to_index
    counter = _BatchCounter(raw_batches)
    batches = _filtered_batches(counter, query.where, name_to_index)

    if query.group_by:
        out_rows, names = _run_grouped_aggregation(query, batches, name_to_index)
        out = [Batch.from_rows(out_rows, len(names))]
    elif any(
        not isinstance(item.expr, ast.Star) and ast.contains_aggregate(item.expr)
        for item in query.select_items
    ):
        out_rows, names = _run_aggregation(query, batches, name_to_index)
        if query.limit is not None:
            out_rows = out_rows[: query.limit]
        out = [Batch.from_rows(out_rows, len(names))]
    else:
        out, names = _run_projection(
            query, batches, schema, name_to_index, query.limit
        )

    return SelectResult(
        batches=out,
        column_names=names,
        bytes_scanned=bytes_scanned,
        bytes_returned=sum(encoded_size(b.columns, len(b)) for b in out),
        rows_scanned=counter.count,
        term_evals=counter.count * expression_complexity(query),
    )


def _run_projection(
    query: ast.Query,
    batches: Iterable[Batch],
    schema: TableSchema,
    name_to_index: dict[str, int],
    limit: int | None,
) -> tuple[list[Batch], list[str]]:
    """Project batches through the select list, stopping at ``limit`` rows.

    Early termination is what makes ``LIMIT n`` cheap: the batch source
    is never pulled past the batch that completes the n-th output row.
    Each select item is evaluated once per column; the output stays
    columnar.
    """
    extractors = []
    names: list[str] = []
    for ordinal, item in enumerate(query.select_items, start=1):
        if isinstance(item.expr, ast.Star):
            for idx, col in enumerate(schema.columns):
                extractors.append(lambda batch, i=idx: batch.column(i))
                names.append(col.name)
            continue
        extractors.append(compile_expr_vector(item.expr, name_to_index))
        names.append(item.output_name(ordinal))
    out: list[Batch] = []
    remaining = limit
    for batch in batches:
        projected = Batch([fn(batch) for fn in extractors], len(batch))
        if remaining is None:
            out.append(projected)
            continue
        out.append(projected[:remaining])
        remaining -= len(projected)
        if remaining <= 0:
            break
    return out, names


def _run_aggregation(
    query: ast.Query,
    batches: Iterable[Batch],
    name_to_index: dict[str, int],
) -> tuple[list[tuple], list[str]]:
    """Evaluate an aggregate-only select list over filtered batches.

    Supports arithmetic around aggregates (e.g. ``SUM(a*b) / 100``) —
    the S3-side group-by pushdown emits plain ``SUM(CASE ...)`` columns
    but TPC-H pushdowns use compound forms.
    """
    names: list[str] = []
    per_item: list[tuple[list, object]] = []  # ([(input fn, accumulator)], finisher)
    for ordinal, item in enumerate(query.select_items, start=1):
        agg_nodes, finisher = split_aggregate_expr(item.expr)
        folds = [
            (
                compile_aggregate_input_vector(node, name_to_index),
                CompiledAggregate(node, name_to_index).new_accumulator(),
            )
            for node in agg_nodes
        ]
        per_item.append((folds, finisher))
        names.append(item.output_name(ordinal))

    for batch in batches:
        for folds, _ in per_item:
            for input_values, acc in folds:
                acc.add_many(input_values(batch))

    values: list[object] = []
    for folds, finisher in per_item:
        results = [acc.result() for _, acc in folds]
        values.append(results[0] if finisher is None else finisher(results))
    return [tuple(values)], names


def _run_grouped_aggregation(
    query: ast.Query,
    batches: Iterable[Batch],
    name_to_index: dict[str, int],
) -> tuple[list[tuple], list[str]]:
    """Partial group-by at the storage side (Suggestion 4 extension).

    Group columns come from the GROUP BY clause; every select item must
    be either a group expression or an aggregate.  Partials from
    different partitions merge at the query node (the "partial" in
    partial group-by).
    """
    group_fns = [compile_expr(g, name_to_index) for g in query.group_by]
    group_sql = {g.to_sql() for g in query.group_by}

    names: list[str] = []
    agg_items: list[tuple[list[CompiledAggregate], object]] = []
    layout: list[tuple[str, int]] = []  # ("group", key_pos) | ("agg", item_pos)
    for ordinal, item in enumerate(query.select_items, start=1):
        names.append(item.output_name(ordinal))
        if not isinstance(item.expr, ast.Star) and ast.contains_aggregate(item.expr):
            agg_nodes, finisher = split_aggregate_expr(item.expr)
            compiled = [CompiledAggregate(n, name_to_index) for n in agg_nodes]
            layout.append(("agg", len(agg_items)))
            agg_items.append((compiled, finisher))
            continue
        if isinstance(item.expr, ast.Star) or item.expr.to_sql() not in group_sql:
            raise UnsupportedFeatureError(
                "partial group-by select items must be group expressions"
                " or aggregates"
            )
        key_pos = [g.to_sql() for g in query.group_by].index(item.expr.to_sql())
        layout.append(("group", key_pos))

    groups: dict[tuple, list] = {}
    for batch in batches:
        for row in batch:
            key = tuple(fn(row) for fn in group_fns)
            state = groups.get(key)
            if state is None:
                state = [
                    [agg.new_accumulator() for agg in compiled]
                    for compiled, _ in agg_items
                ]
                groups[key] = state
            for (compiled, _), accs in zip(agg_items, state):
                for agg, acc in zip(compiled, accs):
                    acc.add(agg.input_value(row))

    out: list[tuple] = []
    for key, state in groups.items():
        agg_values = []
        for (compiled, finisher), accs in zip(agg_items, state):
            results = [acc.result() for acc in accs]
            agg_values.append(results[0] if finisher is None else finisher(results))
        row_out = []
        for kind, pos in layout:
            row_out.append(key[pos] if kind == "group" else agg_values[pos])
        out.append(tuple(row_out))
    return out, names
