"""Execution engine for the simulated S3 Select service.

Given a stored object (CSV or SPQ1 "Parquet") and a SQL query inside the
S3 Select dialect, the engine scans the object, evaluates the query, and
returns a CSV payload — *always CSV*, even for Parquet input, mirroring
the limitation the paper calls out in Section IX ("the current S3 Select
always returns data in CSV format").

Pushdown moves operators to storage, it does not write them twice: the
engine runs the query node's own batch operators (:mod:`repro.engine.operators`),
so one operator set runs on both sides of the wire.

Accounting mirrors AWS billing:

* CSV input: ``bytes_scanned`` is the full object (or the requested
  ScanRange);
* Parquet input: ``bytes_scanned`` is only the referenced column chunks
  plus footer;
* ``bytes_returned`` is the size of the CSV payload shipped back, never
  built to be measured: a full-object CSV request for bare columns / ``*``
  sums memoised field widths over its rows (``csvcodec.returned_size``);
  computed items, aggregates, ScanRange, Parquet, quoted objects and
  compressed output are formatted (``csvcodec.encoded_size``, the reference).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from repro.common.errors import UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.engine.operators.base import BatchCounter
from repro.engine.operators.groupby import GroupBy
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import compile_items
from repro.expr.vector import compile_predicate_vector
from repro.s3select.validator import (
    EXPRESSION_LIMIT_BYTES,
    check_expression_size,
    expression_complexity,
    validate_select_sql,
)
from repro.sqlparser import ast, parser
from repro.storage.csvcodec import (
    DEFAULT_BATCH_SIZE,
    QUOTE,
    encode_row,
    encoded_size,
    iter_column_batches,
    iter_decode_column_batches,
    iter_records,
    returned_size,
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


class _Binding:
    """A statement compiled against one object schema, out of the engine's
    operators: the WHERE mask kernel (``returned_size`` needs each mask),
    then the select list's extractors and LIMIT, or one :class:`GroupBy`
    whose columns are permuted into select-list order.  Every ``run`` folds
    into fresh accumulators, so one binding serves all of its requests.
    """

    __slots__ = (
        "key", "schema", "needed", "names", "bare",
        "_limit", "_keep_mask", "_extractors", "_group_by", "_order",
    )

    def __init__(self, query: ast.Query, key: object, schema: TableSchema):
        self.key = key
        #: The object's full schema (the CSV decoder needs every column).
        self.schema = schema
        #: Referenced columns in schema order; only these are typed.
        self.needed = _referenced_columns(query, schema)
        projected = schema.project(self.needed) if self.needed else schema
        self._limit = query.limit
        self._keep_mask = (
            None if query.where is None
            else compile_predicate_vector(query.where, projected.name_to_index)
        )
        items = query.select_items
        #: Each output column's source when all are bare columns / ``*``.
        self.bare: list[str] | None = None
        layout = _aggregation_layout(query)
        self._group_by = None
        if layout is not None:
            aggs, self._order = layout
            self._group_by = GroupBy(projected.names, query.group_by, aggs)
            self.names = [item.output_name(i) for i, item in enumerate(items, 1)]
            return
        self._extractors, self.names = compile_items(projected.names, items)
        exprs = [item.expr for item in items]
        if all(isinstance(e, (ast.Star, ast.Column)) for e in exprs):
            self.bare = [n for e in exprs for n in
                         ((e.name,) if isinstance(e, ast.Column) else projected.names)]

    def run(self, batches: Iterable[Batch], masks: list) -> list[Batch]:
        """Filter and evaluate one request's batches (``masks``: each WHERE
        mask; a projection emits one batch per batch pulled, so they pair up)."""
        keep_mask = self._keep_mask
        if keep_mask is not None:
            def keep(batch: Batch) -> Batch:
                masks.append(mask := keep_mask(batch))
                return batch.filter(mask)
            batches = map(keep, batches)
        if self._group_by is None:
            extractors = self._extractors
            projected = (Batch([fn(b) for fn in extractors], len(b)) for b in batches)
            return list(limit_batches(projected, self._limit))
        order = self._order
        rows = self._group_by.run(batches).rows
        rows = [tuple(row[i] for i in order) for row in rows]
        return [Batch.from_rows(rows[: self._limit], len(self.names))]


class PreparedSelect:
    """One pushed statement, prepared once and executed per object.

    A statement is a tree.  Preparing weighs its wire text, ``to_sql()``,
    against ``expression_limit`` (``None``: the text entry,
    :func:`execute_select`, weighed the caller's own text), validates it
    and fixes its per-row term count.  A scan sends the same statement to
    every partition, so it prepares once and executes the result against
    each object (S3 still bills every request in full — nothing metered is
    shared).  The kernels are compiled against the first object's schema
    and re-compiled only when a later object advertises a different one.
    Construction raises the errors :func:`execute_select` documents.
    """

    def __init__(self, query: ast.Query, expression_limit: int | None = EXPRESSION_LIMIT_BYTES,
                 allow_group_by: bool = False):
        if expression_limit is not None:
            check_expression_size(query.to_sql(), expression_limit)
        validate_select_sql(query, allow_group_by=allow_group_by)
        self.query = query
        self._terms = expression_complexity(query)
        self._binding: _Binding | None = None

    def _bound(self, key: object, schema) -> _Binding:
        """The binding for an object advertising ``key`` (``schema()`` is
        only called to re-bind)."""
        binding = self._binding
        if binding is None or binding.key != key:
            binding = self._binding = _Binding(self.query, key, schema())
        return binding

    def execute(
        self,
        obj: StoredObject,
        scan_range: ScanRange | None = None,
        compress_output: bool = False,
    ) -> SelectResult:
        """Run the statement as one request against ``obj``.

        ``rows_scanned`` / ``term_evals`` meter the records actually
        parsed; ``bytes_scanned`` does not shrink when LIMIT stops early.
        """
        fmt = obj.metadata.get("format", "csv")
        sized: Sequence[str] = ()  # the bare columns of a response sized by width
        if fmt == "csv":
            binding = self._bound(
                tuple(obj.metadata.get("schema") or ()), lambda: object_schema(obj)
            )
            has_header = obj.metadata.get("header", True)
            needed = binding.needed
            if scan_range is not None:
                window = obj.data[scan_range.start : scan_range.end]
                bytes_scanned = len(window)
                records = _iter_range_records(
                    obj, window, scan_range, binding.schema, has_header
                )
                batches = iter_column_batches(records, binding.schema, columns=needed)
            else:
                bytes_scanned = len(obj.data)
                sized = () if compress_output else binding.bare or ()
                batches = iter_decode_column_batches(
                    obj.data, binding.schema, DEFAULT_BATCH_SIZE, has_header,
                    columns=needed, memo=obj.decoded, sized=sized,
                )
        elif fmt == "parquet":
            if scan_range is not None:
                raise UnsupportedFeatureError("ScanRange applies to CSV input only")
            pq = ParquetFile(obj.data)
            binding = self._bound(pq.schema.columns, lambda: pq.schema)
            batches = pq.iter_batches(binding.needed, DEFAULT_BATCH_SIZE)
            bytes_scanned = pq.scan_bytes_for(binding.needed or None)
        else:
            raise UnsupportedFeatureError(f"unknown object format {fmt!r}")
        # LIMIT stops pulling batches early, and the decoders have no
        # lookahead, so the count is what was actually parsed.
        counter = BatchCounter(batches)
        masks: list = []
        out = binding.run(counter, masks)
        bytes_returned = returned_size(
            obj.decoded, binding.schema, has_header, DEFAULT_BATCH_SIZE,
            sized, zip(masks or repeat(None), map(len, out)),
        ) if sized else None
        if bytes_returned is None:
            bytes_returned = sum(encoded_size(b.columns, len(b)) for b in out)
        result = SelectResult(
            batches=out,
            column_names=list(binding.names),
            bytes_scanned=bytes_scanned,
            bytes_returned=bytes_returned,
            rows_scanned=counter.rows,
            term_evals=counter.rows * self._terms,
        )
        if compress_output:
            result.payload = zlib.compress(result.payload)
            result.bytes_returned = len(result.payload)
        return result


def execute_select(
    obj: StoredObject,
    sql: str | PreparedSelect,
    scan_range: ScanRange | None = None,
    expression_limit: int = EXPRESSION_LIMIT_BYTES,
    allow_group_by: bool = False,
    compress_output: bool = False,
) -> SelectResult:
    """Run one S3 Select request against ``obj``: prepare, then execute.

    Args:
        sql: the SQL text (the one text entry: weighed as written, then
            parsed once), or a :class:`PreparedSelect`, which already
            passed the ``expression_limit`` / ``allow_group_by`` checks.
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
    if isinstance(sql, str):
        check_expression_size(sql, expression_limit)
        sql = PreparedSelect(parser.parse(sql), None, allow_group_by)
    return sql.execute(obj, scan_range, compress_output)


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
    boundary must not lose that record).  A newline is a delimiter only
    outside quotes: an odd number of quote characters in the window
    means it ends inside a quoted field, so the record is cut.
    """
    keep_trailing = scan_range.end >= len(obj.data) or (
        window.count(QUOTE.encode()) % 2 == 0
        and (
            window.endswith(b"\n")
            or obj.data[scan_range.end : scan_range.end + 1] == b"\n"
        )
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
    return schema.subset(names)


def _aggregation_layout(
    query: ast.Query,
) -> tuple[list[ast.SelectItem], list[int]] | None:
    """``None`` for a projection; else the aggregate items and each select
    item's column in a :class:`GroupBy` row (group keys, then aggregates).

    A partial group-by (Suggestion 4 extension) may list keys and
    aggregates in any order or leave a key out; partials from different
    partitions merge at the query node (the "partial" in partial group-by).
    """
    key_pos = {group.to_sql(): pos for pos, group in enumerate(query.group_by)}
    aggs: list[ast.SelectItem] = []
    order: list[int | None] = []
    for item in query.select_items:
        if isinstance(item.expr, ast.Star):
            order.append(None)
        elif ast.contains_aggregate(item.expr):
            order.append(len(query.group_by) + len(aggs))
            aggs.append(item)
        else:
            order.append(key_pos.get(item.expr.to_sql()))
    if not aggs and not query.group_by:
        return None
    if None in order:
        raise UnsupportedFeatureError(
            "partial group-by select items must be group expressions or aggregates"
        )
    return aggs, order
