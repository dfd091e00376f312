"""The paper's four group-by strategies (Section VI), as plan constructors.

* **server-side** — GET everything, hash-aggregate locally;
* **filtered** — push projection (group + aggregate columns) into S3
  Select, aggregate locally;
* **S3-side** — phase 1 projects the group column and finds distinct
  values locally; phase 2 pushes one ``FUNC(CASE WHEN match THEN x END)``
  column per (group, aggregate) — AVG as its SUM and COUNT — so only
  final aggregates cross the network, NULLs counted as SQL counts them;
* **hybrid** — sample a prefix of the table to find the populous groups,
  push aggregation for those to S3 (phase-2 query Q1), and pull the
  long-tail rows for local aggregation (query Q2).

S3 Select has no GROUP BY, which is what forces the CASE encoding — and
what the paper's Suggestion 4 (partial group-by) would fix.

The first two are scans under a :class:`~repro.planner.nodes.GroupByNode`;
the CASE-encoded and the hybrid aggregation are leaf nodes of their own,
each predicting its phases beside the ``group_batch`` that meters them.
What they push returns per-partition partials, which the engine's own
group-by finishes (:func:`~repro.engine.operators.groupby.combine_partials`).
Every statement they push is built as an ``ast.Query`` and prepared from
that tree; the byte budgets weigh its one rendering.  The chooser prices
the very plan a ``*_plan`` constructor's runner executes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.catalog import Catalog, TableInfo
from repro.engine.operators.base import BatchCounter, CpuTally
from repro.engine.operators.groupby import (
    PARTIALS,
    combine_partials,
    group_by_batches,
    group_by_cpu,
)
from repro.optimizer.cost import _phase
from repro.optimizer.feedback import estimated_rows
from repro.planner import physical
from repro.planner.nodes import (
    FilterNode,
    GroupByNode,
    PlanNode,
    ScanNode,
    whole_table_select,
)
from repro.planner.physical import PhysicalPlan
from repro.s3select.engine import PreparedSelect
from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
from repro.sqlparser import ast
from repro.strategies.scans import (
    decoded_columns,
    iter_scan_batches,
    phase_since,
    select_partials,
    select_query,
)

#: Keep pushed aggregation queries comfortably under the 256 KB limit.
_SQL_BUDGET_BYTES = 200 * 1024

#: Fraction of the table the hybrid strategy samples (paper: "the first
#: 1% of data").
DEFAULT_SAMPLE_FRACTION = 0.01

#: Number of groups hybrid pushes to S3; the paper's Figure 6 finds 6-8
#: optimal for its Zipfian workload.
DEFAULT_S3_GROUPS = 8

@dataclass(frozen=True)
class AggSpec:
    """One aggregate: function name plus input expression.

    ``column`` is usually a bare column name but may be any SQL scalar
    expression (``"l_extendedprice * (1 - l_discount)"``) — TPC-H Q1's
    pushdown needs that.
    """

    func: str
    column: str
    name: str | None = None

    def __post_init__(self):
        if self.func.upper() not in PARTIALS:
            raise PlanError(f"unsupported aggregate {self.func!r}")
        self.parsed_expr  # parsed here, never during a strategy run

    @property
    def output_name(self) -> str:
        if self.name:
            return self.name
        safe = "".join(c if c.isalnum() else "_" for c in self.column)
        return f"{self.func.lower()}_{safe}"

    @cached_property
    def parsed_expr(self) -> ast.Expr:
        from repro.sqlparser.parser import parse_expression

        return parse_expression(self.column)

    def referenced_columns(self) -> set[str]:
        return ast.referenced_columns(self.parsed_expr)

    def to_select_item(self) -> ast.SelectItem:
        return ast.SelectItem(
            expr=ast.Aggregate(func=self.func.upper(), operand=self.parsed_expr),
            alias=self.output_name,
        )


@dataclass
class GroupByQuery:
    """A group-by micro-query over one table."""

    table: str
    group_columns: list[str]
    aggregates: list[AggSpec]
    predicate: ast.Expr | None = None

    def needed_columns(self, table: TableInfo) -> list[str]:
        """The group columns, then the table columns each aggregate reads."""
        agg_columns = [
            name
            for agg in self.aggregates
            for name in table.schema.subset(agg.referenced_columns())
        ]
        return list(dict.fromkeys([*self.group_columns, *agg_columns]))

    def output_names(self) -> list[str]:
        return [*self.group_columns, *(a.output_name for a in self.aggregates)]

    def group_exprs(self) -> list[ast.Expr]:
        return [ast.Column(c) for c in self.group_columns]

    def items(self) -> list[ast.SelectItem]:
        """The output as a group-by's items: the keys, then the aggregates."""
        return [
            *map(ast.SelectItem, self.group_exprs()),
            *(a.to_select_item() for a in self.aggregates),
        ]


def server_side_group_by_node(
    ctx: CloudContext,
    table: TableInfo,
    query: GroupByQuery,
) -> PlanNode:
    """GET scan, local filter, local hash aggregation."""
    node: PlanNode = ScanNode(
        table,
        decoded_columns(table, query.needed_columns(table), query.predicate),
        None, pushdown=False, phase_label="load+groupby",
    )
    if query.predicate is not None:
        # Above the scan, not in it: the phase ingests every loaded row,
        # as the paper's server-side baseline does.
        node = FilterNode(node, query.predicate)
        node.est_rows = estimated_rows(ctx, table, query.predicate)
    return GroupByNode(node, query.group_exprs(), query.items())


def server_side_group_by_plan(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> PhysicalPlan:
    """GET all columns of all rows; aggregate on the query node."""
    root = server_side_group_by_node(ctx, catalog.get(query.table), query)
    return PhysicalPlan(root, "baseline", "server-side group-by")


server_side_group_by = physical.runner(server_side_group_by_plan)


def filtered_group_by_plan(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> PhysicalPlan:
    """Push projection (and any predicate) to S3; aggregate locally.

    Loads only the group + aggregate columns — the paper credits this
    with a 64% speedup over server-side on its 20-column table.
    """
    table = catalog.get(query.table)
    scan = whole_table_select(
        table, query.needed_columns(table), query.predicate, "select+groupby",
        est_rows=estimated_rows(ctx, table, query.predicate),
    )
    return PhysicalPlan(
        GroupByNode(scan, query.group_exprs(), query.items()),
        "optimized", "filtered group-by",
    )


filtered_group_by = physical.runner(filtered_group_by_plan)


class PushedGroupByNode(PlanNode):
    """Leaf: a group-by computed (partly) in storage.  A subclass issues
    its requests and appends its phases in :meth:`group_batch` — and says
    in ``predicted_phases`` what it expects them to hold; the finished
    groups leave as one batch."""

    kind = ""

    def __init__(self, ctx: CloudContext, table: TableInfo, query: GroupByQuery):
        self.table = table
        self.query = query
        #: Estimated rows the predicate keeps (feedback-first), and groups.
        self.est_kept = estimated_rows(ctx, table, query.predicate)
        self.est_rows = float(table.stats.groups(query.group_columns))

    def _group_scan_phase(self, name: str, fraction: float = 1.0) -> Phase:
        """Predicted phase of one scan returning the group columns of the
        kept rows among the leading ``fraction`` of every partition, to
        be counted on the query node."""
        table, query, rows = self.table, self.query, self.est_kept * fraction
        width = table.stats.projected_row_bytes(query.group_columns)
        return _phase(
            name, table.partitions,
            scan_bytes=float(table.total_bytes) * fraction,
            returned_bytes=rows * width,
            term_evals=table.num_rows * fraction
            * len(ast.split_conjuncts(query.predicate)),
            cpu_seconds=rows * SERVER_CPU_PER_ROW["aggregate"],
            records=rows, fields=rows * len(query.group_columns),
        )

    def describe(self) -> str:
        query = self.query
        text = (
            f"{self.kind} {self.table.name} [{', '.join(query.group_columns)}]"
            f" aggs={len(query.aggregates)}"
        )
        if query.predicate is not None:
            text += f" pred=({query.predicate.to_sql()})"
        return text

    def group_batch(self, ctx: CloudContext, phases: list[Phase]) -> Batch:
        raise NotImplementedError

    def run(self, state: physical.ExecState):
        groups = self.group_batch(state.ctx, state.phases)
        return self.query.output_names(), iter([groups])


class CaseGroupByNode(PushedGroupByNode):
    """The whole aggregation pushed to S3 via CASE encoding (Section VI-A).

    Phase 1 (``collect-groups``) projects the group columns and finds
    the distinct values locally; phase 2 (``s3-aggregate``) pushes one
    aggregate column per (group, aggregate), chunked to stay under the
    expression limit.
    """

    kind = "case-group-by"

    def __init__(self, ctx: CloudContext, table: TableInfo, query: GroupByQuery):
        if not query.group_columns:
            raise PlanError("S3-side group-by needs a group column")
        super().__init__(ctx, table, query)

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        work = _case_scan_work(self.table, self.query, int(self.est_rows))
        return [
            self._group_scan_phase("collect-groups"),
            _phase("s3-aggregate", self.table.partitions, **work),
        ]

    def group_batch(self, ctx: CloudContext, phases: list[Phase]) -> Batch:
        table, query = self.table, self.query
        mark = ctx.metrics.mark()
        scan = BatchCounter(iter_scan_batches(
            ctx, table, PreparedSelect(select_query(query.group_columns, query.predicate))
        ))
        groups = list(dict.fromkeys(chain.from_iterable(scan)))  # first-seen order
        phases.append(phase_since(
            ctx, mark, "collect-groups", streams=table.partitions,
            server_cpu_seconds=scan.rows * SERVER_CPU_PER_ROW["aggregate"],
            ingest=(scan.rows, len(query.group_columns)),
        ))

        mark = ctx.metrics.mark()
        out = _pushdown_group_aggregates(ctx, table, query, groups)
        phases.append(
            phase_since(ctx, mark, "s3-aggregate", streams=table.partitions)
        )
        self.extras = {"num_groups": len(groups)}
        return out


def s3_side_group_by_plan(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> PhysicalPlan:
    """Push the whole aggregation to S3 via CASE encoding (Section VI-A)."""
    root = CaseGroupByNode(ctx, catalog.get(query.table), query)
    return PhysicalPlan(root, "optimized", "s3-side group-by")


s3_side_group_by = physical.runner(s3_side_group_by_plan)


class HybridGroupByNode(PushedGroupByNode):
    """Hybrid group-by (Section VI-B): big groups at S3, tail locally.

    Phase 1 (``sample-groups``) samples the leading fraction of each
    partition to find the populous groups.  In phase 2 (``s3-agg+tail``)
    Q1 pushes the aggregation of those groups and Q2 pulls the remaining
    rows for local aggregation; both run in parallel and the phase model
    takes the max (cf. Figure 6's two bars).

    The pushed-group count is clamped so Q2's ``NOT IN`` tail predicate
    stays within the service's expression limit — a ``NOT IN`` over all
    pushed groups must travel in *one* request (its conjuncts cannot be
    unioned across requests), so groups that do not fit are moved back
    to the local tail instead of failing the query.
    """

    def __init__(
        self,
        ctx: CloudContext,
        table: TableInfo,
        query: GroupByQuery,
        sample_fraction: float,
        s3_groups: int,
        expression_limit_bytes: int,
    ):
        if len(query.group_columns) != 1:
            raise PlanError("hybrid group-by supports a single group column")
        super().__init__(ctx, table, query)
        self.kind = f"hybrid-group-by [s3_groups<={s3_groups}]"
        self.sample_fraction = sample_fraction
        self.s3_groups = s3_groups
        self.expression_limit_bytes = expression_limit_bytes

    def predicted_phases(self, ctx: CloudContext, combined=False, stored=()) -> list[Phase]:
        table, query = self.table, self.query
        stats = table.stats
        groups = int(self.est_rows)
        # The head is the column's most common values; without them (a
        # column past the MCV tracking limit), an even share of the groups.
        head_groups = min(self.s3_groups, groups)
        head_fraction = stats.column(query.group_columns[0]).mcv_fraction(
            stats.row_count, head_groups) or head_groups / max(groups, 1)
        tail_rows = self.est_kept * (1.0 - head_fraction)
        needed = query.needed_columns(table)
        # Q1 aggregates the head at S3; Q2 is one more scan, with one more
        # conjunct (the NOT IN), returning the tail for local aggregation.
        q1 = _case_scan_work(table, query, head_groups)
        q2_terms = len(ast.split_conjuncts(query.predicate)) + 1
        return [
            self._group_scan_phase("sample-groups", self.sample_fraction),
            _phase(
                "s3-agg+tail", 2 * table.partitions,
                scan_bytes=q1["scan_bytes"] + float(table.total_bytes),
                returned_bytes=q1["returned_bytes"]
                + tail_rows * stats.projected_row_bytes(needed),
                term_evals=q1["term_evals"] + table.num_rows * q2_terms,
                requests=q1["requests"] + table.partitions,
                cpu_seconds=group_by_cpu(tail_rows, len(query.aggregates)),
                records=tail_rows, fields=tail_rows * len(needed),
            ),
        ]

    def group_batch(self, ctx: CloudContext, phases: list[Phase]) -> Batch:
        table, query = self.table, self.query
        (group_col,) = query.group_columns
        needed = query.needed_columns(table)

        mark = ctx.metrics.mark()
        sample = [
            value
            for batch in iter_scan_batches(
                ctx, table, PreparedSelect(select_query([group_col], query.predicate)),
                scan_range_fraction=self.sample_fraction,
            )
            for value in batch.column(0)
        ]
        large_groups = [
            (value,) for value, _ in Counter(sample).most_common(self.s3_groups)
        ]
        # Drop the smallest pushed groups until the tail query fits the
        # expression limit; every dropped group is aggregated locally.
        tail_query = _tail_query(query, needed, large_groups)
        while large_groups and (
            len(tail_query.to_sql().encode()) > self.expression_limit_bytes
        ):
            large_groups.pop()
            tail_query = _tail_query(query, needed, large_groups)
        phases.append(phase_since(
            ctx, mark, "sample-groups", streams=table.partitions,
            server_cpu_seconds=len(sample) * SERVER_CPU_PER_ROW["aggregate"],
            ingest=(len(sample), 1),
        ))

        mark = ctx.metrics.mark()
        pushed = _pushdown_group_aggregates(ctx, table, query, large_groups)
        q1_records = ctx.metrics.records_since(mark)
        mark = ctx.metrics.mark()
        tail_rows = BatchCounter(iter_scan_batches(ctx, table, PreparedSelect(tail_query)))
        tally = CpuTally()
        tail = group_by_batches(
            tail_rows, needed, query.group_exprs(), query.items(), tally
        )
        q2_records = ctx.metrics.records_since(mark)
        local = dict(
            server_cpu_seconds=tally.seconds,
            server_records=tail_rows.rows,
            server_fields=tail_rows.rows * len(needed),
        )
        phases.append(Phase.from_records(
            "s3-agg+tail", q1_records + q2_records,
            streams=2 * table.partitions, **local,
        ))
        self.extras = {
            "large_groups": len(large_groups),
            "s3_side_seconds": ctx.perf.phase_time(
                Phase.from_records("q1", q1_records, streams=table.partitions)
            ),
            "server_side_seconds": ctx.perf.phase_time(Phase.from_records(
                "q2", q2_records, streams=table.partitions, **local
            )),
            "tail_rows": tail_rows.rows,
            "bytes_returned_phase2": sum(
                r.bytes_returned for r in q1_records + q2_records
            ),
        }
        return Batch.concat([pushed, tail], len(query.output_names()))


def hybrid_group_by_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: GroupByQuery,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    s3_groups: int = DEFAULT_S3_GROUPS,
    expression_limit_bytes: int = EXPRESSION_LIMIT_BYTES,
) -> PhysicalPlan:
    """Hybrid group-by (Section VI-B); see :class:`HybridGroupByNode`.
    ``expression_limit_bytes`` is a test seam; real S3 is 256 KB."""
    root = HybridGroupByNode(
        ctx, catalog.get(query.table), query, sample_fraction, s3_groups,
        expression_limit_bytes,
    )
    return PhysicalPlan(root, "optimized", "hybrid group-by")


hybrid_group_by = physical.runner(hybrid_group_by_plan)


# ----------------------------------------------------------------------
# pushdown helpers
# ----------------------------------------------------------------------

def _group_match(group_columns: list[str], values: tuple) -> ast.Expr:
    return ast.and_join([
        ast.IsNull(ast.Column(col)) if v is None
        else ast.Binary("=", ast.Column(col), ast.Literal(v))
        for col, v in zip(group_columns, values)
    ])


def _tail_query(
    query: GroupByQuery, needed: list[str], pushed: list[tuple]
) -> ast.Query:
    """The hybrid's Q2: the rows of every group but the ``pushed`` ones.
    ``NOT IN`` is unknown for a NULL key (and for every key once NULL is
    listed), so the NULL group is kept or dropped by its own test."""
    key = ast.Column(query.group_columns[0])
    heads = tuple(ast.Literal(v) for (v,) in pushed if v is not None)
    not_in = ast.InList(key, heads, negated=True)
    if (None,) in pushed:
        tail = not_in if heads else ast.IsNull(key, negated=True)
    else:
        tail = ast.Binary("OR", not_in, ast.IsNull(key)) if heads else None
    conjuncts = [p for p in (query.predicate, tail) if p is not None]
    return select_query(needed, ast.and_join(conjuncts))


def _case_columns(agg: AggSpec, match: ast.Expr) -> list[ast.Expr]:
    """The CASE rule (Section VI-A): ``agg`` of one group is its partial
    aggregates over ``CASE WHEN match THEN x END`` — NULL outside the
    group, so every function keeps its SQL meaning."""
    case = ast.Case(((match, agg.parsed_expr),))
    return [ast.Aggregate(func, case) for func in PARTIALS[agg.func.upper()]]


def _case_scan_work(table: TableInfo, query: GroupByQuery, groups: int) -> dict:
    """Predicted :func:`_pushdown_group_aggregates` work for ``groups``
    groups, as ``_phase`` arguments: the chunk count from one
    representative group's rendered CASE columns; every chunk re-scans
    the table, evaluating its own columns plus the WHERE conjuncts per
    scanned row."""
    match = _group_match(query.group_columns, tuple(
        table.stats.column(c).max_value for c in query.group_columns))
    columns = [c for agg in query.aggregates for c in _case_columns(agg, match)]
    group_bytes = sum(len(c.to_sql().encode()) + 2 for c in columns)
    chunks = max(1, math.ceil(groups * group_bytes / _SQL_BUDGET_BYTES))
    case_columns = groups * len(columns)
    n = table.num_rows
    return dict(
        scan_bytes=float(table.total_bytes) * chunks,
        returned_bytes=case_columns * table.partitions * 12.0,
        term_evals=n * case_columns
        + n * chunks * len(ast.split_conjuncts(query.predicate)),
        requests=float(table.partitions * chunks),
    )


def _pushdown_group_aggregates(
    ctx: CloudContext,
    table: TableInfo,
    query: GroupByQuery,
    groups: list[tuple],
) -> Batch:
    """Run the CASE-encoded aggregation queries for ``groups``; the
    finished groups, in ``groups`` order.

    The pushed columns are chunked so each statement's text stays under
    the budget, and every chunk is sent to every partition: row *i* of
    each chunk's response is partition *i*.  Laid side by side, the
    chunks' columns hold a column per (group, partial) — a group's
    partials may straddle two chunks — which is then cut per group into
    the layout :func:`combine_partials` reads, a row per (group,
    partition).
    """
    columns: list[ast.Expr] = []
    for values in groups:
        match = _group_match(query.group_columns, values)
        columns += [c for agg in query.aggregates for c in _case_columns(agg, match)]
    base_bytes = len(select_query(["x"], query.predicate).to_sql().encode()) + 64
    chunks: list[list[ast.Expr]] = []
    for column in columns:
        column_bytes = len(column.to_sql().encode()) + 2  # and its ", "
        if not chunks or used + column_bytes > _SQL_BUDGET_BYTES:
            chunks.append([])
            used = base_bytes
        chunks[-1].append(column)
        used += column_bytes
    wide: list[list] = []  # one column per (group, partial), a row per partition
    for chunk in chunks:
        statement = PreparedSelect(select_query(chunk, query.predicate))
        wide += select_partials(ctx, table, statement, len(chunk)).columns
    partitions = len(wide[0]) if wide else 0
    per_group = sum(len(PARTIALS[agg.func.upper()]) for agg in query.aggregates)
    keys = [
        [values[k] for values in groups for _ in range(partitions)]
        for k in range(len(query.group_columns))
    ]
    partials = [
        list(chain.from_iterable(wide[j::per_group])) for j in range(per_group)
    ]
    return combine_partials(
        Batch(keys + partials, len(groups) * partitions), len(keys),
        [agg.func.upper() for agg in query.aggregates],
    )
