"""Working implementations of the paper's Section X suggestions.

The paper closes with a list of S3 Select interface changes that would
improve PushdownDB.  Two of them are concrete enough to build and
measure against the unmodified strategies:

* **Suggestion 1 — multi-range GETs**: the indexing strategy collapses
  at moderate selectivity because every matched record costs one HTTP
  request (Figure 1).  :func:`multirange_indexed_filter` batches up to
  :data:`MAX_RANGES_PER_REQUEST` byte ranges into one request, cutting
  both the dispatch time and the request bill by three orders.
* **Suggestion 4 — partial group-by in S3**:
  :func:`partial_pushdown_group_by` pushes a real ``GROUP BY`` to the
  (extended) storage engine, one scan instead of the CASE-encoded two
  scans of S3-side group-by, with per-row cost independent of the group
  count.

Both require capabilities the real S3 does not offer; the benchmarks in
``benchmarks/test_ext_suggestions.py`` quantify what AWS users are
leaving on the table.  Both are plan constructors: the first is the
index-fetch leaf of :mod:`repro.strategies.filter` with a range batch
size, the second the planner's pushed-aggregate leaf with group keys.
"""

from __future__ import annotations

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog
from repro.planner import physical
from repro.planner.nodes import PushedAggregateNode
from repro.planner.physical import PhysicalPlan
from repro.sqlparser import ast
from repro.strategies.filter import FilterQuery, indexed_filter_plan
from repro.strategies.groupby import GroupByQuery

#: Ranges batched into one extended GET request.
MAX_RANGES_PER_REQUEST = 1000


def multirange_indexed_filter_plan(
    ctx: CloudContext, catalog: Catalog, query: FilterQuery
) -> PhysicalPlan:
    """Indexed filtering with Suggestion 1's multi-range GETs.

    Phase 1 is identical to :func:`repro.strategies.filter.indexed_filter`;
    phase 2 fetches all matched extents of a partition with one request
    per :data:`MAX_RANGES_PER_REQUEST` ranges.
    """
    return indexed_filter_plan(
        ctx, catalog, query, "indexing + multirange GET (suggestion 1)",
        ranges_per_request=MAX_RANGES_PER_REQUEST,
    )


multirange_indexed_filter = physical.runner(multirange_indexed_filter_plan)


def partial_pushdown_group_by_plan(
    ctx: CloudContext, catalog: Catalog, query: GroupByQuery
) -> PhysicalPlan:
    """Group-by with Suggestion 4's partial GROUP BY pushed to storage.

    One scan (``partial-groupby``) of the whole table, unpruned as the
    paper's: each partition returns per-group partial aggregates, AVG as
    its SUM and COUNT, which the query node combines.
    """
    pushed = ast.Query(
        tuple(query.items()), (query.table,), query.predicate,
        tuple(query.group_exprs()),
    )
    root = PushedAggregateNode(
        catalog.get(query.table), pushed, phase_label="partial-groupby"
    )
    return PhysicalPlan(
        root, "optimized", "partial group-by pushdown (suggestion 4)"
    )


partial_pushdown_group_by = physical.runner(partial_pushdown_group_by_plan)

