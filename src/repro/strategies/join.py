"""The paper's three join strategies (Section V), as plan constructors.

All are two-phase hash joins differing only in what reaches the server:

* **baseline join** — GET both tables in full, join locally;
* **filtered join** — push each table's selection + projection into S3
  Select, join locally (both tables load in parallel);
* **Bloom join** — load the build side via S3 Select, construct a Bloom
  filter over its join keys, and ship that filter *inside the probe
  side's S3 Select WHERE clause* so non-matching probe rows never leave
  storage.

Bloom join degrades per Section V-B1: if the rendered filter exceeds the
256 KB expression limit the FPR is raised; if no FPR < 1 fits, the
membership predicate is chunked into exact ``IN``-list scans (up to
:data:`MAX_MEMBERSHIP_CHUNKS` SELECT requests, every one metered), and
only past that does it fall back to an unfiltered probe scan.  All the
degraded scans are *serial* after the build side (the decision is made
only after the build side is loaded).  The ladder itself is
:func:`repro.bloom.filter.membership_clauses`, run by the plan's
:class:`~repro.planner.physical.HashJoinNode`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bloom.filter import (  # noqa: F401  (re-exported)
    DEFAULT_FPR,
    MAX_MEMBERSHIP_CHUNKS,
    BloomPushdown,
    membership_chunks,
)
from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.planner import physical
from repro.planner.physical import (
    HashJoinNode,
    PhysicalPlan,
    PlanNode,
    ProjectNode,
    ScanNode,
    column_items,
    select_list_node,
    whole_table_select,
)
from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
from repro.sqlparser import ast
from repro.strategies.scans import decoded_columns


@dataclass
class JoinQuery:
    """An equi-join between a build (small) and probe (large) table."""

    build_table: str
    probe_table: str
    build_key: str
    probe_key: str
    build_predicate: ast.Expr | None = None
    probe_predicate: ast.Expr | None = None
    #: Pushdown projections; must include the join keys.  ``None`` loads
    #: every column.
    build_projection: list[str] | None = None
    probe_projection: list[str] | None = None
    #: Final select list evaluated locally (e.g. ``SUM(o_totalprice)``).
    output: list[ast.SelectItem] | None = None


def baseline_join(ctx: CloudContext, catalog: Catalog, query: JoinQuery) -> QueryExecution:
    """Load both tables in full (no S3 Select) and join locally."""

    def side(table, projection, predicate) -> PlanNode:
        reads = projection if projection is not None else table.schema.names
        node: PlanNode = ScanNode(
            table, decoded_columns(table, reads, predicate), predicate,
            pushdown=False,
        )
        # Apply the query's projections locally so baseline output matches
        # the pushdown strategies' column-for-column (it still *moved*
        # every column over the network, which is the point of the
        # comparison).
        if projection is not None:
            node = ProjectNode(node, column_items(projection))
        return node

    build = catalog.get(query.build_table)
    probe = catalog.get(query.probe_table)
    join = HashJoinNode(
        side(build, query.build_projection, query.build_predicate),
        side(probe, query.probe_projection, query.probe_predicate),
        query.build_key, query.probe_key, stream_probe=True,
    )
    return physical.execute_plan(ctx, PhysicalPlan(
        select_list_node(join, query.output), "baseline", "baseline join",
        combined_label="load+join",
    ))


def filtered_join(ctx: CloudContext, catalog: Catalog, query: JoinQuery) -> QueryExecution:
    """Push selections/projections into S3 Select; join locally.

    Both table scans run in parallel (one phase), which is the behaviour
    the paper contrasts with the degraded Bloom join's serial scans.
    """
    join = HashJoinNode(
        whole_table_select(
            catalog.get(query.build_table), query.build_projection,
            query.build_predicate,
        ),
        whole_table_select(
            catalog.get(query.probe_table), query.probe_projection,
            query.probe_predicate,
        ),
        query.build_key, query.probe_key, stream_probe=True,
    )
    return physical.execute_plan(ctx, PhysicalPlan(
        select_list_node(join, query.output), "optimized", "filtered join",
        combined_label="select+join",
    ))


def bloom_join(
    ctx: CloudContext,
    catalog: Catalog,
    query: JoinQuery,
    fpr: float = DEFAULT_FPR,
    seed: int | None = None,
    expression_limit_bytes: int = EXPRESSION_LIMIT_BYTES,
) -> QueryExecution:
    """Bloom join (Section V-A2): ship the build side's key set to S3.

    Phase 1 (``build+bloom``) loads the build side via S3 Select and
    constructs the hash table and the Bloom filter; phase 2
    (``probe+join``) scans the probe side filtered at S3 — after phase 1
    by construction, including in the degraded case, which is precisely
    the paper's serial-scans caveat.  ``expression_limit_bytes`` exists
    so tests can exercise the degradation ladder without building
    megabyte key sets; production callers leave it at the service's
    256 KB.
    """
    build = catalog.get(query.build_table)
    key_type = build.schema.column(query.build_key).type
    if key_type != "int":
        raise PlanError(
            f"Bloom join requires an integer join attribute; {query.build_key!r}"
            f" is {key_type} (paper Section V-A2 limitation)"
        )
    probe = whole_table_select(
        catalog.get(query.probe_table), query.probe_projection,
        query.probe_predicate, "probe+join", bloom_attr=query.probe_key,
    )
    join = HashJoinNode(
        whole_table_select(
            build, query.build_projection, query.build_predicate, "build+bloom"
        ),
        probe, query.build_key, query.probe_key, stream_probe=True,
        bloom=BloomPushdown(
            fpr, seed, expression_limit_bytes,
            insert_cpu=SERVER_CPU_PER_ROW["bloom_insert"], when_empty=True,
        ),
    )
    execution = physical.execute_plan(ctx, PhysicalPlan(
        select_list_node(join, query.output), "optimized", "bloom join"
    ))
    bloom = join.bloom_outcome.bloom
    execution.details.update({
        "requested_fpr": fpr,
        "achieved_fpr": join.bloom_outcome.achieved_fpr,
        "degraded": bloom is None,
        "membership_chunks": len(join.bloom_clauses) if bloom is None else 0,
        "bloom_bits": 0 if bloom is None else bloom.num_bits,
        "bloom_hashes": 0 if bloom is None else bloom.num_hashes,
        "build_keys": join.bloom_keys,
        "probe_rows_returned": probe.actual_rows,
    })
    return execution
