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
:class:`~repro.planner.joins.HashJoinNode`.

The chooser prices the very plan a ``*_plan`` constructor's runner executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bloom.filter import (  # noqa: F401  (re-exported)
    DEFAULT_FPR,
    MAX_MEMBERSHIP_CHUNKS,
    BloomPushdown,
    membership_chunks,
    predicted_bloom_pass,
)
from repro.cloud.context import CloudContext, QueryExecution
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog
from repro.optimizer.feedback import estimated_rows
from repro.planner import physical
from repro.planner.joins import HashJoinNode
from repro.planner.nodes import PlanNode, ProjectNode, ScanNode, whole_table_select
from repro.planner.physical import PhysicalPlan
from repro.planner.tail import column_items, select_list_node
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


def _join_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: JoinQuery,
    mode: str,
    strategy: str,
    combined_label: str | None = None,
    bloom: BloomPushdown | None = None,
) -> PhysicalPlan:
    """The tree all three strategies are — two scans under a hash join
    under the select list — annotated with its estimates.  ``baseline``
    mode GETs both tables and projects locally, anything else pushes
    selection and projection into S3 Select; ``bloom`` also ships the
    build keys into the probe scan, whose phases are then serial."""
    build, probe = catalog.get(query.build_table), catalog.get(query.probe_table)
    build_rows = estimated_rows(ctx, build, query.build_predicate)
    probe_rows = pass_rows = estimated_rows(ctx, probe, query.probe_predicate)
    build_keys = build.stats.distinct_among(query.build_key, build_rows)
    probe_keys = probe.stats.distinct_among(query.probe_key, probe_rows)
    if bloom is not None:
        # A filter too large for the expression limit degrades: priced as
        # the unfiltered serial probe scan the ladder ends in.
        pass_rows, hashes = predicted_bloom_pass(
            build_keys, probe_keys, probe_rows, bloom.fpr, query.probe_key
        ) or (probe_rows, 0)

    def side(table, projection, predicate, rows, label=None, bloom_attr=None):
        if mode != "baseline":
            return whole_table_select(
                table, projection, predicate, label, bloom_attr, rows
            )
        reads = projection if projection is not None else table.schema.names
        node: PlanNode = ScanNode(
            table, decoded_columns(table, reads, predicate), predicate,
            pushdown=False,
        )
        node.est_rows = rows
        # Apply the query's projections locally so baseline output matches
        # the pushdown strategies' column-for-column (it still *moved*
        # every column over the network, which is the point of the
        # comparison).
        if projection is not None:
            node = ProjectNode(node, column_items(projection))
        return node

    labels = ("build+bloom", "probe+join") if bloom else (None, None)
    probe_scan = side(
        probe, query.probe_projection, query.probe_predicate, pass_rows,
        labels[1], query.probe_key if bloom else None,
    )
    if bloom is not None:
        probe_scan.est_terms += probe.num_rows * hashes
    join = HashJoinNode(
        side(build, query.build_projection, query.build_predicate, build_rows,
             labels[0]),
        probe_scan, query.build_key, query.probe_key, stream_probe=True,
        bloom=bloom,
    )
    # Containment: every build key meets the probe's mean rows per key.
    join.est_rows = probe_rows * min(1.0, build_keys / probe_keys)
    join.est_cpu = (
        build_rows * SERVER_CPU_PER_ROW["hash_build"]
        + pass_rows * SERVER_CPU_PER_ROW["hash_probe"]
        + build_rows * (bloom.insert_cpu if bloom else 0.0)
    )
    return PhysicalPlan(
        select_list_node(join, query.output), mode, strategy,
        combined_label,
    )


def baseline_join_plan(
    ctx: CloudContext, catalog: Catalog, query: JoinQuery
) -> PhysicalPlan:
    """Load both tables in full (no S3 Select) and join locally."""
    return _join_plan(
        ctx, catalog, query, "baseline", "baseline join", "load+join"
    )


baseline_join = physical.runner(baseline_join_plan)


def filtered_join_plan(
    ctx: CloudContext, catalog: Catalog, query: JoinQuery
) -> PhysicalPlan:
    """Push selections/projections into S3 Select; join locally.

    Both table scans run in parallel (one phase), which is the behaviour
    the paper contrasts with the degraded Bloom join's serial scans.
    """
    return _join_plan(
        ctx, catalog, query, "optimized", "filtered join", "select+join"
    )


filtered_join = physical.runner(filtered_join_plan)


def bloom_join_plan(
    ctx: CloudContext,
    catalog: Catalog,
    query: JoinQuery,
    fpr: float = DEFAULT_FPR,
    seed: int | None = None,
    expression_limit_bytes: int = EXPRESSION_LIMIT_BYTES,
) -> PhysicalPlan:
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
    key_type = catalog.get(query.build_table).schema.column(query.build_key).type
    if key_type != "int":
        raise PlanError(
            f"Bloom join requires an integer join attribute; {query.build_key!r}"
            f" is {key_type} (paper Section V-A2 limitation)"
        )
    return _join_plan(ctx, catalog, query, "optimized", "bloom join", bloom=BloomPushdown(
        fpr, seed, expression_limit_bytes,
        insert_cpu=SERVER_CPU_PER_ROW["bloom_insert"], when_empty=True,
    ))


def bloom_join(
    ctx: CloudContext, catalog: Catalog, query: JoinQuery, **options
) -> QueryExecution:
    """Run :func:`bloom_join_plan` (same ``options``); the report says
    what the degradation ladder shipped."""
    plan = bloom_join_plan(ctx, catalog, query, **options)
    execution = physical.execute_plan(ctx, plan)
    join = next(
        n for n, _ in physical.walk_plan(plan.root) if isinstance(n, HashJoinNode)
    )
    bloom = join.bloom_outcome.bloom
    execution.report = execution.report.with_extras(
        requested_fpr=join.bloom.fpr,
        achieved_fpr=join.bloom_outcome.achieved_fpr,
        degraded=bloom is None,
        membership_chunks=len(join.bloom_clauses) if bloom is None else 0,
        bloom_bits=0 if bloom is None else bloom.num_bits,
        bloom_hashes=0 if bloom is None else bloom.num_hashes,
        build_keys=join.bloom_keys,
        probe_rows_returned=join.probe.actual_rows,
    )
    return execution
