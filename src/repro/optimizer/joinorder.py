"""Join-graph construction and cost-based join-order search.

The paper evaluates pushdown joins pairwise; real TPC-H shapes join
three or more tables (lineitem ⋈ orders ⋈ customer).  This module lifts
the planner past that limit:

* :func:`build_join_graph` decomposes a table query's ``WHERE``
  conjunction into per-table predicates, equi-join edges, and residual
  cross-table conjuncts (one table keeps the whole ``WHERE``);
* :class:`JoinOrderSearch` enumerates join trees — exact dynamic
  programming over connected subset *pairs* (bushy trees, not just
  left-deep chains) up to :data:`DP_TABLE_LIMIT` tables, a greedy
  minimum-intermediate-rows fallback above — building each candidate as
  a :mod:`repro.planner.physical` operator tree and pricing it through
  the one plan cost walker (:mod:`repro.planner.costing`), so the
  context's calibrated :class:`~repro.cloud.perf.PerfModel` and
  :class:`~repro.cloud.pricing.Pricing` carry over unchanged.  A Bloom
  predicate goes on a probe-side scan whose build key is an integer —
  inner (non-outermost) probes included, which snowflake shapes need —
  wherever it is predicted to reject a row;
* disconnected FROM lists (cross joins) are planned per connected
  component and combined with
  :class:`~repro.planner.joins.CrossProductNode` when the estimated
  product stays under :data:`CROSS_PRODUCT_LIMIT` rows;
* :func:`plan_join_order` builds the graph and runs the search in one
  call, for the experiment sweeps (fig12) and the tests; the planner
  builds its own :class:`JoinOrderSearch`, because it also rebuilds the
  picked tree's shape for baseline mode and hands the search to the
  adaptive executor.

:class:`JoinOrderSearch` is the only code that builds a join tree: the
DP's candidates, the greedy fallback, forced orders and shapes, the
baseline rebuild of a picked shape and the adaptive executor's re-plans.

Cardinalities use the System-R containment assumption:
``|A ⋈ B| = |A| · |B| / max(V(A,k), V(B,k))`` with distinct counts from
the statistics layer, capped by the filtered input sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection

from repro.bloom.filter import DEFAULT_FPR, BloomPushdown, predicted_bloom_pass
from repro.cloud.context import CloudContext
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.catalog import Catalog, TableInfo
from repro.optimizer import pruning
from repro.optimizer.cost import StrategyEstimate, objective_key, price_phases
from repro.optimizer.feedback import estimated_rows, predicate_signature
from repro.optimizer.selectivity import estimate_selectivity
from repro.planner.binder import Bound, bind
from repro.planner.costing import CostWalk
from repro.planner.joins import (
    CrossProductNode,
    HashJoinNode,
    join_leaf_order,
    join_tree_label,
    serialize_shape,
    tree_signature,
)
from repro.planner.nodes import PlanNode, ScanNode
from repro.sqlparser import ast
from repro.strategies.scans import decoded_columns

#: Exact DP over connected subsets is run up to this many tables (per
#: connected component); larger components fall back to the greedy search.
DP_TABLE_LIMIT = 6

#: The SQL path's one ranking: predicted dollars, runtime breaking ties
#: (the paper's optimizer minimises cost).
_RANK = objective_key("cost")

#: Disconnected FROM lists execute as cross products only while the
#: estimated row product stays under this bound; larger products are
#: rejected as unplannable cross joins.
CROSS_PRODUCT_LIMIT = 1_000_000.0

#: Planned predicates whose zone-map survivors a catalog entry memoizes
#: (``TableInfo.kept``) before the memo starts over.
KEPT_PREDICATES = 256


# ----------------------------------------------------------------------
# join graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JoinEdge:
    """One equi-join condition ``left.left_key = right.right_key``."""

    left: str
    right: str
    left_key: str
    right_key: str

    def touches(self, table: str) -> bool:
        return table in (self.left, self.right)

    def key_for(self, table: str) -> str:
        if table == self.left:
            return self.left_key
        if table == self.right:
            return self.right_key
        raise PlanError(f"edge {self} does not touch table {table!r}")

    def other(self, table: str) -> str:
        if table == self.left:
            return self.right
        if table == self.right:
            return self.left
        raise PlanError(f"edge {self} does not touch table {table!r}")


@dataclass
class JoinGraph:
    """Decomposed N-way join: tables, per-table predicates, edges."""

    #: catalog table name -> catalog entry, in FROM order.
    tables: dict[str, TableInfo]
    #: catalog table name -> conjunction of its single-table predicates.
    predicates: dict[str, ast.Expr | None]
    #: Every column equality between two tables, a second one over a
    #: pair included: a hash join keys on all the edges it crosses.
    edges: list[JoinEdge]
    #: Cross-table conjuncts that are not column equalities; applied
    #: after the full join tree.
    residual: ast.Expr | None
    #: catalog table name -> the columns read above its scan: join keys,
    #: the select list, GROUP BY, HAVING, ORDER BY and the residual.
    reads: dict[str, set[str]]

    def table_names(self) -> list[str]:
        return list(self.tables)

    def edges_between(self, table: str, others: set[str]) -> list[JoinEdge]:
        """Edges connecting ``table`` to any table in ``others``."""
        return [
            e for e in self.edges
            if e.touches(table) and e.other(table) in others
        ]

    def edges_across(self, left: frozenset, right: frozenset) -> list[JoinEdge]:
        """Edges with one endpoint in ``left`` and the other in ``right``."""
        return [
            e for e in self.edges
            if (e.left in left and e.right in right)
            or (e.left in right and e.right in left)
        ]

    def connected_components(self) -> list[list[str]]:
        """Connected components, each in FROM order (FROM order overall)."""
        names = list(self.tables)
        seen: set[str] = set()
        components: list[list[str]] = []
        for start in names:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for edge in self.edges:
                    if edge.touches(current):
                        nxt = edge.other(current)
                        if nxt not in component:
                            component.add(nxt)
                            frontier.append(nxt)
            seen |= component
            components.append([n for n in names if n in component])
        return components


def build_join_graph(bound: Bound) -> JoinGraph:
    """Extract the join graph from a bound table query's WHERE conjunction.

    Reads what binding resolved (:class:`~repro.planner.binder.Bound`):
    each conjunct's owner tables, each side's table of an equality, and
    the columns the clauses above the scans read — no name is resolved
    here.  A one-table FROM list is the graph's trivial case: that table
    keeps the whole WHERE as written, column-free conjuncts (``1 = 0``,
    the ``$n`` of an uncorrelated EXISTS) included, and there is no edge
    and no residual.  Disconnected graphs (cross joins) are legal here;
    whether they are *plannable* is the search's call (small estimated
    products become :class:`~repro.planner.joins.CrossProductNode`
    plans, anything bigger raises).
    """
    query = bound.query
    names = list(query.from_tables)
    tables = {name: bound.tables[name] for name in names}
    reads = {name: set(bound.columns[name]) for name in names}
    if len(names) == 1:
        return JoinGraph(tables, {names[0]: query.where}, [], None, reads)

    side_preds: dict[str, list[ast.Expr]] = {name: [] for name in names}
    edges: list[JoinEdge] = []
    residual: list[ast.Expr] = []

    for i, conjunct in enumerate(ast.split_conjuncts(query.where)):
        owners = bound.owners(i)
        if (
            len(owners) == 2
            and isinstance(conjunct, ast.Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.Column)
            and isinstance(conjunct.right, ast.Column)
        ):
            lo, ro = bound.owner[conjunct.left], bound.owner[conjunct.right]
            edges.append(JoinEdge(
                left=lo, right=ro,
                left_key=conjunct.left.name,
                right_key=conjunct.right.name,
            ))
            reads[lo].add(conjunct.left.name)
            reads[ro].add(conjunct.right.name)
            continue
        if len(owners) == 1:
            side_preds[next(iter(owners))].append(conjunct)
            continue
        residual.append(conjunct)
        for table, column in bound.reads[i]:
            reads[table].add(column)

    return JoinGraph(
        tables=tables,
        predicates={name: ast.and_join(side_preds[name]) for name in names},
        edges=edges,
        residual=ast.and_join(residual),
        reads=reads,
    )


def needed_columns(graph: JoinGraph, extra=()) -> dict[str, list[str]]:
    """Per-table column lists the join pipeline must scan.

    What the graph recorded each table delivering above its scan
    (:attr:`JoinGraph.reads`: join keys, the select list, GROUP BY,
    ORDER BY, HAVING and residual conjuncts; every column under
    ``SELECT *``) plus ``extra``, the column names a decorrelated
    sub-join probes or evaluates (they belong to no clause the core
    query can see).  Schema order is preserved so scan projections stay
    deterministic.  A table nothing references (a bare cross-join factor
    under ``COUNT``-style outputs) keeps its first column so the scan
    projection stays valid.
    """
    out: dict[str, list[str]] = {}
    for name, info in graph.tables.items():
        reads = graph.reads[name]
        out[name] = [
            c for c in info.schema.names if c in reads or c in extra
        ] or [info.schema.names[0]]
    return out


# ----------------------------------------------------------------------
# cost-based search
# ----------------------------------------------------------------------

@dataclass
class JoinOrderDecision:
    """Outcome of one join-order search."""

    graph: JoinGraph
    #: Left-deep-equivalent display order of the picked tree (for bushy
    #: picks this is the leaf sequence; the tree is the real contract).
    order: list[str]
    #: The picked join tree as optimized-mode physical plan nodes.
    tree: PlanNode
    #: Priced estimate of the optimized pushdown tree for the pick.
    estimate: StrategyEstimate
    #: Every candidate tree considered at the top level, priced.
    candidates: list[StrategyEstimate] = field(default_factory=list)
    method: str = "dp"

    @property
    def shape(self):
        """Serialized tree shape (the planner's forced-plan contract)."""
        return serialize_shape(self.tree)

    def candidate_table(self) -> list[dict]:
        """Compact join-order rows for EXPLAIN / experiment output."""
        picked = join_tree_label(self.tree)
        return [
            {
                "order": c.notes.get("label", ""),
                "est_rows": round(float(c.notes.get("est_rows", 0.0)), 1),
                "runtime_s": round(c.runtime_seconds, 6),
                "cost": round(c.total_cost, 9),
                "picked": c.notes.get("label") == picked,
            }
            for c in self.candidates
        ]

    def summary(self) -> dict:
        """The pick plus the candidate table, as EXPLAIN-report keys."""
        return {
            "join_order": " -> ".join(self.order),
            "join_order_method": self.method,
            "join_orders": self.candidate_table(),
        }


@dataclass(frozen=True)
class _TableShape:
    """Pre-computed per-table quantities the search prices with."""

    info: TableInfo
    filtered_rows: float
    columns: list[str]


class JoinOrderSearch:
    """Join-tree enumeration priced through the shared physical-plan IR.

    Candidates are built as :mod:`repro.planner.physical` node trees and
    priced by the search's one :class:`~repro.planner.costing.CostWalk`
    (:attr:`costs`) — the phase assembly the mode chooser ranks and
    EXPLAIN annotates with — whose memo makes a DP candidate cost its
    fresh Bloom probe leaf and one copied phase, not a walk of its
    tree (a subplan priced once, Selinger et al., SIGMOD 1979).
    Candidates rank by predicted dollars
    (runtime breaks ties), and a Bloom probe's pass rate is predicted at
    :data:`~repro.bloom.filter.DEFAULT_FPR`, the rate :meth:`combine`
    ships.

    The planner builds one per table query, one-table queries included:
    those have no order to search, so their tree is :meth:`leaf` of the
    one table and :meth:`search` never runs.
    """

    def __init__(
        self,
        ctx: CloudContext,
        graph: JoinGraph,
        extra_refs: Collection[str] = (),
    ):
        self.ctx = ctx
        self.graph = graph
        self.feedback = ctx.feedback
        self.costs = CostWalk(ctx)
        columns = needed_columns(graph, extra=extra_refs)
        self.shapes: dict[str, _TableShape] = {}
        for name, info in graph.tables.items():
            self.shapes[name] = _TableShape(
                info, estimated_rows(ctx, info, graph.predicates[name]),
                columns[name],
            )
        self._shares: dict[tuple[str, str, str, str], float] = {}
        #: False for a one-phase plan's re-plans: no scan may wait on a Bloom.
        self.blooms = True

    @cached_property
    def _pred_sigs(self) -> dict[str, tuple[str, str]]:
        """Per-table ``(name, predicate_signature)`` pairs, computed once
        (on the first join feedback lookup) so warm-session DP candidates
        build their feedback signatures (:func:`tree_signature`) without
        re-serializing predicates per candidate."""
        return {
            name: (name, predicate_signature(self.graph.predicates[name]))
            for name in self.graph.tables
        }

    # -- cardinality -------------------------------------------------
    def _key_distinct(self, table: str, key: str, rows: float) -> float:
        stats = self.graph.tables[table].stats
        return stats.distinct_among(key, rows)

    def _key_share(self, table: str, key: str, other: str, other_key: str) -> float:
        """Estimated share of ``table``'s rows whose ``key`` can meet ``other``:
        ``other``'s demands on its key hold for ``key`` across the equality
        (``a.k = b.k AND b.k < 9``: ``a.k < 9``) unless ``table`` restricts it."""
        memo = table, key, other, other_key
        if memo not in self._shares:
            own = self.graph.predicates[table]
            restricted = own is not None and key in ast.referenced_columns(own)
            implied = [
                ast.rename_columns(conjunct, {other_key: key})
                for conjunct in ast.split_conjuncts(self.graph.predicates[other])
                if not restricted and ast.referenced_columns(conjunct) == {other_key}
            ]
            self._shares[memo] = estimate_selectivity(
                ast.and_join(implied), self.graph.tables[table].stats
            )
        return self._shares[memo]

    def _pair_rows(
        self, left: PlanNode, right: PlanNode, edges: list[JoinEdge]
    ) -> float:
        """Containment estimate of joining two subtrees along ``edges``:
        each edge multiplies its own ``1 / max(V)`` in (System-R
        independence)."""
        rows = left.est_rows * right.est_rows
        for edge in edges:
            l_end = edge.left if edge.left in left.tables else edge.right
            r_end = edge.other(l_end)
            l_key, r_key = edge.key_for(l_end), edge.key_for(r_end)
            l_share = self._key_share(l_end, l_key, r_end, r_key)
            r_share = self._key_share(r_end, r_key, l_end, l_key)
            d_left = l_share * self._key_distinct(
                l_end, l_key, min(left.est_rows, self.shapes[l_end].filtered_rows),
            )
            d_right = r_share * self._key_distinct(
                r_end, r_key, min(right.est_rows, self.shapes[r_end].filtered_rows),
            )
            rows *= l_share * r_share / (max(d_left, d_right) or 1.0)
        return max(rows, 0.0)

    # -- tree construction -------------------------------------------
    def leaf(self, name: str, pushdown: bool = True) -> ScanNode:
        """A fresh, unannotated scan of one table: pushed down, or
        (``pushdown=False``) a GET scan decoding what the plan reads plus
        what its own predicate reads."""
        shape = self.shapes[name]
        predicate = self.graph.predicates[name]
        node = ScanNode(
            shape.info,
            shape.columns if pushdown
            else decoded_columns(shape.info, shape.columns, predicate),
            predicate, pushdown=pushdown, phase_label=f"scan-{name}",
            prune=False,
        )
        if pushdown and self.ctx.prune_partitions:
            # Refuted on first use: neither a predicate nor a zone map
            # changes while a catalog entry lives.  A long session's
            # distinct predicates do not pile up past the bound.
            kept = shape.info.kept
            if predicate not in kept:
                if len(kept) >= KEPT_PREDICATES:
                    kept.clear()
                kept[predicate] = pruning.keep_partitions(shape.info, predicate)
            node.keep_partitions = kept[predicate]
        node.est_rows = shape.filtered_rows
        return node

    def _orient(self, t1: PlanNode, t2: PlanNode):
        """Hash-build side = smaller estimated input (ties: fewer tables,
        then lexicographic), matching the executor's build-side rule."""
        key1 = (t1.est_rows, len(t1.tables), tuple(sorted(t1.tables)))
        key2 = (t2.est_rows, len(t2.tables), tuple(sorted(t2.tables)))
        return (t1, t2) if key1 <= key2 else (t2, t1)

    def combine(
        self, t1: PlanNode, t2: PlanNode, orient: bool = True
    ) -> HashJoinNode:
        """Join two subtrees on every edge crossing them, in edge order;
        a Bloom predicate ships the first edge's keys when it is predicted
        to reject a probe row (:meth:`_bloom_shape`).

        Neither subtree is copied or changed, so a memoized DP subtree
        may sit in many candidates: a Bloom predicate goes on a fresh
        scan of the probe table, never on the leaf passed in.
        ``orient=False`` keeps ``t1`` as the build side (rebuilding a
        serialized shape).
        """
        edges = self.graph.edges_across(t1.tables, t2.tables)
        if not edges:
            raise PlanError(
                f"no equi-join edge connects {sorted(t1.tables)} and"
                f" {sorted(t2.tables)}"
            )
        est_rows = self._pair_rows(t1, t2, edges)
        build, probe = self._orient(t1, t2) if orient else (t1, t2)
        build_keys, probe_keys = zip(*(
            (e.left_key, e.right_key) if e.left in build.tables
            else (e.right_key, e.left_key)
            for e in edges
        ))
        edge = edges[0]
        build_end = edge.left if edge.left in build.tables else edge.right
        probe_end = edge.other(build_end)
        bloom = self._bloom_shape(
            build, probe, build_end, build_keys[0], probe_keys[0]
        )
        if bloom is not None:
            probe = self.leaf(probe_end)
        node = HashJoinNode(build, probe, build_keys, probe_keys)
        if self.feedback.has_join_feedback():
            # A join this session already executed (same tables, same
            # pushed predicates, same key pairs) has a *measured* output
            # cardinality; it replaces the containment estimate.  The
            # emptiness guard keeps signature construction out of the
            # cold DP's inner loop.
            signature = tree_signature(node, self._pred_sigs)
            if signature is not None:
                measured = self.feedback.lookup_join(signature)
                if measured is not None:
                    est_rows = measured
        node.est_rows = est_rows
        # CPU on the pre-Bloom inputs: the smaller one is hashed.
        cpu = (
            min(build.est_rows, probe.est_rows) * SERVER_CPU_PER_ROW["hash_build"]
            + max(build.est_rows, probe.est_rows) * SERVER_CPU_PER_ROW["hash_probe"]
        )
        if bloom is not None:
            pass_rows, hashes = bloom
            node.bloom = BloomPushdown()
            probe.bloom_attr = probe_keys[0]
            probe.est_rows = min(probe.est_rows, pass_rows)
            probe.est_terms += probe.table.num_rows * hashes
            cpu += build.est_rows * SERVER_CPU_PER_ROW["bloom_insert"]
        node.est_cpu = cpu
        return node

    def cross(
        self, t1: PlanNode, t2: PlanNode, orient: bool = True
    ) -> CrossProductNode:
        """Cartesian product of two subtrees, guarded by the size limit."""
        est_rows = t1.est_rows * t2.est_rows
        if est_rows > CROSS_PRODUCT_LIMIT:
            raise PlanError(
                "multi-table queries need equi-join conditions (a.k = b.k)"
                " connecting every table; this cross join's estimated"
                f" product ({est_rows:.0f} rows) exceeds the"
                f" {CROSS_PRODUCT_LIMIT:.0f}-row cross-product fallback"
            )
        columns = [
            c
            for tree in (t1, t2)
            for name in tree.tables
            for c in self.shapes[name].columns
        ]
        if len(set(columns)) != len(columns):
            # Fail at plan time, before any scan request is billed; the
            # executor keeps a defensive check for hand-built plans.
            raise PlanError(
                "cross product would produce duplicate column names:"
                f" {sorted(columns)}"
            )
        build, probe = self._orient(t1, t2) if orient else (t1, t2)
        node = CrossProductNode(build, probe)
        node.est_rows = est_rows
        return node

    def _bloom_shape(
        self, build: PlanNode, probe: PlanNode, build_end: str,
        build_key: str, probe_key: str,
    ) -> tuple[float, int] | None:
        """(expected probe rows passing, hash count) or None if ineligible.

        Eligible when the probe is a pushdown scan, the build-side key
        column is an integer — inner probes included — and the filter is
        predicted to reject a row: each hash is an S3-side term per
        scanned row (a Bloomjoin pays only when selective: Mackert &
        Lohman, VLDB 1986).
        """
        if not (self.blooms and isinstance(probe, ScanNode) and probe.pushdown):
            return None
        column = self.graph.tables[build_end].schema.column(build_key)
        if column.type != "int":
            return None
        probe_end = next(iter(probe.tables))
        filtered_rows = self.shapes[probe_end].filtered_rows
        # Sized for every build key; only the share meeting the probe's key passes rows.
        share = self._key_share(build_end, build_key, probe_end, probe_key)
        bloom = predicted_bloom_pass(
            self._key_distinct(build_end, build_key, build.est_rows),
            self._key_distinct(probe_end, probe_key, filtered_rows) / share
            if share else math.inf,
            filtered_rows, DEFAULT_FPR, probe_key,
        )
        return None if bloom is None or bloom[0] == filtered_rows else bloom

    def left_deep_tree(self, order: list[str]) -> PlanNode:
        """The join tree a forced left-deep ``order`` executes as."""
        tree: PlanNode = self.leaf(order[0])
        for name in order[1:]:
            tree = self.combine(tree, self.leaf(name))
        return tree

    def build_tree(self, shape, pushdown: bool = True) -> PlanNode:
        """Rebuild a serialized tree shape with fresh estimates.

        ``shape`` is :func:`serialize_shape` output: a table
        name, or ``[kind, build_shape, probe_shape]`` with the build
        orientation preserved.  ``pushdown=False`` builds it over GET
        scans, hence without Bloom predicates: a picked tree's baseline
        plan.
        """
        if isinstance(shape, str):
            return self.leaf(shape, pushdown)
        kind, build_shape, probe_shape = shape
        build = self.build_tree(build_shape, pushdown)
        probe = self.build_tree(probe_shape, pushdown)
        if kind == "cross":
            return self.cross(build, probe, orient=False)
        return self.combine(build, probe, orient=False)

    # -- pricing -----------------------------------------------------
    def price_tree(self, tree: PlanNode, notes: bool = True) -> StrategyEstimate:
        """Predicted profile of the optimized pushdown plan for ``tree``.

        Priced by the search's memoized walk (:attr:`costs`), which
        walks no subtree it priced before: scan phases mirror the
        executor's per-scan metering (Bloom-reduced returned rows on
        probe scans), join CPU lands on a copy of the phase preceding
        each join.  ``notes=False`` (the DP's inner subsets) leaves out
        the label, order and shape only EXPLAIN's candidate list shows.
        """
        phases, timed = self.costs.phases(tree), self.costs.phase_time
        if not notes:
            return price_phases(self.ctx, "join-order", phases, phase_time=timed)
        label = join_tree_label(tree)
        return price_phases(
            self.ctx,
            f"join-order {label}",
            phases,
            {
                "order": join_leaf_order(tree),
                "label": label,
                "tree": serialize_shape(tree),
                "est_rows": tree.est_rows,
            },
            timed,
        )

    # -- enumeration -------------------------------------------------
    def search(self) -> JoinOrderDecision:
        """Pick the cheapest join tree: least predicted dollars, then
        least runtime.

        Each connected component is planned by :meth:`_best_tree` (bushy
        DP, greedy above :data:`DP_TABLE_LIMIT`); multiple components
        combine smallest first through guarded cross products.
        """
        components = self.graph.connected_components()
        trees: list[PlanNode] = []
        candidates: list[StrategyEstimate] = []
        methods: set[str] = set()
        for component in components:
            leaves = [self.leaf(name) for name in component]
            if len(leaves) == 1:
                trees.append(leaves[0])
                continue
            tree, options = self._best_tree(leaves)
            trees.append(tree)
            methods.add("dp" if options else "greedy")
            if len(components) == 1 and options:
                candidates = sorted((est for _, est in options), key=_RANK)

        trees.sort(
            key=lambda t: (t.est_rows, tuple(sorted(t.tables)))
        )
        tree = trees[0]
        for other in trees[1:]:
            # orient=True: the accumulated product grows past each new
            # component, so the smaller side becomes the build again.
            tree = self.cross(tree, other)
        estimate = self.price_tree(tree)
        if not candidates:
            candidates = [estimate]
        method = "+".join(sorted(methods))
        if len(components) > 1:
            # Pure cross combines (all components single tables) never
            # ran a DP, so the method reports just "cross".
            method = f"{method}+cross" if method else "cross"
        elif not method:
            method = "dp"
        return JoinOrderDecision(
            graph=self.graph,
            order=join_leaf_order(tree),
            tree=tree,
            estimate=estimate,
            candidates=candidates,
            method=method,
        )

    def _best_tree(
        self, leaves: list[PlanNode]
    ) -> tuple[PlanNode, list[tuple[PlanNode, StrategyEstimate]]]:
        """The cheapest join tree over two or more ``leaves``, with the
        DP's priced candidates over all of them — or, above
        :data:`DP_TABLE_LIMIT` leaves, where exhaustive subset
        enumeration would stall (mid-query too), the greedy tree and no
        candidates."""
        if len(leaves) > DP_TABLE_LIMIT:
            return self._greedy_tree(leaves), []
        options = self._dp_leaves(leaves)
        if not options:
            raise PlanError(
                "no connected join tree exists for tables"
                f" {sorted(frozenset().union(*(leaf.tables for leaf in leaves)))}"
            )
        return min(options, key=lambda pair: _RANK(pair[1]))[0], options

    def _dp_leaves(
        self, leaves: list[PlanNode]
    ) -> list[tuple[PlanNode, StrategyEstimate]]:
        """The bushy DP itself, over generic leaves.

        ``best[S]`` holds the cheapest join tree over exactly the leaves
        in ``S``, found by splitting ``S`` into every connected pair of
        disjoint subsets — single-leaf extensions (left-deep) fall out
        as the ``|S2| = 1`` splits; only connected pairs join (DPccp,
        Moerkotte & Neumann, VLDB 2006).  The full set's splits are
        returned with their notes (the EXPLAIN candidate list).  One loop
        serves both the plan-time search (every leaf a fresh scan) and
        mid-flight re-planning (materialized intermediates mixed in);
        connectivity is judged on each subtree's base tables.
        """
        n = len(leaves)
        best: dict[frozenset, PlanNode] = {
            frozenset((i,)): leaves[i] for i in range(n)
        }
        level: list[tuple[PlanNode, StrategyEstimate]] = []
        for size in range(2, n + 1):
            final_level = size == n
            for subset in itertools.combinations(range(n), size):
                subset_key = frozenset(subset)
                anchor, rest = subset[0], subset[1:]
                options: list[tuple[PlanNode, StrategyEstimate]] = []
                for k in range(0, size - 1):
                    for extra in itertools.combinations(rest, k):
                        s1 = frozenset((anchor, *extra))
                        s2 = subset_key - s1
                        t1, t2 = best.get(s1), best.get(s2)
                        if t1 is None or t2 is None:
                            continue
                        if not self.graph.edges_across(t1.tables, t2.tables):
                            continue
                        tree = self.combine(t1, t2)
                        options.append((tree, self.price_tree(tree, final_level)))
                if not options:
                    continue
                best[subset_key] = min(
                    options, key=lambda pair: _RANK(pair[1])
                )[0]
                if final_level:
                    level = options
        return level

    def replan_remaining(self, leaves: list[PlanNode]) -> PlanNode:
        """Re-plan the remaining relations of a *running* query.

        The adaptive executor calls this after a pipeline breaker's
        observed cardinality blows past its estimate.  ``leaves`` mix
        not-yet-started scans with materialized intermediates
        (:class:`~repro.planner.joins.MaterializedNode`) whose
        cardinalities are now facts; both carry ``tables`` /
        ``est_rows``, which is all :meth:`combine` needs.  The search is
        the plan-time one (:meth:`_best_tree`): candidates price through
        :meth:`price_tree`, where materialized leaves contribute no
        predicted phases (their work is already billed), so the ranking
        reflects only the work still to do.
        """
        if len(leaves) < 2:
            raise PlanError(
                "replanning needs at least two remaining relations"
            )
        # Pending scans re-enter the search as fresh leaves: the live
        # tree's scan nodes carry plan-time Bloom annotations (reduced
        # est_rows, extra hash terms) that no longer apply once the tree
        # around them changes.  Their selectivity estimates are still
        # the plan-time ones (self.shapes is frozen at construction);
        # only materialized leaves carry measured cardinalities.
        leaves = [
            self.leaf(next(iter(leaf.tables)))
            if isinstance(leaf, ScanNode) else leaf
            for leaf in leaves
        ]
        return self._best_tree(leaves)[0]

    def _greedy_tree(self, leaves: list[PlanNode]) -> PlanNode:
        """Left-deep greedy: the smallest leaf first, then always the
        connected leaf that yields the fewest intermediate rows (ties go
        to the earlier leaf)."""
        remaining = list(leaves)
        tree = min(remaining, key=lambda leaf: leaf.est_rows)
        remaining.remove(tree)
        while remaining:
            frontier = [
                leaf for leaf in remaining
                if self.graph.edges_across(tree.tables, leaf.tables)
            ]
            if not frontier:
                raise PlanError(
                    "no connected join tree exists over the remaining"
                    " relations"
                )
            nxt = min(
                frontier,
                key=lambda leaf: self._pair_rows(
                    tree, leaf,
                    self.graph.edges_across(tree.tables, leaf.tables),
                ),
            )
            tree = self.combine(tree, nxt)
            remaining.remove(nxt)
        return tree


def enumerate_left_deep_orders(graph: JoinGraph) -> list[list[str]]:
    """Every connected left-deep order (experiment sweeps; small N only)."""
    names = graph.table_names()
    orders: list[list[str]] = []
    for perm in itertools.permutations(names):
        ok = all(
            graph.edges_between(perm[i], set(perm[:i]))
            for i in range(1, len(perm))
        )
        if ok:
            orders.append(list(perm))
    return orders


def plan_join_order(
    ctx: CloudContext,
    catalog: Catalog,
    query: ast.Query,
    graph: JoinGraph | None = None,
) -> JoinOrderDecision:
    """Build the join graph (unless given) and run the tree search
    (:meth:`JoinOrderSearch.search`: least predicted dollars)."""
    if graph is None:
        graph = build_join_graph(bind(query, catalog))
    return JoinOrderSearch(ctx, graph).search()
