"""Join trees: the join nodes, the adaptive re-planning wrapper, and the
one walker per question a join tree is asked.

Join trees may be **bushy** (both sides of a join may themselves be
joins), carry Bloom predicates on **inner** (non-outermost) probe scans,
and fall back to **cross products** for small disconnected FROM lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.bloom.filter import BloomBuildOutcome, BloomPushdown, membership_clauses
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.operators.hashjoin import hash_join_batches, index_of, key_names
from repro.planner.nodes import PlanNode, ScanNode, output_rows, q_error
from repro.sqlparser import ast

if TYPE_CHECKING:
    from repro.planner.physical import ExecState


class JoinNode(PlanNode):
    """A binary join: ``build`` materializes; ``probe`` streams through
    the rest of the pipeline when ``stream_probe`` marks the plan's spine
    join (the outermost one), else it is drained too."""

    def __init__(
        self, build: PlanNode, probe: PlanNode, stream_probe: bool = False
    ):
        self.build = build
        self.probe = probe
        self.stream_probe = stream_probe
        self.tables: frozenset = getattr(build, "tables", frozenset()) | getattr(
            probe, "tables", frozenset()
        )

    def children(self):
        return (self.build, self.probe)


class HashJoinNode(JoinNode):
    """Equi hash join: build side materializes, probe side streams.

    The key is every equality between the two sides: ``build_key`` and
    ``probe_key`` name one column each, or equally long tuples of them
    (stored as :attr:`build_keys` / :attr:`probe_keys`).

    Inner joins that are not the spine materialize both children, pick
    the hash build side from the *actual* row counts, as the chained
    executor always did, and probe with the other side as one batch.
    ``bloom`` ships the build keys into the probe scan's WHERE clause
    when the probe child is a pushdown scan annotated with
    ``bloom_attr`` — including inner (non-outermost) probes, which the
    left-deep chain executor could never do.
    """

    def __init__(
        self,
        build: PlanNode,
        probe: PlanNode,
        build_key: str | tuple[str, ...],
        probe_key: str | tuple[str, ...],
        bloom: BloomPushdown | None = None,
        stream_probe: bool = False,
        join_type: str = "inner",
        match_cond: ast.Expr | None = None,
        provenance: str | None = None,
    ):
        super().__init__(build, probe, stream_probe)
        self.build_keys = key_names(build_key)
        self.probe_keys = key_names(probe_key)
        self.bloom = bloom
        #: What a Bloom join shipped on its first key pair (``None``
        #: until it runs): the clauses and outcome of
        #: :func:`membership_clauses`, and how many non-NULL build keys
        #: went in.
        self.bloom_clauses: list[ast.Expr] | None = None
        self.bloom_outcome: BloomBuildOutcome | None = None
        self.bloom_keys = 0
        #: One of :data:`~repro.engine.operators.hashjoin.JOIN_TYPES`.
        self.join_type = join_type
        #: Residual ON/correlation condition over the build columns then
        #: the probe columns, evaluated over the candidate pairs before
        #: a pair counts as a match.
        self.match_cond = match_cond
        #: Where this join came from, for EXPLAIN (e.g. "decorrelated
        #: EXISTS", "LEFT OUTER JOIN").
        self.provenance = provenance

    def describe(self) -> str:
        tag = " streamed" if self.stream_probe else ""
        kind = "" if self.join_type == "inner" else f"{self.join_type} "
        cond = f" on ({self.match_cond.to_sql()})" if self.match_cond else ""
        src = f" ({self.provenance})" if self.provenance else ""
        keys = " AND ".join(
            f"{b} = {p}" for b, p in zip(self.build_keys, self.probe_keys)
        )
        return f"{kind}hash-join [{keys}]{cond}{tag}{src}"

    def _push_membership(
        self, build_names, build: list[Batch], state: ExecState
    ) -> None:
        """Hand the probe scan the clauses shipping the build keys (one
        statement each; none = the ladder ended unfiltered), when this
        join pushes any."""
        if self.join_type not in ("inner", "semi", "right_semi", "right_anti"):
            # Left/anti joins must see every probe row: a Bloom filter on
            # the probe scan would drop exactly the rows they preserve.
            return
        probe = self.probe
        if not (self.bloom and isinstance(probe, ScanNode)
                and probe.pushdown and probe.bloom_attr):
            return
        idx = index_of(build_names, self.build_keys[0])
        keys = [
            k for batch in build for k in batch.column(idx) if k is not None
        ]
        if not keys and not self.bloom.when_empty:
            return
        if self.bloom.insert_cpu:
            # The build scan's phase was appended when it drained.
            state.phases[-1].server_cpu_seconds += (
                len(keys) * self.bloom.insert_cpu
            )
        self.bloom_keys = len(keys)
        probe.bind(state, probe.predicate)
        self.bloom_clauses, self.bloom_outcome = membership_clauses(
            keys, probe.bloom_attr, probe.statement(), self.bloom
        )
        probe.pushed = self.bloom_clauses

    def run(self, state: ExecState):
        build_names, build = state.drain(self.build)
        self._push_membership(build_names, build, state)
        build_key, probe_key = self.build_keys, self.probe_keys
        if self.stream_probe:
            probe_names, probe = state.run(self.probe)
        else:
            probe_names, probe = state.drain(self.probe)
            # Inner joins hash the actually-smaller side, as the chained
            # executor did; Bloom placement stays per the plan's
            # orientation.  Non-inner joins (and residual match
            # conditions) have asymmetric sides, so the planned
            # orientation is kept.
            if self.join_type == "inner" and self.match_cond is None and sum(
                map(len, build)
            ) > sum(map(len, probe)):
                build, probe = probe, build
                build_names, probe_names = probe_names, build_names
                build_key, probe_key = probe_key, build_key
        # Only the hashed side becomes one batch: the probe keeps its
        # batch boundaries, which the per-batch CPU tally follows.
        return hash_join_batches(
            Batch.concat(build, len(build_names)), build_names, probe,
            probe_names, build_key, probe_key, state.tally,
            join_type=self.join_type, match_cond=state.bind(self.match_cond),
        )


class CrossProductNode(JoinNode):
    """Cartesian product for small disconnected FROM lists.

    The build side materializes; every probe-side batch fans out against
    it.  CPU is charged like a degenerate hash join: one build touch per
    build row, one probe touch per emitted row.
    """

    def describe(self) -> str:
        tag = " streamed" if self.stream_probe else ""
        return f"cross-product{tag}"

    @property
    def est_cpu(self) -> float:
        return (
            output_rows(self.build) * SERVER_CPU_PER_ROW["hash_build"]
            + output_rows(self) * SERVER_CPU_PER_ROW["hash_probe"]
        )

    def run(self, state: ExecState):
        build_names, batches = state.drain(self.build)
        build = Batch.concat(batches, len(build_names))
        state.tally.add_seconds(len(build) * SERVER_CPU_PER_ROW["hash_build"])
        if self.stream_probe:
            probe_names, probe_stream = state.run(self.probe)
        else:
            probe_names, probe_stream = state.drain(self.probe)
        out_names = [*build_names, *probe_names]
        if len(set(out_names)) != len(out_names):
            raise PlanError(
                f"cross product would produce duplicate column names:"
                f" {out_names}"
            )

        def product() -> Iterator[Batch]:
            per_row = SERVER_CPU_PER_ROW["hash_probe"]
            fan_out = range(len(build))
            for batch in probe_stream:
                # Probe-major order: every build row against each probe row.
                n = len(batch) * len(build)
                state.tally.add_seconds(n * per_row)
                yield Batch(
                    [col * len(batch) for col in build.columns]
                    + [[v for v in col for _ in fan_out] for col in batch.columns],
                    n,
                )

        return out_names, product()


class MaterializedNode(PlanNode):
    """A subtree that already executed: its result is one batch in memory.

    The adaptive executor replaces each pipeline breaker it finishes
    with one of these, so the *remaining* tree can be re-planned around
    a cardinality that is now a fact rather than an estimate.  Running
    one is free — no requests, no phases, no CPU — because everything
    was metered when the wrapped ``source`` subtree actually ran.
    """

    def __init__(self, batch: Batch, names: Sequence[str], source: PlanNode):
        self.batch = batch
        self.names = list(names)
        #: The executed subtree this result came from (reporting +
        #: feedback harvesting descend into it; execution does not).
        self.source = source
        self.tables: frozenset = source.tables
        self.est_rows = float(len(batch))

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def describe(self) -> str:
        label = "+".join(sorted(self.tables))
        return f"materialized[{label}] rows={len(self.batch)}"

    def run(self, state: ExecState):
        return list(self.names), iter([self.batch])


def _next_adaptive_step(root: HashJoinNode):
    """The next materialization the static recursive executor would run.

    Mirrors :meth:`HashJoinNode.run` order exactly — build subtree fully
    first, then the probe subtree — so an adaptive execution in which no
    re-plan fires issues the same requests, in the same order, as the
    static plan.  Returns ``(action, join, parent)`` where ``action`` is
    ``"build_scan"`` (materialize ``join.build``, a leaf scan),
    ``"join"`` (both children ready; run the whole inner join) or
    ``"final"`` (only the streaming spine remains).
    """
    node, parent = root, None
    while True:
        build = node.build
        if isinstance(build, HashJoinNode):
            node, parent = build, node
            continue
        if not isinstance(build, MaterializedNode):
            return ("build_scan", node, parent)
        probe = node.probe
        if isinstance(probe, HashJoinNode):
            node, parent = probe, node
            continue
        if parent is None:
            return ("final", node, None)
        return ("join", node, parent)


class AdaptiveJoinNode(PlanNode):
    """Mid-flight re-optimizing wrapper around a multiway hash-join tree.

    Executes the planned tree on the same materialization schedule the
    recursive executor follows (deepest build first), checking each
    completed pipeline breaker's observed cardinality against its
    estimate.  While every Q-error stays at or under ``threshold`` the
    execution is byte-identical — rows, bytes, requests, runtime, cost —
    to the static plan.  When a build comes out badly misestimated, the
    observed cardinality is fed into the join-order search and the bushy
    DP re-runs, ranking by predicted dollars like the plan-time search,
    over the *remaining* relations (the fresh materialization
    plus every not-yet-started scan); the winning tree is spliced in and
    execution continues.  Already-issued requests and billed bytes are
    never revisited: re-planning only reorders work not yet started.
    """

    def __init__(
        self,
        child: PlanNode,
        search,
        threshold: float,
    ):
        self.child = child
        #: The session's :class:`~repro.optimizer.joinorder.JoinOrderSearch`,
        #: re-used for mid-flight DP runs (duck-typed to avoid a planner
        #: import cycle).
        self.search = search
        self.threshold = float(threshold)
        self.events: list[dict] = []
        self.replans = 0
        self.est_rows = child.est_rows
        self.tables: frozenset = getattr(child, "tables", frozenset())

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"adaptive [threshold={self.threshold:g} replans={self.replans}]"

    def run(self, state: ExecState):
        tree = self.child
        if not isinstance(tree, HashJoinNode):
            return state.run(tree)
        while True:
            action, join, parent = _next_adaptive_step(tree)
            if action == "final":
                break
            node = join.build if action == "build_scan" else join
            names, batches = state.drain(node)
            done = MaterializedNode(Batch.concat(batches, len(names)), names, node)
            if action == "build_scan":
                join.build = done
            elif parent.build is join:
                parent.build = done
            else:
                parent.probe = done
            tree = self._check(tree, done, node.est_rows)
        self.child = tree
        return state.run(tree)

    def _check(
        self, tree: HashJoinNode, done: MaterializedNode,
        est_rows: float | None,
    ) -> HashJoinNode:
        """Record the estimate-vs-actual outcome; re-plan when it is bad."""
        q = q_error(est_rows, len(done.batch))
        event = {
            "tables": sorted(done.tables),
            "est_rows": round(est_rows, 1) if est_rows is not None else None,
            "actual_rows": len(done.batch),
            "q_error": round(q, 3),
            "replanned": False,
        }
        self.events.append(event)
        if q <= self.threshold:
            return tree
        leaves = join_leaves(tree)
        if len(leaves) < 3:
            event["note"] = "no alternative join order remains"
            return tree
        try:
            new_tree = self.search.replan_remaining(leaves)
        except PlanError as exc:
            event["note"] = f"replan failed: {exc}"
            return tree
        old_shape, new_shape = serialize_shape(tree), serialize_shape(new_tree)
        if new_shape == old_shape:
            event["note"] = "replan confirmed the current tree"
            return tree
        mark_spine(new_tree)
        new_tree.stream_probe = tree.stream_probe  # a hashed core stays drained
        self.replans += 1
        event["replanned"] = True
        event["old_tree"] = join_tree_label(tree)
        event["new_tree"] = join_tree_label(new_tree)
        # The labels drop build / probe orientation; the shapes keep it,
        # so an orientation-only re-plan still shows what changed.
        event["old_shape"] = old_shape
        event["new_shape"] = new_shape
        return new_tree


# ----------------------------------------------------------------------
# tree utilities: the one walker per question a join tree is asked
# ----------------------------------------------------------------------

def join_leaves(node: PlanNode) -> list[PlanNode]:
    """The relations a join tree joins, left to right: scans and
    materialized results (whose executed source is not descended)."""
    if not isinstance(node, JoinNode):
        return [node]
    return join_leaves(node.build) + join_leaves(node.probe)


def mark_spine(tree: PlanNode) -> None:
    """Stream the root join's probe side and relabel its probe scan; a
    lone scan (a one-table query) is the plan's one ``scan``."""
    if isinstance(tree, ScanNode):
        tree.phase_label = "scan"
    elif isinstance(tree, JoinNode):
        tree.stream_probe = True
        probe = tree.probe
        if isinstance(probe, ScanNode):
            probe.phase_label = f"probe-scan-{probe.table.name}"


def tree_signature(node: PlanNode, table_signatures: dict | None = None):
    """The feedback signature of an inner hash-join subtree, or ``None``.

    The semantic identity of a join result: which base tables it joins,
    the single-table predicate pushed into each scan, and the key pairs
    its hash joins apply — each table as ``(name, predicate_signature)``,
    each pair sorted, both lists sorted.  Bloom predicates are
    excluded on purpose — they only pre-drop rows the join drops anyway —
    so Bloom and non-Bloom plans over the same query share feedback.  A
    materialized result is walked through its executed source.  ``None``
    for shapes feedback does not model (cross products, pushed
    aggregates, semi / anti / outer joins or a residual match condition).
    ``table_signatures`` maps a table's catalog name to its
    precomputed pair (the join-order search's, built once per search).
    """
    from repro.optimizer.feedback import predicate_signature

    tables: list[tuple[str, str]] = []
    edges: list[tuple[str, ...]] = []

    def collect(n: PlanNode) -> bool:
        if isinstance(n, MaterializedNode):
            return collect(n.source)
        if isinstance(n, ScanNode):
            name = n.table.name
            tables.append(
                table_signatures[name] if table_signatures is not None
                else (name, predicate_signature(n.predicate))
            )
            return True
        if isinstance(n, HashJoinNode):
            if n.join_type != "inner" or n.match_cond is not None:
                return False
            edges.extend(
                tuple(sorted(pair)) for pair in zip(n.build_keys, n.probe_keys)
            )
            return collect(n.build) and collect(n.probe)
        return False

    if not collect(node):
        return None
    return tuple(sorted(tables)), tuple(sorted(edges))


def serialize_shape(node: PlanNode):
    """Join-subtree shape as nested lists: ``name`` or ``[kind, b, p]``.

    Orientation (build first) is preserved; estimates are not — they are
    recomputed when the shape is rebuilt against a catalog.
    """
    if isinstance(node, ScanNode):
        return node.table.name
    if isinstance(node, MaterializedNode):
        # Mid-flight shapes are descriptive only — a materialized result
        # cannot be rebuilt from a shape against a fresh catalog.
        return ["materialized", sorted(node.tables)]
    if isinstance(node, HashJoinNode):
        kind = "hash" if node.join_type == "inner" else f"hash-{node.join_type}"
        return [kind, serialize_shape(node.build), serialize_shape(node.probe)]
    if isinstance(node, CrossProductNode):
        return ["cross", serialize_shape(node.build), serialize_shape(node.probe)]
    raise PlanError(f"cannot serialize plan node {type(node).__name__}")


def _leaf_label(node: PlanNode) -> str:
    if isinstance(node, ScanNode):
        return node.table.name
    return "[" + "+".join(sorted(node.tables)) + "]"


def _leaf_order(node: PlanNode) -> tuple[list[str], bool]:
    """:func:`join_leaf_order` and :func:`is_left_deep`, from one walk."""
    if isinstance(node, (ScanNode, MaterializedNode)):
        return [_leaf_label(node)], True
    cross = isinstance(node, CrossProductNode)
    for deep, leaf in ((node.build, node.probe), (node.probe, node.build)):
        if isinstance(leaf, (ScanNode, MaterializedNode)):
            order, left_deep = _leaf_order(deep)
            return order + [_leaf_label(leaf)], left_deep and not cross
    return _leaf_order(node.build)[0] + _leaf_order(node.probe)[0], False


def join_leaf_order(node: PlanNode) -> list[str]:
    """Left-deep-equivalent table order of a join subtree, for display.

    A join with exactly one leaf child maps to 'join the deep side
    first, then that leaf' — the order whose forced left-deep execution
    matches this tree.  Genuinely bushy nodes concatenate build then
    probe (display only; no left-deep equivalent exists).
    """
    return _leaf_order(node)[0]


def is_left_deep(node: PlanNode) -> bool:
    """True when the tree has a left-deep-equivalent execution order."""
    return _leaf_order(node)[1]


def join_tree_label(node: PlanNode) -> str:
    """Compact label: `a >< b >< c` for left-deep, parenthesized for bushy."""
    order, left_deep = _leaf_order(node)
    if left_deep and not _has_cross(node):
        return " >< ".join(order)

    def render(n: PlanNode) -> str:
        if isinstance(n, (ScanNode, MaterializedNode)):
            return _leaf_label(n)
        op = " x " if isinstance(n, CrossProductNode) else " >< "
        return f"({render(n.build)}{op}{render(n.probe)})"

    return render(node)


def _has_cross(node: PlanNode) -> bool:
    if isinstance(node, CrossProductNode):
        return True
    return any(_has_cross(c) for c in node.children())
