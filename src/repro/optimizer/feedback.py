"""Session-scoped execution feedback: the optimizer learns what it ran.

PR 4 made every physical-plan execution record per-node
estimate-vs-actual cardinalities (``execution.report.nodes``) — and then
threw them away.  This module closes the loop:

* a :class:`FeedbackStore` lives on the
  :class:`~repro.cloud.context.CloudContext` (one per PushdownDB
  session) and maps **normalized signatures** to **measured
  cardinalities**:

  - ``(table, predicate)`` → observed selectivity, harvested from every
    executed scan (pushdown or GET + local filter) and from every
    metered :func:`~repro.optimizer.selectivity.probe_selectivity`
    run — probes are paid for once and reused for the rest of the
    session;
  - join signatures (table set + per-table predicates + applied hash
    edges) → observed join output rows, harvested from every executed
    hash join;

* :func:`estimate_selectivity_with_feedback` is the estimator every
  cost-model call site goes through: a recorded measurement wins over
  the System-R heuristic, per conjunct, so *similar* queries (sharing
  some predicates) improve too.  With an empty store it reduces exactly
  to :func:`~repro.optimizer.selectivity.estimate_selectivity`, so a
  cold session plans byte-identically to the pre-feedback planner;

* :func:`harvest_plan` reads the cardinalities the executor observed on
  every node of an executed plan tree (``actual_rows``, counted as each
  node's stream is pulled) through the one plan walk,
  :func:`~repro.planner.physical.walk_plan`, which also says whether a
  node ran to completion: subtrees cut short by a streaming ``LIMIT``
  are skipped — their observed counts are lower bounds, not
  measurements.

The store is thread-safe (a caller may share one session across its own
threads) and strictly session-scoped: two ``PushdownDB`` instances never
share feedback, and :meth:`FeedbackStore.reset` returns a session to the
cold-start System-R behavior.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.optimizer.selectivity import estimate_selectivity
from repro.optimizer.stats import TableStats
from repro.sqlparser import ast


def predicate_signature(predicate: ast.Expr | None) -> str:
    """Normalized signature of a predicate: sorted top-level conjuncts,
    each parenthesized so that no two predicates share one.

    ``a < 5 AND b = 2`` and ``b = 2 AND a < 5`` share one signature, so
    feedback recorded under either spelling serves both.
    """
    if predicate is None:
        return ""
    return " AND ".join(sorted(f"({c.to_sql()})" for c in ast.split_conjuncts(predicate)))


@dataclass
class FeedbackStore:
    """Measured selectivities and join cardinalities for one session."""

    _selectivities: dict = field(default_factory=dict)
    _joins: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Counters for reports/tests: how often lookups hit or missed.
    hits: int = 0
    misses: int = 0

    # -- selectivity ----------------------------------------------------
    def record_selectivity(
        self,
        table: str,
        predicate: ast.Expr,
        selectivity: float,
    ) -> None:
        """Record the measured fraction of ``table`` rows passing ``predicate``.

        The newest measurement wins (data and literals are fixed within a
        session, so repeated observations agree up to probe sampling)."""
        key = (table, predicate_signature(predicate))
        with self._lock:
            self._selectivities[key] = min(max(float(selectivity), 0.0), 1.0)

    def lookup_selectivity(self, table: str, predicate: ast.Expr) -> float | None:
        key = (table, predicate_signature(predicate))
        with self._lock:
            value = self._selectivities.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    # -- joins ----------------------------------------------------------
    def record_join(self, signature: tuple, actual_rows: float) -> None:
        with self._lock:
            self._joins[signature] = float(actual_rows)

    def lookup_join(self, signature: tuple) -> float | None:
        with self._lock:
            value = self._joins.get(signature)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def has_join_feedback(self) -> bool:
        """Cheap emptiness check: the join-order DP skips signature
        construction and lock traffic entirely on cold sessions."""
        return bool(self._joins)

    # -- session management ---------------------------------------------
    def forget_table(self, table: str) -> None:
        """Drop every measurement involving ``table``.

        Called when a table is (re)loaded: measurements taken against
        the old rows are no longer facts, and keeping them would let a
        stale "measured" selectivity suppress fresh probes and mislead
        every estimate for the rest of the session.
        """
        with self._lock:
            self._selectivities = {
                sig: value
                for sig, value in self._selectivities.items()
                if sig[0] != table
            }
            self._joins = {
                sig: value
                for sig, value in self._joins.items()
                if all(name != table for name, _ in sig[0])
            }

    def reset(self) -> None:
        """Forget everything: back to cold-start System-R estimates."""
        with self._lock:
            self._selectivities.clear()
            self._joins.clear()
            self.hits = 0
            self.misses = 0

    def summary(self) -> dict:
        with self._lock:
            return {
                "selectivities": len(self._selectivities),
                "joins": len(self._joins),
                "hits": self.hits,
                "misses": self.misses,
            }


def estimate_selectivity_with_feedback(
    store: FeedbackStore,
    table: str,
    predicate: ast.Expr | None,
    stats: TableStats,
) -> float:
    """Feedback-first selectivity: measurements override System-R.

    Resolution order per the whole predicate, then per top-level
    conjunct: an exact signature hit returns the measured value; a
    conjunction combines per-conjunct answers (measured where known,
    System-R where not) under the independence assumption.  With no
    feedback recorded this computes *exactly* what
    :func:`~repro.optimizer.selectivity.estimate_selectivity` computes,
    so cold sessions keep byte-identical plans.
    """
    if predicate is None:
        return 1.0
    exact = store.lookup_selectivity(table, predicate)
    if exact is not None:
        return exact
    conjuncts = ast.split_conjuncts(predicate)
    if len(conjuncts) <= 1:
        return estimate_selectivity(predicate, stats)
    product = 1.0
    for conjunct in conjuncts:
        measured = store.lookup_selectivity(table, conjunct)
        product *= (
            measured if measured is not None
            else estimate_selectivity(conjunct, stats)
        )
    return min(max(product, 0.0), 1.0)


def estimated_rows(ctx, table, predicate: ast.Expr | None) -> float:
    """Rows of ``table`` (a ``TableInfo``) expected to pass ``predicate``:
    the session's feedback first, the table's statistics otherwise."""
    return table.num_rows * estimate_selectivity_with_feedback(
        ctx.feedback, table.name, predicate, table.stats
    )


# ----------------------------------------------------------------------
# harvesting executed plans
# ----------------------------------------------------------------------

def harvest_plan(store: FeedbackStore, root) -> int:
    """Record everything an executed plan tree measured; returns count.

    Every node that ran to completion (:func:`~repro.planner.physical.walk_plan`)
    and observed its rows counts: a scan with a predicate and no Bloom
    predicate attached (a Bloom-reduced count measures predicate x
    Bloom, not the predicate alone) yields a selectivity, a hash join
    whose shape feedback models a cardinality.  A predicate with a
    ``$n`` is skipped: its value is bound at run time, so no plan could
    ever look the measurement up by it.  Called by the physical
    executor after every execution, so the session's very next query
    already plans with corrected estimates — no extra metered requests
    are spent learning what was just paid for.
    """
    from repro.planner.joins import HashJoinNode, tree_signature
    from repro.planner.nodes import ScanNode
    from repro.planner.physical import walk_plan

    recorded = 0
    for node, complete in walk_plan(root):
        if not complete or node.actual_rows is None:
            continue
        if isinstance(node, ScanNode):
            if (
                node.predicate is not None
                and node.bloom_attr is None
                and node.table.num_rows > 0
                and not ast.has_params(node.predicate)
            ):
                store.record_selectivity(
                    node.table.name, node.predicate,
                    node.actual_rows / node.table.num_rows,
                )
                recorded += 1
        elif isinstance(node, HashJoinNode):
            signature = tree_signature(node)
            if signature is not None and not any(
                isinstance(scan, ScanNode)
                and ast.has_params(scan.predicate)
                for scan, _ in walk_plan(node)
            ):
                store.record_join(signature, float(node.actual_rows))
                recorded += 1
    return recorded
