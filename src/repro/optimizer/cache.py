"""Session-scoped semantic result & subplan cache with subsumption.

Pushdown engines bill per request and per byte scanned, and real
workloads are dominated by near-duplicate queries — the same pushed
filter or partial aggregate re-issued with slightly different literals.
This module caches the *metered* part of a plan (the pushed S3 Select
scan streams and pushed-aggregate partials) under the same normalized
signatures the feedback layer uses, and answers later scans from memory
in three tiers:

1. **exact hit** — same table, same normalized predicate, projection a
   subset of the cached columns: replay the cached columnar batches
   with zero metered requests.
2. **predicate subsumption** — the new predicate is *provably implied*
   by a cached scan's predicate (``pruning.predicate_implies``, built
   on the zone-map three-valued possibility analysis): replay the
   cached batches through a local delta filter instead of re-issuing
   partition requests.
3. **partial-aggregate reuse** — a pushed additive aggregate whose
   WHERE matches a cached one recombines the cached per-partition
   partials (any subset/permutation of the cached aggregate items)
   without touching storage.

Entries are LRU-evicted under a ``cache_bytes`` budget and guarded by
one lock (the engine is serial, but a caller may share one session
across its own threads).  :func:`repro.engine.catalog.load_table` calls
:meth:`SemanticCache.invalidate_table` whenever a name is (re)loaded,
which drops the table's entries, so stale entries can never answer.

Correctness bar: a cold cache changes nothing (the executor consults it
only when enabled, and population tees streams without reordering), and
a warm answer is row-identical — cached batches preserve the partition
order and batch segmentation of the original scan, and the delta filter
is the same vectorized predicate the local tail would run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.batch import Batch
from repro.optimizer.feedback import predicate_signature
from repro.optimizer.pruning import predicate_implies
from repro.sqlparser import ast


@dataclass
class CacheStats:
    """Session counters, surfaced in ``execution.report.cache.session``."""

    hits: int = 0
    subsumed: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    def summary(self) -> dict:
        return {
            "hits": self.hits,
            "subsumed": self.subsumed,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class ScanReuse:
    """A cache answer for a pushed scan, ready to replay.

    ``batches`` are column views over the cached batches, ordered as the
    requested projection plus ``extra`` trailing helper columns the
    delta predicate needs (trimmed again after filtering).
    """

    status: str  # "hit" | "subsumed"
    batches: list[Batch]
    names: list[str]
    delta: ast.Expr | None
    extra: int
    rows: int


@dataclass
class _Entry:
    table: str
    nbytes: int
    rows: int
    # scan entries
    predicate: ast.Expr | None = None
    columns: tuple[str, ...] = ()
    batches: list[Batch] = field(default_factory=list)
    # aggregate entries
    items: tuple[str, ...] = ()
    partials: Batch | None = None


def _value_bytes(value) -> int:
    if value is None:
        return 8
    if isinstance(value, str):
        return 49 + len(value)
    return 28


def _column_bytes(column) -> int:
    """``sum(map(_value_bytes, column))``, one type dispatch per column."""
    kinds = set(map(type, column))
    if kinds == {str}:
        return 49 * len(column) + sum(map(len, column))
    if type(None) not in kinds and not any(issubclass(k, str) for k in kinds):
        return 28 * len(column)
    return sum(map(_value_bytes, column))


def _batch_bytes(batches: list[Batch]) -> int:
    return sum(64 + sum(64 + _column_bytes(c) for c in b.columns) for b in batches)


class SemanticCache:
    """Thread-safe, size-bounded LRU over pushed scan/aggregate results."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError(
                f"cache_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def invalidate_table(self, table: str) -> int:
        """Drop every entry derived from ``table``.

        Called from the catalog's load hook, so re-loading a name can
        never serve rows from the previous content.  Returns the number
        of entries evicted.
        """
        with self._lock:
            dead = [k for k, e in self._entries.items() if e.table == table]
            for k in dead:
                self._bytes -= self._entries.pop(k).nbytes
            if dead:
                self.stats.invalidations += len(dead)
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def _admit(self, key: tuple, entry: _Entry) -> bool:
        """Insert under the byte budget; evict LRU entries as needed."""
        if entry.nbytes > self.capacity_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while self._bytes > self.capacity_bytes and len(self._entries) > 1:
            victim_key = next(iter(self._entries))
            if victim_key == key:
                break
            self._bytes -= self._entries.pop(victim_key).nbytes
            self.stats.evictions += 1
        self.stats.stores += 1
        return True

    # -- pushed scans --------------------------------------------------

    def store_scan(
        self,
        table: str,
        predicate: ast.Expr | None,
        columns: list[str],
        batches: list[Batch],
    ) -> bool:
        """Retain a fully-drained pushed scan's batch stream."""
        cols = tuple(columns)
        key = ("scan", table, predicate_signature(predicate), cols)
        entry = _Entry(
            table=table,
            nbytes=_batch_bytes(batches),
            rows=sum(len(b) for b in batches),
            predicate=predicate,
            columns=cols,
            batches=list(batches),
        )
        with self._lock:
            return self._admit(key, entry)

    def _match_scan(
        self, table: str, predicate: ast.Expr | None, columns: list[str],
        pending: tuple = (),
    ) -> tuple[tuple, _Entry, str] | None:
        """Find the best reusable entry; caller holds the lock.  ``pending``
        scans ``(table, predicate, columns)`` match as empty entries."""
        entries = [*self._entries.items(), *((("scan",), _Entry(name, 0, 0, pred, tuple(cols)))
                                             for name, pred, cols in pending)]
        sig = predicate_signature(predicate)
        requested = set(columns)
        pred_cols = (
            ast.referenced_columns(predicate) if predicate is not None else set()
        )
        best: tuple[tuple, _Entry, str] | None = None
        for key, entry in entries:
            if key[0] != "scan" or entry.table != table:
                continue
            available = set(entry.columns)
            if not requested <= available:
                continue
            entry_sig = predicate_signature(entry.predicate)
            if entry_sig == sig:
                return key, entry, "hit"
            if not pred_cols <= available:
                continue
            if predicate_implies(predicate, entry.predicate):
                if best is None or entry.rows < best[1].rows:
                    best = (key, entry, "subsumed")
        return best

    def lookup_scan(
        self, table: str, predicate: ast.Expr | None, columns: list[str]
    ) -> ScanReuse | None:
        """Tiered lookup for a pushed scan; ``None`` on miss."""
        with self._lock:
            match = self._match_scan(table, predicate, columns)
            if match is None:
                self.stats.misses += 1
                return None
            key, entry, status = match
            self._entries.move_to_end(key)
            if status == "hit":
                self.stats.hits += 1
            else:
                self.stats.subsumed += 1
            index = {name: i for i, name in enumerate(entry.columns)}
            names = list(columns)
            extras: list[str] = []
            delta = None
            if status == "subsumed":
                delta = predicate
                seen = set(names)
                for name in sorted(ast.referenced_columns(predicate)):
                    if name not in seen:
                        extras.append(name)
            take = [index[name] for name in names + extras]
            batches = [
                Batch([b.columns[i] for i in take], len(b))
                for b in entry.batches
            ]
            return ScanReuse(
                status=status,
                batches=batches,
                names=names + extras,
                delta=delta,
                extra=len(extras),
                rows=entry.rows,
            )

    def peek_scan(
        self, table: str, predicate: ast.Expr | None, columns: list[str],
        pending: tuple = (),
    ) -> str | None:
        """Non-mutating match for the cost model: status or ``None``;
        ``pending`` scans are stored before this one runs."""
        with self._lock:
            match = self._match_scan(table, predicate, columns, pending)
            return None if match is None else match[2]

    # -- pushed aggregates ---------------------------------------------

    def store_aggregate(
        self,
        table: str,
        where: ast.Expr | None,
        items: list[str],
        partials: Batch,
    ) -> bool:
        """Retain a pushed aggregate's partials batch, a row per partition.

        ``items`` are the normalized SQL of each aggregate expression
        (alias-insensitive), aligned with the batch's columns.
        """
        item_key = tuple(items)
        key = ("agg", table, predicate_signature(where), item_key)
        entry = _Entry(
            table=table,
            nbytes=64 + sum(map(_column_bytes, partials.columns)),
            rows=len(partials),
            predicate=where,
            items=item_key,
            partials=partials,
        )
        with self._lock:
            return self._admit(key, entry)

    def _match_aggregate(
        self, table: str, where: ast.Expr | None, items: list[str]
    ) -> tuple[tuple, _Entry, list[int]] | None:
        sig = predicate_signature(where)
        for key, entry in self._entries.items():
            if key[0] != "agg" or entry.table != table:
                continue
            if predicate_signature(entry.predicate) != sig:
                continue
            index = {item: i for i, item in enumerate(entry.items)}
            if all(item in index for item in items):
                return key, entry, [index[item] for item in items]
        return None

    def lookup_aggregate(
        self, table: str, where: ast.Expr | None, items: list[str]
    ) -> Batch | None:
        """A pushed aggregate's cached partials projected to ``items`` (views
        of the cached columns; only an exact WHERE hits); ``None`` on miss."""
        with self._lock:
            match = self._match_aggregate(table, where, items)
            if match is None:
                self.stats.misses += 1
                return None
            key, entry, take = match
            self._entries.move_to_end(key)
            self.stats.hits += 1
            partials = entry.partials
            return Batch([partials.columns[i] for i in take], len(partials))

    def peek_aggregate(
        self, table: str, where: ast.Expr | None, items: list[str]
    ) -> str | None:
        with self._lock:
            match = self._match_aggregate(table, where, items)
            return None if match is None else "hit"


# ----------------------------------------------------------------------
# plan harvesting (beside optimizer.feedback.harvest_plan)
# ----------------------------------------------------------------------


def harvest_plan(cache: SemanticCache, root) -> int:
    """Populate ``cache`` from a fully-executed plan tree.

    Every pushed scan or aggregate that ran to completion
    (:func:`~repro.planner.physical.walk_plan`: nothing a LIMIT may have
    cut short) stores what it retained.  Returns the number of entries
    stored.
    """
    from repro.planner.nodes import PushedAggregateNode, ScanNode
    from repro.planner.physical import walk_plan

    return sum(
        node.flush_cache(cache)
        for node, complete in walk_plan(root)
        if complete
        and isinstance(node, (ScanNode, PushedAggregateNode))
    )
