"""Local hash join (build + probe), the core of all three join strategies.

The paper's joins are two-phase hash joins (Section V): the build phase
hashes the smaller table, the probe phase streams the bigger one.  What
differs between baseline / filtered / Bloom join is only *which rows
reach the query node*; they all finish here.

Beyond the inner equi-join, the probe loop supports the join types the
TPC-H decorrelation pass produces:

* ``left`` — left-outer with the *probe* side preserved: probe rows with
  no match are emitted once, NULL-padded on the build columns;
* ``semi`` — emit each probe row at most once if any build row matches;
* ``anti`` — emit each probe row only if no build row matches (a NULL
  probe key never matches, so it is emitted);
* ``anti_null`` — NULL-aware anti join for ``NOT IN``: if the build side
  contains a NULL key nothing qualifies, and a NULL probe key is never
  emitted (three-valued ``NOT IN`` semantics).

``match_pred`` evaluates a residual ON/correlation condition per
candidate (build_row + probe_row) pair before a pair counts as a match.

The build side is operator *state* (row tuples in a hash table); the
probe side is a :class:`~repro.engine.batch.Batch` stream and so is the
output, assembled by gathering the matched build rows and the probe
positions they matched — no joined row tuple is ever concatenated.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally

JOIN_TYPES = ("inner", "left", "semi", "anti", "anti_null")


def join_output_names(
    build_names: Sequence[str], probe_names: Sequence[str], join_type: str = "inner"
) -> list[str]:
    """Output schema of a join: build columns then probe columns for
    inner/left joins, probe columns only for semi/anti variants."""
    if join_type in ("semi", "anti", "anti_null"):
        return list(probe_names)
    return [*build_names, *probe_names]


class _BuildTable:
    """Hash table over the build side plus NULL-key bookkeeping."""

    __slots__ = ("table", "has_null", "num_rows")

    def __init__(self, build_rows: list[tuple], build_idx: int):
        table: dict[object, list[tuple]] = {}
        has_null = False
        for row in build_rows:
            key = row[build_idx]
            if key is None:
                has_null = True  # NULL never matches an equi-join
                continue
            table.setdefault(key, []).append(row)
        self.table = table
        self.has_null = has_null
        self.num_rows = len(build_rows)


def _check_names(
    build_names: Sequence[str], probe_names: Sequence[str], join_type: str
) -> list[str]:
    combined = [*build_names, *probe_names]
    if len(set(n.lower() for n in combined)) != len(combined):
        raise PlanError(f"join would produce duplicate column names: {combined}")
    if join_type not in JOIN_TYPES:
        raise PlanError(f"unknown join type {join_type!r}")
    return join_output_names(build_names, probe_names, join_type)


def _probe(
    build: _BuildTable,
    batch: Batch,
    probe_idx: int,
    join_type: str,
    match_pred: Callable[[tuple], object] | None,
    null_pad: tuple,
) -> Batch:
    """Join one probe batch against the built table.

    Output rows follow probe order, and build order within one probe
    row's matches.
    """
    if join_type == "anti_null" and build.has_null:
        return batch[:0]  # NOT IN over a set containing NULL is never true
    keys = batch.column(probe_idx)
    found = map(build.table.get, keys)  # a NULL key finds nothing
    if match_pred is not None:
        found = [
            hits and [b for b in hits if match_pred(b + row)]
            for hits, row in zip(found, batch.iter_rows())
        ]
    if join_type == "semi":
        return batch.take([i for i, hits in enumerate(found) if hits])
    if join_type == "anti":
        return batch.take([i for i, hits in enumerate(found) if not hits])
    if join_type == "anti_null":
        # NULL NOT IN (non-empty set) is unknown, not true
        return batch.take([
            i for i, (hits, key) in enumerate(zip(found, keys))
            if not hits and key is not None
        ])
    pad_misses = join_type == "left"
    picked: list[tuple] = []  # the build row of every output row
    positions: list[int] = []  # ... and the probe row it joined
    for i, hits in enumerate(found):
        if hits:
            picked += hits
            positions += [i] * len(hits)
        elif pad_misses:
            picked.append(null_pad)
            positions.append(i)
    build_columns = (
        [list(col) for col in zip(*picked)] if picked else [[] for _ in null_pad]
    )
    return Batch(build_columns + batch.take(positions).columns, len(positions))


def hash_join_batches(
    build_rows: list[tuple],
    build_names: Sequence[str],
    probe_batches: Iterable[Batch],
    probe_names: Sequence[str],
    build_key: str,
    probe_key: str,
    tally: CpuTally | None = None,
    join_type: str = "inner",
    match_pred: Callable[[tuple], object] | None = None,
) -> tuple[list[str], Iterator[Batch]]:
    """Equi-join: build eagerly, probe batch by batch.

    The build side is a pipeline breaker (hashed up front, charged to
    ``tally`` immediately); the probe side streams, one output batch per
    probe batch, so joined batches reach downstream operators while later
    probe batches are still being produced.  Returns ``(output_names,
    joined_batches)``.

    Raises:
        PlanError: if output column names would collide (TPC-H names are
            globally unique, so collisions indicate a planning bug).
    """
    out_names = _check_names(build_names, probe_names, join_type)
    build_idx = index_of(build_names, build_key)
    probe_idx = index_of(probe_names, probe_key)

    build = _BuildTable(build_rows, build_idx)
    if tally is not None:
        tally.add_seconds(build.num_rows * SERVER_CPU_PER_ROW["hash_build"])
    null_pad = (None,) * len(build_names)

    def probe() -> Iterator[Batch]:
        per_row = SERVER_CPU_PER_ROW["hash_probe"]
        for batch in probe_batches:
            if tally is not None:
                tally.add_seconds(len(batch) * per_row)
            yield _probe(build, batch, probe_idx, join_type, match_pred, null_pad)

    return out_names, probe()


def index_of(names: Sequence[str], wanted: str) -> int:
    """Position of join key ``wanted`` among ``names``, case-insensitively."""
    lowered = [n.lower() for n in names]
    try:
        return lowered.index(wanted.lower())
    except ValueError:
        raise PlanError(f"join key {wanted!r} not in columns {list(names)}") from None
