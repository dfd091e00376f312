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

The hash key is every equality between the two sides, one column or
several: a multi-column join emits only the pairs that meet on all of
them.  A composite key is a tuple per row, NULL when any part is (SQL
``=`` over a NULL is never true).  ``match_cond``, the residual
ON/correlation condition (what is not an equality) over the build
columns then the probe columns, is one vector mask over a probe batch's
candidate pairs.  Both sides are :class:`~repro.engine.batch.Batch`
objects: the hash table maps a build key to its row positions, and the
output is gathered column by column — no joined row tuple is built.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.expr.vector import VectorFunc, compile_predicate_vector
from repro.sqlparser import ast

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
    """The build batch, hashed: each non-NULL key -> its row positions.

    A left join's build batch carries one all-NULL row past its rows: a
    probe row without a match gathers that one.
    """

    __slots__ = ("batch", "table", "has_null")

    def __init__(self, build: Batch, build_idx: tuple[int, ...], pad: bool):
        table: dict[object, list[int]] = {}
        setdefault = table.setdefault
        for i, key in enumerate(_key_column(build, build_idx)):
            setdefault(key, []).append(i)
        # NULL never matches an equi-join.
        self.has_null = table.pop(None, None) is not None
        self.table = table
        self.batch = (
            Batch([[*col, None] for col in build.columns], len(build) + 1)
            if pad else build
        )


def key_names(keys: str | Sequence[str]) -> tuple[str, ...]:
    """A join key as its column names: one name, or several."""
    return (keys,) if isinstance(keys, str) else tuple(keys)


def _key_column(batch: Batch, idx: tuple[int, ...]) -> list:
    """Each row's hash key: the one key column itself, or a tuple over
    several, ``None`` where any part is NULL."""
    if len(idx) == 1:
        return batch.column(idx[0])
    return [None if None in key else key for key in zip(*map(batch.column, idx))]


def _check_names(
    build_names: Sequence[str], probe_names: Sequence[str], join_type: str
) -> list[str]:
    combined = [*build_names, *probe_names]
    if len(set(n.lower() for n in combined)) != len(combined):
        raise PlanError(f"join would produce duplicate column names: {combined}")
    if join_type not in JOIN_TYPES:
        raise PlanError(f"unknown join type {join_type!r}")
    return join_output_names(build_names, probe_names, join_type)


def _pairs(found: Iterable, pad: int | None = None) -> tuple[list[int], list[int]]:
    """Every (build position, probe position) pair of ``found`` (per probe
    row, its build positions), probe-major; a probe row without one pairs
    with ``pad`` when that is set."""
    picked: list[int] = []
    positions: list[int] = []
    for i, hits in enumerate(found):
        if hits:
            picked += hits
            positions += [i] * len(hits)
        elif pad is not None:
            picked.append(pad)
            positions.append(i)
    return picked, positions


def _gather(build: Batch, picked: list[int], batch: Batch, positions: list[int]) -> Batch:
    """The joined batch: build columns at ``picked``, probe columns at
    ``positions``."""
    return Batch(build.take(picked).columns + batch.take(positions).columns, len(positions))


def _probe(
    build: _BuildTable,
    batch: Batch,
    probe_idx: tuple[int, ...],
    join_type: str,
    match: VectorFunc | None,
) -> Batch:
    """Join one probe batch against the built table.

    Output rows follow probe order, and build order within one probe
    row's matches.
    """
    if join_type == "anti_null" and build.has_null:
        return batch[:0]  # NOT IN over a set containing NULL is never true
    keys = _key_column(batch, probe_idx)
    found = map(build.table.get, keys)  # a NULL key finds nothing
    if match is not None:
        # Keep, per probe row, the hits whose pair passes the residual.
        picked, positions = _pairs(found)
        found = [[] for _ in keys]
        if picked:
            mask = match(_gather(build.batch, picked, batch, positions))
            for b, p in compress(zip(picked, positions), mask):
                found[p].append(b)
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
    pad = len(build.batch) - 1 if join_type == "left" else None
    picked, positions = _pairs(found, pad)
    return _gather(build.batch, picked, batch, positions)


def hash_join_batches(
    build: Batch | list[tuple],
    build_names: Sequence[str],
    probe_batches: Iterable[Batch],
    probe_names: Sequence[str],
    build_key: str | Sequence[str],
    probe_key: str | Sequence[str],
    tally: CpuTally | None = None,
    join_type: str = "inner",
    match_cond: ast.Expr | None = None,
) -> tuple[list[str], Iterator[Batch]]:
    """Equi-join on ``build_key`` = ``probe_key`` (one column name each,
    or equally long sequences of them): build eagerly, probe batch by
    batch.

    The build side is a pipeline breaker (hashed up front, charged to
    ``tally`` immediately); a list of row tuples is transposed into a
    batch first.  The probe side streams, one output batch per probe
    batch, so joined batches reach downstream operators while later
    probe batches are still being produced.  ``match_cond`` reads the
    build columns then the probe columns.  Returns ``(output_names,
    joined_batches)``.

    Raises:
        PlanError: if output column names would collide (TPC-H names are
            globally unique, so collisions indicate a planning bug), or
            the two keys name different numbers of columns.
    """
    out_names = _check_names(build_names, probe_names, join_type)
    build_idx = tuple(index_of(build_names, k) for k in key_names(build_key))
    probe_idx = tuple(index_of(probe_names, k) for k in key_names(probe_key))
    if len(build_idx) != len(probe_idx):
        raise PlanError(f"join keys {build_key!r} and {probe_key!r} differ in length")
    if not isinstance(build, Batch):
        build = Batch.from_rows(build, len(build_names))
    match = None if match_cond is None else compile_predicate_vector(
        match_cond, {name: i for i, name in enumerate([*build_names, *probe_names])}
    )

    table = _BuildTable(build, build_idx, pad=join_type == "left")
    if tally is not None:
        tally.add_seconds(len(build) * SERVER_CPU_PER_ROW["hash_build"])

    def probe() -> Iterator[Batch]:
        per_row = SERVER_CPU_PER_ROW["hash_probe"]
        for batch in probe_batches:
            if tally is not None:
                tally.add_seconds(len(batch) * per_row)
            yield _probe(table, batch, probe_idx, join_type, match)

    return out_names, probe()


def index_of(names: Sequence[str], wanted: str) -> int:
    """Position of join key ``wanted`` among ``names``, case-insensitively."""
    lowered = [n.lower() for n in names]
    try:
        return lowered.index(wanted.lower())
    except ValueError:
        raise PlanError(f"join key {wanted!r} not in columns {list(names)}") from None
