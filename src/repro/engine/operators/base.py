"""Batch operator primitives, one set for both sides of the wire.

PushdownDB executes whatever S3 Select cannot on the query node, and the
simulated S3 Select service evaluates what is pushed with the same
operators (WHERE kernel, projection, LIMIT, group-by).  Every operator
is a ``*_batches`` function over a stream of columnar
:class:`~repro.engine.batch.Batch` objects — the only thing that flows
between operators — evaluating expressions with the vector kernels of
:mod:`repro.expr.vector` and charging modeled per-row CPU into a
:class:`CpuTally` as the batches flow.  Streaming operators (filter,
project, hash-join probe, limit) yield batches; pipeline breakers (sort,
group-by, top-K) drain their input and return an :class:`OpResult`.

Estimated CPU time is folded into the owning phase's
``server_cpu_seconds`` so the performance model can charge local compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.batch import Batch


@dataclass
class OpResult:
    """Rows out of a local operator plus its estimated CPU cost."""

    rows: list[tuple]
    column_names: list[str]
    cpu_seconds: float = 0.0


@dataclass
class CpuTally:
    """Accumulates local CPU across several operators in one phase."""

    seconds: float = 0.0

    def add(self, result: OpResult) -> OpResult:
        self.seconds += result.cpu_seconds
        return result

    def add_seconds(self, seconds: float) -> None:
        self.seconds += seconds


def materialize(batches: Iterable[Batch]) -> list[tuple]:
    """Drain a batch stream into one row list (the pipeline's sink)."""
    out: list[tuple] = []
    for batch in batches:
        out.extend(batch)
    return out


class BatchCounter:
    """Counts rows flowing through a batch stream without buffering it.

    The planner wraps scan sources in one of these so ingest accounting
    (records / fields materialized on the query node) reflects what the
    pipeline actually pulled; S3 Select meters ``rows_scanned`` the same
    way.
    """

    __slots__ = ("_batches", "rows")

    def __init__(self, batches: Iterable[Batch]):
        self._batches = batches
        self.rows = 0

    def __iter__(self) -> Iterator[Batch]:
        for batch in self._batches:
            self.rows += len(batch)
            yield batch
