"""Request metering and per-query work accounting.

Every interaction with the simulated S3 front-end is recorded as a
:class:`RequestRecord`.  Strategies group records into :class:`Phase`
objects describing *how* the work was structured (which requests ran in
parallel, what the server did with the bytes); the performance model then
prices a phase in simulated seconds, and the cost model prices the
records in dollars.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter


class RequestKind(Enum):
    GET = "get"          # plain object / byte-range GET
    SELECT = "select"    # S3 Select request


@dataclass(frozen=True)
class RequestRecord:
    """One HTTP request against the storage service."""

    kind: RequestKind
    bucket: str
    key: str
    #: Bytes the storage side scanned to serve the request (S3 Select
    #: bills these; plain GETs scan nothing).
    bytes_scanned: int = 0
    #: Bytes returned to the requester by an S3 Select request.
    bytes_returned: int = 0
    #: Bytes returned by a plain GET (free in-region, still metered).
    bytes_transferred: int = 0
    #: Row x expression-term evaluations performed at the storage side
    #: (drives the S3-side compute term of the performance model).
    term_evals: int = 0
    #: Paper-equivalent request count this record represents.  Normally 1;
    #: calibrated contexts weight *row-proportional* requests (the
    #: indexing strategy's per-record ranged GETs) by 1/scale so request
    #: dispatch time and request dollar cost land at paper scale, while
    #: constant per-partition scan requests stay at weight 1.
    weight: float = 1.0


class MetricsCollector:
    """Accumulates request records; supports marked sub-ranges.

    Strategies call :meth:`mark` before a phase and :meth:`records_since`
    after it to attribute requests to phases without threading labels
    through every call.

    Recording is thread-safe: the engine issues requests serially, but a
    caller may share one session across its own threads, so appends may
    race.  Records then interleave in arrival order; every consumer
    aggregates per-phase sums or deals records onto one stream each.
    """

    def __init__(self):
        self._records: list[RequestRecord] = []
        self._lock = threading.Lock()

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    def mark(self) -> int:
        """Return a position token for :meth:`records_since`."""
        with self._lock:
            return len(self._records)

    def records_since(self, mark: int) -> list[RequestRecord]:
        with self._lock:
            return self._records[mark:]

    @property
    def records(self) -> list[RequestRecord]:
        with self._lock:
            return list(self._records)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self._records)

    @property
    def bytes_scanned(self) -> int:
        return sum(r.bytes_scanned for r in self._records)

    @property
    def bytes_returned(self) -> int:
        return sum(r.bytes_returned for r in self._records)

    @property
    def bytes_transferred(self) -> int:
        return sum(r.bytes_transferred for r in self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()


@dataclass
class StreamWork:
    """Work carried by one parallel stream within a phase.

    A "stream" is one logical connection: e.g. the S3 Select scan of one
    table partition, or the batch of byte-range GETs one worker issues.
    ``requests`` is weighted (see :class:`RequestRecord.weight`).
    """

    requests: float = 0.0
    select_scan_bytes: int = 0
    select_returned_bytes: int = 0
    get_bytes: int = 0
    term_evals: int = 0

    @classmethod
    def from_record(cls, record: RequestRecord) -> "StreamWork":
        return cls(
            requests=record.weight,
            select_scan_bytes=record.bytes_scanned,
            select_returned_bytes=record.bytes_returned,
            get_bytes=record.bytes_transferred,
            term_evals=record.term_evals,
        )

    def add_record(self, record: RequestRecord) -> None:
        self.requests += record.weight
        self.select_scan_bytes += record.bytes_scanned
        self.select_returned_bytes += record.bytes_returned
        self.get_bytes += record.bytes_transferred
        self.term_evals += record.term_evals


@dataclass
class Phase:
    """One sequential step of a strategy: parallel streams + local CPU.

    Phases execute one after another; streams inside a phase execute
    concurrently.  ``server_cpu_seconds`` is compute the query node spends
    beyond ingestion (hash-table builds, heaps, ...), estimated from row
    counts by the strategies.  ``server_records`` / ``server_fields``
    count the rows and fields the query node must materialize from the
    phase's responses — the performance model charges ingestion per
    record and per field, which is what separates "load 4 of 20 columns"
    from "load everything" (paper Fig 5) while keeping wide-row GET loads
    and S3 Select responses on one mechanism.

    ``streams`` becomes a tuple at construction and must not change
    afterwards: the totals ``requests``, ``select_scan_bytes``,
    ``select_returned_bytes`` and ``get_bytes`` are summed over it once,
    right then, in stream order (bit-identical to summing on every read).
    One lane object may fill several slots: a predicted phase repeats one
    :class:`StreamWork` ``n`` times.
    """

    name: str
    streams: tuple[StreamWork, ...] = ()
    server_cpu_seconds: float = 0.0
    server_records: float = 0.0
    server_fields: float = 0.0

    def __post_init__(self):
        streams = self.streams = tuple(self.streams)
        #: Weighted (paper-equivalent) request count of the phase.
        self.requests: float = sum(map(_REQUESTS, streams))
        self.select_scan_bytes: int = sum(map(_SCAN_BYTES, streams))
        self.select_returned_bytes: int = sum(map(_RETURNED_BYTES, streams))
        self.get_bytes: int = sum(map(_GET_BYTES, streams))

    @classmethod
    def from_records(
        cls,
        name: str,
        records: list[RequestRecord],
        streams: int | None = None,
        server_cpu_seconds: float = 0.0,
        server_records: float = 0.0,
        server_fields: float = 0.0,
    ) -> "Phase":
        """Build a phase by dealing records round-robin onto N streams.

        ``streams=None`` gives every record its own stream (fully
        parallel); strategies pass an explicit count when parallelism is
        bounded (e.g. one stream per table partition).
        """
        if streams is None or streams >= len(records):
            work = [StreamWork.from_record(r) for r in records]
        else:
            work = [StreamWork() for _ in range(max(streams, 1))]
            for i, record in enumerate(records):
                work[i % len(work)].add_record(record)
        return cls(
            name=name,
            streams=work,
            server_cpu_seconds=server_cpu_seconds,
            server_records=server_records,
            server_fields=server_fields,
        )


_REQUESTS = attrgetter("requests")
_SCAN_BYTES = attrgetter("select_scan_bytes")
_RETURNED_BYTES = attrgetter("select_returned_bytes")
_GET_BYTES = attrgetter("get_bytes")
