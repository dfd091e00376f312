"""Metered front-end to the simulated S3 service.

This is the only path PushdownDB uses to touch storage at query time, so
every byte and request that matters for the paper's cost/performance
accounting flows through here.  The API shape intentionally mirrors the
boto3 calls the original PushdownDB used (``get_object`` with an optional
byte range, ``select_object_content``).
"""

from __future__ import annotations

from repro.cloud.metrics import MetricsCollector, RequestKind, RequestRecord
from repro.s3select.engine import (
    PreparedSelect,
    ScanRange,
    SelectResult,
    execute_select,
)
from repro.storage.object_store import ObjectStore


class S3Client:
    """Issues GET / SELECT requests against an :class:`ObjectStore`.

    Writes (``put_object``) are not metered: the paper excludes load-time
    cost from query cost, and S3 PUTs are billed separately anyway.
    """

    def __init__(self, store: ObjectStore, metrics: MetricsCollector | None = None):
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Paper-equivalent weight of one byte-range GET.  Calibrated
        #: contexts set this to 1/scale because ranged GETs are issued
        #: per matching *row* and row counts shrink with the dataset.
        self.range_request_weight: float = 1.0

    # ------------------------------------------------------------------
    # plain data plane
    # ------------------------------------------------------------------
    def get_object(self, bucket: str, key: str) -> bytes:
        """Fetch a whole object (one metered GET)."""
        data = self.store.get_bytes(bucket, key)
        self.metrics.record(
            RequestRecord(
                kind=RequestKind.GET,
                bucket=bucket,
                key=key,
                bytes_transferred=len(data),
            )
        )
        return data

    def get_object_range(self, bucket: str, key: str, first_byte: int, last_byte: int) -> bytes:
        """Fetch one inclusive byte range (one metered GET).

        The paper's Suggestion 1 notes S3 allows only a *single* range
        per GET — the indexing strategy's cost hinges on that, so this
        client deliberately offers no multi-range call.
        """
        data = self.store.get_range(bucket, key, first_byte, last_byte)
        self.metrics.record(
            RequestRecord(
                kind=RequestKind.GET,
                bucket=bucket,
                key=key,
                bytes_transferred=len(data),
                weight=self.range_request_weight,
            )
        )
        return data

    def get_object_ranges(
        self,
        bucket: str,
        key: str,
        ranges: list[tuple[int, int]],
        weight: float = 1.0,
    ) -> list[bytes]:
        """EXTENSION (paper Suggestion 1): one GET, many byte ranges.

        The real S3 supports a single range per GET; the paper argues
        multi-range GETs would rescue the indexing strategy at moderate
        selectivities.  This call is only used by the extension
        strategies in :mod:`repro.strategies.extensions` and is metered
        as a single request with the caller-supplied paper-equivalent
        ``weight``.
        """
        payloads = [
            self.store.get_range(bucket, key, first, last)
            for first, last in ranges
        ]
        self.metrics.record(
            RequestRecord(
                kind=RequestKind.GET,
                bucket=bucket,
                key=key,
                bytes_transferred=sum(len(p) for p in payloads),
                weight=weight,
            )
        )
        return payloads

    # ------------------------------------------------------------------
    # S3 Select
    # ------------------------------------------------------------------
    def select_object_content(
        self,
        bucket: str,
        key: str,
        sql: str | PreparedSelect,
        scan_range: ScanRange | None = None,
        compress_output: bool = False,
    ) -> SelectResult:
        """Run an S3 Select query against one object (metered SELECT).

        ``sql`` is the SQL text (:func:`execute_select`'s text entry) or —
        for a scan sending one statement to many objects — that
        statement, prepared once as a ``PreparedSelect``.
        ``compress_output`` opts into the paper's Section IX extension (not
        available on the real service).
        """
        obj = self.store.get_object(bucket, key)
        result = execute_select(
            obj, sql, scan_range=scan_range, compress_output=compress_output
        )
        self.metrics.record(
            RequestRecord(
                kind=RequestKind.SELECT,
                bucket=bucket,
                key=key,
                bytes_scanned=result.bytes_scanned,
                bytes_returned=result.bytes_returned,
                term_evals=result.term_evals,
            )
        )
        return result

    # ------------------------------------------------------------------
    # control plane (unmetered)
    # ------------------------------------------------------------------
    def create_bucket(self, bucket: str) -> None:
        self.store.create_bucket(bucket)

    def put_object(self, bucket: str, key: str, data: bytes, metadata: dict | None = None) -> None:
        self.store.put_object(bucket, key, data, metadata)
