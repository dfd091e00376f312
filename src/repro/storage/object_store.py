"""The simulated S3 object store.

A passive, in-process stand-in for the S3 data plane: buckets hold
immutable byte blobs addressed by key, readable in full or by byte range.
All request metering, pricing, and the S3 Select engine live *above* this
layer (see :mod:`repro.cloud.client`), mirroring how the real S3 separates
storage from its request front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    InvalidRangeError,
    NoSuchBucketError,
    NoSuchKeyError,
)


@dataclass(frozen=True)
class StoredObject:
    """One immutable object: payload bytes plus free-form metadata.

    Metadata carries hints the simulated control plane needs (e.g.
    ``format: csv|parquet``); the real S3 would infer the same from the
    request's input serialization.  ``decoded`` is the CSV decoder's
    private memo of this object's columns (see
    :func:`repro.storage.csvcodec.iter_decode_column_batches`): it starts
    empty, is derived from ``data`` alone — which can never be rebound —
    and is dropped with the object, so an overwritten or deleted key
    cannot serve old columns (a reload writing the same bytes keeps the
    object, and so its memo: ``engine.catalog.load_table``).
    """

    data: bytes
    metadata: dict = field(default_factory=dict)
    decoded: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.data)


class ObjectStore:
    """In-memory bucket/key -> object mapping with range reads."""

    def __init__(self):
        self._buckets: dict[str, dict[str, StoredObject]] = {}

    # ------------------------------------------------------------------
    # bucket operations
    # ------------------------------------------------------------------
    def create_bucket(self, bucket: str) -> None:
        """Create a bucket; creating an existing bucket is a no-op (like AWS)."""
        self._buckets.setdefault(bucket, {})

    def bucket_exists(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _bucket(self, bucket: str) -> dict[str, StoredObject]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucketError(bucket) from None

    # ------------------------------------------------------------------
    # object operations
    # ------------------------------------------------------------------
    def put_object(self, bucket: str, key: str, data: bytes, metadata: dict | None = None) -> None:
        """Store (or overwrite) an object."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"object data must be bytes, got {type(data).__name__}")
        self._bucket(bucket)[key] = StoredObject(bytes(data), dict(metadata or {}))

    def get_object(self, bucket: str, key: str) -> StoredObject:
        objects = self._bucket(bucket)
        try:
            return objects[key]
        except KeyError:
            raise NoSuchKeyError(bucket, key) from None

    def get_bytes(self, bucket: str, key: str) -> bytes:
        return self.get_object(bucket, key).data

    def get_range(self, bucket: str, key: str, first_byte: int, last_byte: int) -> bytes:
        """Read the inclusive byte range ``[first_byte, last_byte]``.

        Mirrors HTTP Range semantics: the end may exceed the object size
        (truncated), but the start must be inside the object.
        """
        data = self.get_object(bucket, key).data
        if first_byte < 0 or last_byte < first_byte:
            raise InvalidRangeError(
                f"invalid byte range [{first_byte}, {last_byte}]"
            )
        if first_byte >= len(data):
            raise InvalidRangeError(
                f"range start {first_byte} beyond object size {len(data)}"
            )
        return data[first_byte : last_byte + 1]

    def object_size(self, bucket: str, key: str) -> int:
        return self.get_object(bucket, key).size

    def object_exists(self, bucket: str, key: str) -> bool:
        return self.bucket_exists(bucket) and key in self._buckets[bucket]

    def delete_object(self, bucket: str, key: str) -> None:
        objects = self._bucket(bucket)
        objects.pop(key, None)  # S3 DELETE is idempotent

    def list_keys(self, bucket: str, prefix: str = "") -> list[str]:
        """List keys in a bucket with an optional prefix, sorted (like S3)."""
        objects = self._bucket(bucket)
        return sorted(k for k in objects if k.startswith(prefix))
