"""Local LIMIT: truncate a batch stream."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.batch import Batch


def limit_batches(batches: Iterable[Batch], n: int | None) -> Iterator[Batch]:
    """Streaming LIMIT: stop pulling upstream once ``n`` rows have passed.

    This is where streaming pays off end to end — upstream scans and
    operators past the cut-off batch are never evaluated.  Every batch
    pulled is passed on, empty ones included, so a caller can pair each
    output batch with the input batch it came from (S3 Select sizes a
    response from each chunk's WHERE mask).
    """
    if n is None:
        yield from batches
        return
    if n < 0:
        raise ValueError(f"LIMIT must be non-negative, got {n}")
    remaining = n
    if remaining == 0:
        return
    for batch in batches:
        if len(batch) >= remaining:
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch
