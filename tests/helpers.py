"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter

from repro.engine.batch import Batch
from repro.storage.csvcodec import iter_records


def approx_rows(rows, places=4):
    """Normalize rows for order-insensitive comparison with FP tolerance."""
    out = []
    for row in rows:
        out.append(
            tuple(
                round(v, places) if isinstance(v, float) else v for v in row
            )
        )
    return sorted(out, key=repr)


def assert_rows_close(a, b, rel=1e-9):
    """Order-insensitive row comparison with relative FP tolerance."""
    sa = sorted(a, key=repr)
    sb = sorted(b, key=repr)
    assert len(sa) == len(sb), f"row counts differ: {len(sa)} vs {len(sb)}"
    for ra, rb in zip(sa, sb):
        assert len(ra) == len(rb), f"row widths differ: {ra} vs {rb}"
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                assert abs(va - vb) <= rel * max(abs(va), abs(vb), 1.0), (
                    f"{va} != {vb}"
                )
            else:
                assert va == vb, f"{va!r} != {vb!r}"


def decode_rows(data, schema, has_header=False):
    """Naive row-at-a-time CSV decode: the reference for the batch decoder."""
    records = iter_records(data)
    if has_header:
        next(records, None)
    return [schema.parse_row(record) for record in records]


def one_batch(rows, names):
    """``rows`` as the one-batch stream a ``*_batches`` operator takes."""
    return [Batch.from_rows(list(rows), len(names))]


def calls_by_name(fn) -> Counter:
    """Calls by function name while ``fn()`` runs (Python functions only)."""
    profile = cProfile.Profile(builtins=False)
    profile.runcall(fn)
    calls = Counter()
    for (_, _, name), (_, count, *_) in pstats.Stats(profile).stats.items():
        calls[name] += count
    return calls
