"""Aggregate accumulators of the one group-by operator.

S3 Select supports ``SUM``/``COUNT``/``AVG``/``MIN``/``MAX`` *without*
GROUP BY.  Both sides of the wire fold them through the same
:class:`~repro.engine.operators.groupby.GroupBy` — one accumulator set
per group, a single group for a global aggregate — so storage-side and
query-node aggregates agree bit for bit.  Partials from different
partitions combine with ``strategies.scans.merge_partial``.
"""

from __future__ import annotations

from repro.common.errors import UnsupportedFeatureError
from repro.sqlparser import ast


class Accumulator:
    """Incremental state for a single aggregate over one group."""

    __slots__ = ("func", "distinct", "_sum", "_count", "_min", "_max", "_seen")

    def __init__(self, func: str, distinct: bool = False):
        if func not in ast.AGGREGATE_FUNCS:
            raise UnsupportedFeatureError(f"unknown aggregate {func!r}")
        self.func = func
        self.distinct = distinct
        self._sum: float = 0
        self._count: int = 0
        self._min: object = None
        self._max: object = None
        self._seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        """Fold one input value into the aggregate (SQL skips NULLs)."""
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1
        if self.func in ("SUM", "AVG"):
            self._sum += value
        elif self.func == "MIN":
            if self._min is None or value < self._min:
                self._min = value
        elif self.func == "MAX":
            if self._max is None or value > self._max:
                self._max = value

    def add_many(self, values) -> None:
        """Fold a whole column of input values, in order.

        Exactly ``for v in values: self.add(v)``, but with the per-call
        dispatch hoisted out of the loop.  Sums fold sequentially (not
        ``sum()`` then merge) so float results stay bit-identical to the
        row-wise path regardless of batch boundaries.
        """
        if self._seen is not None:
            for v in values:
                self.add(v)
            return
        func = self.func
        if func == "COUNT":
            self._count += sum(1 for v in values if v is not None)
            return
        if func in ("SUM", "AVG"):
            s = self._sum
            n = self._count
            for v in values:
                if v is not None:
                    n += 1
                    s += v
            self._sum = s
            self._count = n
            return
        present = [v for v in values if v is not None]
        if not present:
            return
        self._count += len(present)
        if func == "MIN":
            m = min(present)
            if self._min is None or m < self._min:
                self._min = m
        else:
            m = max(present)
            if self._max is None or m > self._max:
                self._max = m

    def result(self) -> object:
        """Final aggregate value (SQL semantics: empty SUM/AVG/MIN/MAX are NULL)."""
        if self.func == "COUNT":
            return self._count
        if self._count == 0:
            return None
        if self.func == "SUM":
            return self._sum
        if self.func == "AVG":
            return self._sum / self._count
        if self.func == "MIN":
            return self._min
        return self._max

