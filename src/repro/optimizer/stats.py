"""Table statistics collected at load time for the cost-based optimizer.

:func:`~repro.engine.catalog.load_table` transposes each partition once;
from those columns come the stored bytes, each column's encoded width
(summed across partitions into ``avg_field_bytes`` — nothing is formatted
a second time) and the partition's zone map, and the zone maps fold into
the table's min / max / NULL counts.  What still needs a whole column at
once is read one column at a time afterwards: the distinct count, the
most-common-values (MCV) sketch — what lets the cost model price hybrid
group-by's head/tail split without re-scanning anything — and the
equi-depth histogram (a sort).  All of it is exact.

Statistics are attached to the catalog's
:class:`~repro.engine.catalog.TableInfo` (``info.stats``,
``info.zone_maps``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Mapping, Sequence

from repro.common.errors import CatalogError
from repro.storage.csvcodec import FIELD_DELIM, RECORD_DELIM, encoded_size
from repro.storage.schema import TableSchema

#: Most-common values kept per column.  Large enough to cover the
#: paper's hybrid group-by sweet spot (Figure 6 pushes 6-8 groups).
DEFAULT_MCV_SIZE = 16

#: Columns with more distinct values than this stop tracking exact
#: frequencies (their MCV list would be meaningless anyway); the
#: distinct count itself stays exact.
_MCV_TRACK_LIMIT = 4096

#: Equi-depth buckets per numeric column.  Enough resolution that a
#: Zipf(1.3) head (fig07's worst skew) lands in its own buckets instead
#: of being linearly smeared across the whole min/max range.
DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over a column's non-NULL values.

    ``buckets`` are ``(lo, hi, count)`` triples in ascending order with
    inclusive bounds; counts are near-equal by construction, so skewed
    value mass shows up as narrow buckets instead of being averaged away
    the way a single min/max interval is.
    """

    buckets: tuple
    #: Total non-NULL values covered (the sum of bucket counts).
    total: int

    def fraction(self, op: str, value) -> float | None:
        """Fraction of covered values satisfying ``x <op> value``.

        Within a bucket, values are assumed uniform over ``[lo, hi]``;
        integer bounds get the same half-open ``unit`` correction as the
        min/max interpolation, which keeps the estimate *exact* on dense
        integer domains.  Returns ``None`` when ``value`` is not
        comparable to the bucket bounds.
        """
        if not self.total:
            return None
        try:
            if op in ("<", "<="):
                return self._below(value, inclusive=op == "<=")
            if op in (">", ">="):
                return 1.0 - self._below(value, inclusive=op == ">")
        except TypeError:
            return None
        return None

    def _below(self, value, inclusive: bool) -> float:
        covered = 0.0
        for lo, hi, count in self.buckets:
            unit = 1 if isinstance(lo, int) and isinstance(hi, int) else 0
            width = (hi - lo) + unit
            if inclusive:
                numer = (value - lo) + unit
            else:
                numer = value - lo
            if width <= 0:  # single-valued float bucket
                frac = 1.0 if numer > 0 or (inclusive and value >= lo) else 0.0
            else:
                frac = numer / width
            covered += count * min(max(frac, 0.0), 1.0)
        return covered / self.total


def build_histogram(
    non_null: Sequence, num_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    counts: Counter | None = None,
) -> Histogram | None:
    """Equi-depth histogram of ``non_null`` (numeric values only).

    Returns ``None`` for empty or non-numeric input.  Bucket count is
    capped by the number of values so single-value buckets only appear
    when the column is narrower than the requested resolution.  With
    ``counts`` (``Counter(non_null)``) of one type, at most an eighth as
    many distinct values as values and no ±0.0 or NaN (equal, but printed
    apart) it is cut from cumulative counts instead of sorting the column."""
    # One type dispatch for the column, as ``format_column`` does.
    kinds = set(map(type, non_null))
    if not non_null or not kinds <= {int, float}:
        return None
    # Sorting the distinct values pays only when they are few: on TPC-H it
    # cost 1.3-4x the column sort at one distinct value per four values or
    # more, 0.2-0.8x at one per eight or fewer.
    if counts is not None and 8 * len(counts) <= len(non_null) and (kinds == {int} or (
        kinds == {float} and 0.0 not in counts and all(v == v for v in counts)
    )):
        distinct = sorted(counts)
        ends = list(accumulate(map(counts.__getitem__, distinct)))
        at = lambda position: distinct[bisect_right(ends, position)]
    else:
        at = sorted(non_null).__getitem__
    n = len(non_null)
    b = max(min(num_buckets, n), 1)
    cuts = [i * n // b for i in range(b + 1)]  # b <= n: no bucket is empty
    buckets = tuple((at(lo), at(hi - 1), hi - lo) for lo, hi in zip(cuts, cuts[1:]))
    return Histogram(buckets=buckets, total=n)


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column."""

    name: str
    type: str
    distinct: int
    null_count: int
    min_value: object = None
    max_value: object = None
    #: Mean encoded CSV field width in bytes (quotes included).
    avg_field_bytes: float = 0.0
    #: ``(value, count)`` pairs, most frequent first.  Empty when the
    #: column blew past the tracking limit.
    mcvs: tuple = ()
    #: Equi-depth histogram over the non-NULL values; ``None`` for
    #: non-numeric and all-NULL columns.
    histogram: Histogram | None = None

    def mcv_fraction(self, row_count: int, top: int) -> float:
        """Fraction of rows covered by the ``top`` most common values."""
        if not row_count or not self.mcvs:
            return 0.0
        return sum(c for _, c in self.mcvs[:top]) / row_count


@dataclass(frozen=True)
class TableStats:
    """Statistics of one loaded table."""

    row_count: int
    #: Mean encoded CSV row width in bytes (delimiters included).
    avg_row_bytes: float
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        """Statistics of column ``name``; every loaded column has them, so
        an unknown name raises :class:`CatalogError`."""
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} among the table's columns {list(self.columns)}"
            ) from None

    def distinct_among(self, name: str, rows: float) -> float:
        """Distinct values of column ``name`` expected among ``rows`` of
        the table's rows: its distinct count, capped by the rows."""
        distinct = max(self.column(name).distinct, 1)
        return max(1.0, min(float(distinct), max(rows, 1.0)))

    def groups(self, names: Sequence[str]) -> int:
        """Groups of columns ``names`` expected: their distinct counts
        multiplied, at most one a row (one group for no column)."""
        groups = 1
        for name in names:
            groups *= max(self.column(name).distinct, 1)
        return min(groups, max(self.row_count, 1))

    def projected_row_bytes(self, names: Sequence[str]) -> float:
        """Encoded width of a row projected to ``names`` (with delimiters):
        each column's mean encoded field width, from its statistics.

        This is what an S3 Select response row costs on the wire — the
        service always returns CSV — and what separates "return 4 of 20
        columns" from "return everything" in the cost model.
        """
        widths = [self.column(name).avg_field_bytes for name in names]
        delimiters = max(len(widths) - 1, 0) * len(FIELD_DELIM) + len(RECORD_DELIM)
        return sum(widths) + delimiters


def collect_table_stats(
    rows: Sequence[tuple],
    schema: TableSchema,
    mcv_size: int = DEFAULT_MCV_SIZE,
    zone_maps: "Sequence[PartitionZoneMap] | None" = None,
    widths: Sequence[int] = (),
) -> TableStats:
    """Exact :class:`TableStats` of ``rows``, one whole column at a time.

    The loader hands over what it derived a partition at a time: the
    ``zone_maps`` (folded into min / max / NULL counts) and ``widths``,
    each column's encoded size summed over the partitions; without them
    ``rows`` are taken as one partition.  Query-time code only ever reads
    the result.
    """
    if zone_maps is None:
        columns = schema.transpose(rows)
        zone_maps = [zone_map(columns, schema)]
        widths = [encoded_size([column], 0) for column in columns]
    n = len(rows)
    stats: dict[str, ColumnStats] = {}
    for idx, (col, width) in enumerate(zip(schema.columns, widths)):
        values = list(map(itemgetter(idx), rows))
        key = col.name.lower()
        zones = [zone.columns[key] for zone in zone_maps]
        null_count = sum(zone.null_count for zone in zones)
        non_null = [v for v in values if v is not None] if null_count else values
        # Counts in first-seen order: ``most_common`` ties break by position.
        counts = Counter(non_null)
        # A zone's bounds are None iff the whole partition is NULL there.
        bounded = [zone for zone in zones if zone.min_value is not None]
        stats[key] = ColumnStats(
            name=col.name,
            type=col.type,
            distinct=len(counts),
            null_count=null_count,
            min_value=min((z.min_value for z in bounded), default=None),
            max_value=max((z.max_value for z in bounded), default=None),
            avg_field_bytes=width / n if n else 0.0,
            mcvs=tuple(counts.most_common(mcv_size)) if len(counts) <= _MCV_TRACK_LIMIT else (),
            histogram=build_histogram(non_null, counts=counts),
        )
    field_bytes = sum(c.avg_field_bytes for c in stats.values())
    delimiters = (len(schema) - 1) * len(FIELD_DELIM) + len(RECORD_DELIM)
    return TableStats(
        row_count=n,
        avg_row_bytes=(field_bytes + delimiters) if n else 0.0,
        columns=stats,
    )


# ----------------------------------------------------------------------
# zone maps: per-partition min/max/null-count for static pruning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnZone:
    """One column's value envelope within one partition object.

    ``min_value``/``max_value`` are ``None`` iff every value in the
    partition is NULL — together with ``null_count`` that is everything
    static refutation needs.
    """

    min_value: object
    max_value: object
    null_count: int


@dataclass(frozen=True)
class PartitionZoneMap:
    """Zone map of one partition object: row count + per-column zones."""

    row_count: int
    columns: Mapping[str, ColumnZone] = field(default_factory=dict)

    def column(self, name: str) -> ColumnZone | None:
        return self.columns.get(name.lower())


def zone_map(columns: Sequence[Sequence], schema: TableSchema) -> PartitionZoneMap:
    """The zone map of a partition held a column at a time (as
    :func:`~repro.engine.catalog.load_table` holds it); a column is
    copied only when it holds a NULL."""
    zones: dict[str, ColumnZone] = {}
    for col, values in zip(schema.columns, columns):
        non_null = [v for v in values if v is not None] if None in values else values
        zones[col.name.lower()] = ColumnZone(
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            null_count=len(values) - len(non_null),
        )
    return PartitionZoneMap(row_count=len(columns[0]), columns=zones)
