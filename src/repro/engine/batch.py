"""The columnar RecordBatch: one value sequence per column.

A :class:`Batch` is the one thing that flows between operators: a chunk
of rows stored column-wise — one plain Python list per column plus a
row count — so the vectorized expression kernels in
:mod:`repro.expr.vector` sweep whole columns with C-speed list
comprehensions instead of paying a Python-level loop per row.

A batch also reads like the sequence of row tuples it represents:
``len(batch)`` is the row count, iteration yields tuples, ``batch[i]``
is a row, and ``batch[a:b]`` is a sliced *view* — column slices share
the underlying value objects and no row tuple is ever rebuilt.  What a
plan materializes (a hash-join build, a cross product's build, an
adaptive re-plan's finished subtree, an init plan's result) is one batch
too (:meth:`Batch.concat`); row tuples exist only in the result handed
to the caller and in a few operators' private state (top-K's heap, the
paper strategies' group rows).
"""

from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Iterable, Iterator, Sequence


class Batch:
    """One columnar RecordBatch: per-column value sequences + a length.

    ``columns`` is a list with one entry per output column; each entry is
    an indexable sequence (usually a list) of exactly ``length`` values,
    where ``None`` encodes SQL NULL.
    Columns are treated as immutable once a batch is constructed, which
    is what makes slicing and projection views safe to share.
    """

    __slots__ = ("columns", "length", "_types")

    def __init__(self, columns: Sequence[Sequence[object]], length: int | None = None):
        self.columns = list(columns)
        #: column index -> the column's ``(kind, nullable)``, filled lazily
        #: by :mod:`repro.expr.vector`'s typing guard.
        self._types: dict | None = None
        if length is None:
            if not self.columns:
                raise ValueError("a Batch without columns needs an explicit length")
            length = len(self.columns[0])
        self.length = length

    # -- converters ----------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple], num_columns: int | None = None
    ) -> "Batch":
        """Transpose row tuples into a columnar batch.

        ``num_columns`` is only needed for an empty ``rows`` (the column
        count cannot be inferred from nothing).
        """
        if not rows:
            if num_columns is None:
                raise ValueError("from_rows([]) needs num_columns")
            return cls([[] for _ in range(num_columns)], 0)
        return cls([list(col) for col in zip(*rows)], len(rows))

    @classmethod
    def concat(cls, batches: Sequence["Batch"], width: int) -> "Batch":
        """One batch of ``batches``' rows, in order (a lone batch comes
        back as it is).  ``width`` is the column count, needed only when
        there is no batch to read it from."""
        if len(batches) == 1:
            return batches[0]
        columns: list[list] = [[] for _ in range(width)]
        for batch in batches:
            for held, column in zip(columns, batch.columns):
                held.extend(column)
        return cls(columns, sum(map(len, batches)))

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate row tuples without materializing them all up front."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    # -- sequence protocol (a Batch acts like its list of row tuples) --

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        return self.iter_rows()

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.length)
            if step != 1:
                raise ValueError("Batch slices must be contiguous (step 1)")
            if start == 0 and stop == self.length:
                return self
            return Batch([col[start:stop] for col in self.columns], max(stop - start, 0))
        return self.row(index)

    def row(self, i: int) -> tuple:
        """Materialize one row tuple."""
        return tuple(col[i] for col in self.columns)

    def column(self, i: int) -> Sequence[object]:
        """The ``i``-th column's value sequence (shared, not copied)."""
        return self.columns[i]

    # -- columnar transforms -------------------------------------------

    def filter(self, mask: Sequence[object]) -> "Batch":
        """Rows whose mask entry is ``True`` (SQL WHERE: NULL drops).

        ``mask`` entries must be ``True``, ``False`` or ``None`` (the
        three values a predicate produces); counting and compressing
        then both run at C speed.
        """
        kept = mask.count(True) if isinstance(mask, list) else sum(
            v is True for v in mask
        )
        if kept == self.length:
            return self
        return Batch([list(compress(col, mask)) for col in self.columns], kept)

    def take(self, indices: Sequence[int]) -> "Batch":
        """Gather the given row positions into a new batch (``self`` when
        they are every row once, in order — a join whose probe rows all
        match exactly once copies nothing)."""
        n = self.length
        if len(indices) == n and all(map(eq, indices, range(n))):
            return self
        return Batch([[col[i] for i in indices] for col in self.columns], len(indices))


def rechunk_batches(batches: Iterable[Batch], batch_size: int) -> Iterator[Batch]:
    """Re-cut a batch stream into ``batch_size``-row batches.

    The same rows in the same order (the final batch may be short; empty
    input yields no batches), by column concatenation and slicing instead
    of a per-row loop.  Zero-column batches carry only their length.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    columns: list[list] | None = None
    pending = 0
    for batch in batches:
        if columns is None:
            columns = [[] for _ in batch.columns]
        for held, column in zip(columns, batch.columns):
            held.extend(column)
        pending += len(batch)
        start = 0
        while pending - start >= batch_size:
            stop = start + batch_size
            yield Batch([col[start:stop] for col in columns], batch_size)
            start = stop
        if start:
            columns = [col[start:] for col in columns]
            pending -= start
    if pending:
        yield Batch(columns, pending)
