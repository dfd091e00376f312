"""Table schemas: typed column descriptors shared by every layer.

CSV objects are untyped bytes on the wire; a :class:`TableSchema` tells
readers how to revive each field.  Dates are carried as ISO-8601 strings
(lexical order equals chronological order, which is all the paper's
queries need).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from repro.common.errors import CatalogError

#: Supported logical column types.
COLUMN_TYPES = ("int", "float", "str", "date")

#: Python constructor that revives a non-empty CSV field of each type.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
    "date": str,
}


@dataclass(frozen=True)
class ColumnDef:
    """One column: a name plus a logical type."""

    name: str
    type: str

    def __post_init__(self):
        if self.type not in COLUMN_TYPES:
            raise CatalogError(
                f"unknown column type {self.type!r} for column {self.name!r};"
                f" expected one of {COLUMN_TYPES}"
            )

    def parse(self, text: str) -> object:
        """Parse a CSV field into this column's Python type ('' -> NULL)."""
        return _CONVERTERS[self.type](text) if text else None

    def parse_column(self, texts: list[str]) -> list:
        """Parse a whole column of CSV fields at once ('' -> NULL).

        One C-level pass when the column holds no NULL (a str / date
        column is then returned as ``texts`` itself), one comprehension
        otherwise — never a Python call per field.
        """
        convert = _CONVERTERS[self.type]
        if convert is str:
            return texts if "" not in texts else [t or None for t in texts]
        if "" not in texts:
            return list(map(convert, texts))
        return [convert(t) if t else None for t in texts]


class TableSchema:
    """An ordered list of columns with fast name -> index lookup."""

    def __init__(self, columns: Sequence[ColumnDef]):
        if not columns:
            raise CatalogError("a table schema needs at least one column")
        self._index = {c.name.lower(): i for i, c in enumerate(columns)}
        if len(self._index) != len(columns):
            raise CatalogError(
                f"duplicate column names in schema: {[c.name for c in columns]}"
            )
        self.columns: tuple[ColumnDef, ...] = tuple(columns)
        self._names = tuple(c.name for c in columns)

    @classmethod
    def of(cls, *specs: str) -> "TableSchema":
        """Build a schema from ``"name:type"`` strings.

        >>> TableSchema.of("l_orderkey:int", "l_shipdate:date").names
        ('l_orderkey', 'l_shipdate')
        """
        columns = []
        for spec in specs:
            name, _, type_name = spec.partition(":")
            columns.append(ColumnDef(name=name, type=type_name or "str"))
        return cls(columns)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def name_to_index(self) -> Mapping[str, int]:
        """Lower-cased column name -> position (read-only)."""
        return MappingProxyType(self._index)

    def index_of(self, name: str) -> int:
        key = name.lower()
        if key not in self._index:
            raise CatalogError(
                f"no column {name!r} in schema with columns {self.names}"
            )
        return self._index[key]

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.index_of(name)]

    def subset(self, names: Iterable[str]) -> list[str]:
        """This schema's columns among ``names`` (any spelling; names it
        does not hold are skipped), in schema order."""
        positions = {self._index.get(n.lower()) for n in names}
        return [n for i, n in enumerate(self._names) if i in positions]

    def project(self, names: Iterable[str]) -> "TableSchema":
        """Schema of a projection of this schema, in the given order."""
        return TableSchema([self.column(n) for n in names])

    def parse_row(self, fields: Sequence[str]) -> tuple:
        """Parse one CSV record (list of strings) into a typed tuple."""
        if len(fields) != len(self.columns):
            raise CatalogError(
                f"row has {len(fields)} fields, schema has {len(self.columns)}"
            )
        return tuple(col.parse(field) for col, field in zip(self.columns, fields))

    def transpose(self, rows: Sequence[Sequence]) -> list[Sequence]:
        """``rows`` as one value tuple per column; every row must be
        exactly as wide as the schema."""
        found = set(map(len, rows)) - {len(self.columns)}
        if found:
            raise CatalogError(
                f"rows have {sorted(found)} fields, schema has {len(self.columns)}"
            )
        return list(zip(*rows)) or [()] * len(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TableSchema) and self.columns == other.columns

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.type}" for c in self.columns)
        return f"TableSchema({inner})"
