"""Result oracles: sqlite3 over the same rows, and row-multiset equality.

Every SQL op the benchmark times is answered a second time by sqlite3
from the identical generated rows; the engine's rows must equal
sqlite's as a sorted multiset with floats compared to relative 1e-6
(different plans sum floats in different orders).  sqlite runs the
engine parser's own rendering of the statement (``parse(sql).to_sql()``)
so DATE/INTERVAL arithmetic is folded identically on both sides.
"""

from __future__ import annotations

import sqlite3
from typing import Sequence

_SQLITE_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "date": "TEXT"}


class SqliteOracle:
    """An in-memory sqlite3 database mirroring the loaded tables."""

    def __init__(self):
        self._con = sqlite3.connect(":memory:")

    def load(self, name: str, rows: Sequence[tuple], schema) -> None:
        columns = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.type]}" for c in schema.columns
        )
        self._con.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" for _ in schema.columns)
        self._con.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)

    def expected(self, sql: str) -> list[tuple]:
        from repro.sqlparser.parser import parse

        return self._con.execute(parse(sql).to_sql()).fetchall()

    def close(self) -> None:
        self._con.close()


def _canon(rows: Sequence[tuple]) -> list[tuple]:
    return sorted(
        (tuple(row) for row in rows),
        key=lambda r: tuple((v is None, v if v is not None else 0) for v in r),
    )


def _close(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def rows_match(got: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Order-insensitive row-multiset equality; floats to relative 1e-6."""
    if len(got) != len(expected):
        return False
    for ra, rb in zip(_canon(got), _canon(expected)):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                if not _close(float(va), float(vb)):
                    return False
            elif va != vb:
                return False
    return True
