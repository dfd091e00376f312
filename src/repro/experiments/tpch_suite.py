"""The full 22-query TPC-H suite, differentially checked against sqlite3.

Each ``benchmarks/tpch/queries/qNN.sql`` runs in every requested mode and
is compared (:func:`rows_match`) with sqlite3 running ``parse(sql).to_sql()``.
The dialect has no table aliases, so queries reading a table twice use
prefixed copies (:data:`AUX_TABLES`); each ``.sql`` file documents the
rest of its departures from the spec.
"""

import sqlite3
from operator import not_
from pathlib import Path
from typing import Sequence

from repro.cloud.context import CloudContext
from repro.engine.catalog import Catalog, load_table
from repro.experiments.harness import Claim, ExperimentResult, rows_match
from repro.planner.planner import execute_parsed
from repro.queries.tpch_queries import QUERY_DIR
from repro.sqlparser.parser import parse
from repro.storage.schema import TableSchema
from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

ALL_QUERIES = tuple(f"q{i:02d}" for i in range(1, 23))
#: aux name -> (base table, column prefix): identical rows, renamed columns.
AUX_TABLES = {
    "nation2": ("nation", "n2"), "region2": ("region", "r2"),
    "supplier2": ("supplier", "s2"), "partsupp2": ("partsupp", "ps2"),
    "lineitem2": ("lineitem", "l2"), "lineitem3": ("lineitem", "l3"),
}
_SQLITE_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "date": "TEXT"}


def aux_schema(base: TableSchema, prefix: str) -> TableSchema:
    """Rename ``x_col`` columns to ``<prefix>_col``, keeping types."""
    return TableSchema.of(*(f"{prefix}_{c.name.split('_', 1)[1]}:{c.type}"
                            for c in base.columns))


def oracle_table(con: sqlite3.Connection, name: str, schema: TableSchema,
                 rows: list[tuple]) -> None:
    """Create table ``name`` in the sqlite3 oracle and insert ``rows``."""
    cols = ", ".join(f"{c.name} {_SQLITE_TYPES[c.type]}" for c in schema.columns)
    con.execute(f"CREATE TABLE {name} ({cols})")
    marks = ", ".join("?" for _ in schema.columns)
    con.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)


def load_suite_tables(ctx: CloudContext, catalog: Catalog, scale_factor: float,
                      seed: int | None = None) -> sqlite3.Connection:
    """Load the TPC-H tables plus aux copies into the engine and an
    in-memory sqlite3 database (the oracle); returns the connection."""
    gen = TpchGenerator(scale_factor=scale_factor, seed=seed)
    con = sqlite3.connect(":memory:")
    tables = [(name, name, TABLE_SCHEMAS[name]) for name in TABLE_SCHEMAS] + [
        (aux, base, aux_schema(TABLE_SCHEMAS[base], prefix))
        for aux, (base, prefix) in AUX_TABLES.items()]
    for name, base, schema in tables:
        rows = gen.table(base)
        load_table(ctx, catalog, name, rows, schema)
        oracle_table(con, name, schema, rows)
    return con


def run(scale_factor: float = 0.002, modes: Sequence[str] = ("baseline", "auto"),
        queries: Sequence[str] | None = None, query_dir: str | None = None,
        seed: int | None = None) -> ExperimentResult:
    """One row per (query, mode): the verdict (``match``) and the metered
    requests, bytes, runtime and cost — the artifact CI uploads."""
    ctx, catalog = CloudContext(), Catalog()
    con = load_suite_tables(ctx, catalog, scale_factor, seed=seed)
    names = list(queries) if queries else list(ALL_QUERIES)
    qdir = Path(query_dir) if query_dir else QUERY_DIR
    result = ExperimentResult(
        "tpch", "TPC-H 22-query differential suite vs sqlite3", claims=CLAIMS,
        notes={"scale_factor": scale_factor, "oracle": "sqlite3 over parse(sql).to_sql()",
               "comparison": "sorted row multiset, floats to relative 1e-6"},
    )
    for name in names:
        query = parse((qdir / f"{name}.sql").read_text())
        expected = con.execute(query.to_sql()).fetchall()
        for mode in modes:
            ex = execute_parsed(ctx, catalog, query, mode)
            result.rows.append({
                "query": name, "strategy": mode, "rows": len(ex.rows),
                "match": "yes" if rows_match(ex.rows, expected) else "MISMATCH",
                "requests": ex.num_requests, "bytes_scanned": ex.bytes_scanned,
                "bytes_returned": ex.bytes_returned + ex.bytes_transferred,
                "runtime_s": round(ex.runtime_seconds, 4),
                "cost_total": round(ex.cost.total, 6),
            })
    result.notes["parsed"] = f"{len(names)}/{len(names)}"
    con.close()
    return result


CLAIMS = (
    Claim("tpch", "Every query returns sqlite3's rows in every mode",
          lambda r: [(row["query"], row["strategy"]) for row in r.rows
                     if row["match"] != "yes"], not_),
    Claim("tpch", "Optimized returns fewer bytes than baseline on q01 and q06 (if run)",
          lambda r: [{row["strategy"]: row["bytes_returned"] for row in r.rows
                      if row["query"] == q} for q in ("q01", "q06")],
          lambda modes: all(b["optimized"] < b["baseline"] for b in modes
                            if {"optimized", "baseline"} <= b.keys())),
)
