"""The four benchmark workloads: inputs, ops and oracles.

A workload generates its tables from ``(scale, seed)``, names the
``PushdownDB`` session it runs in, and — once the tables are loaded and
mirrored into sqlite — lists its ops.  An op is one user-visible action
(a SQL statement, a paper-strategy runner, a table reload) plus the
oracle its rows must satisfy.  The seed changes data and literals but
never the *amount* of work: row counts and the op skeleton are fixed, so
that runs at different seeds measure the same thing.

The engine is driven only through public entry points:
``PushdownDB.load_table/execute/reset_cache/reset_feedback``,
``TpchGenerator``, ``TABLE_SCHEMAS``, ``MICRO_QUERIES``, ``TPCH_QUERIES``
and ``repro.strategies.*``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

QUERY_DIR = Path(__file__).resolve().parent / "queries"

#: Cut lineitem to this many rows per order.  The generator draws 1-7
#: lines per order, so the table's size wanders ~1 % with the seed; the
#: cut (4 sigma below the mean of 4.0 at the benchmark's scales) gives
#: every seed the same row count and hence the same scan work.
LINES_PER_ORDER = 3.85

#: aux name -> (base table, column prefix).  The SQL dialect has no table
#: aliases, so a query reading a table twice uses a renamed copy.
AUX_TABLES = {
    "nation2": ("nation", "n2"),
    "region2": ("region", "r2"),
    "supplier2": ("supplier", "s2"),
    "partsupp2": ("partsupp", "ps2"),
    "lineitem2": ("lineitem", "l2"),
    "lineitem3": ("lineitem", "l3"),
}


@dataclass
class TableSpec:
    """One table to load: rows, schema and ``load_table`` options."""

    name: str
    rows: list[tuple]
    schema: object
    load_kwargs: dict = field(default_factory=dict)
    #: Mirrored into sqlite (False for format twins of a mirrored table).
    in_oracle: bool = True


@dataclass
class Op:
    """One timed action and the oracle for its rows.

    ``run(db)`` returns a ``QueryExecution`` (or a ``TableInfo`` for a
    reload).  A result passes when its rows equal ``expected`` (sqlite's
    answer), number ``expect_rows``, and equal this pass's rows of the
    op named ``same_as`` — whichever of the three are set.
    """

    name: str
    kind: str  # "sql" | "strategy" | "reload"
    run: Callable
    expected: list[tuple] | None = None
    expect_rows: int | None = None
    same_as: str | None = None


def tpch_rows(gen, name: str) -> list[tuple]:
    """Rows of a TPC-H table, lineitem cut to a seed-independent size."""
    rows = gen.table(name)
    if name == "lineitem":
        return rows[: int(len(gen.table("orders")) * LINES_PER_ORDER)]
    return rows


def aux_schema(base, prefix: str):
    """Rename ``x_col`` columns to ``<prefix>_col``, keeping types."""
    from repro.storage.schema import TableSchema

    return TableSchema.of(
        *(f"{prefix}_{c.name.split('_', 1)[1]}:{c.type}" for c in base.columns)
    )


def _sql_op(name: str, sql: str, mode: str, oracle) -> Op:
    return Op(
        name=name,
        kind="sql",
        run=lambda db: db.execute(sql, mode=mode),
        expected=oracle.expected(sql),
    )


class Workload:
    """Base class; subclasses fill in tables, session and ops."""

    name = ""
    scale = 0.0
    #: Seconds one pass takes on the reference machine; ``--seconds``
    #: divided by this (never below ``MIN_PASSES``) is the pass count.
    pass_ref_s = 1.0
    #: Simulated clocks are calibrated as if the loaded data were this big.
    paper_bytes = 10e9

    def __init__(self, scale: float | None, seed: int):
        self.scale = self.scale if scale is None else scale
        self.seed = seed

    def tables(self) -> list[TableSpec]:
        raise NotImplementedError

    def session_kwargs(self, tables: Sequence[TableSpec]) -> dict:
        return {"workers": 1}

    def ops(self, tables: Sequence[TableSpec], oracle) -> list[Op]:
        raise NotImplementedError

    def begin_pass(self, db) -> None:
        """Reset whatever session state would make passes differ."""
        db.reset_feedback()
        db.reset_cache()


# ----------------------------------------------------------------------
# tpch_pushdown / tpch_baseline
# ----------------------------------------------------------------------

#: The TPC-H ops.  All 22 statements are frozen in ``queries/``; these
#: twelve fit the driver's time cap at k >= 3 and keep the same plan at
#: every seed.  Left out: Q2, Q9, Q11, Q17 and Q21, whose optimized plan
#: flips with the data (simulated runtime moves 10-50 % between seeds),
#: and Q8, Q12, Q15, Q18, Q20, which only add time on shapes already
#: covered (multi-join + Bloom probe, correlated scalar aggregate).
TPCH_OPS = (
    "q01", "q03", "q04", "q05", "q06", "q07",
    "q10", "q13", "q14", "q16", "q19", "q22",
)


def _strip_comments(sql: str) -> str:
    return "\n".join(
        line for line in sql.splitlines() if not line.lstrip().startswith("--")
    )


class _TpchWorkload(Workload):
    scale = 0.002
    mode = ""

    def _queries(self) -> dict[str, str]:
        return {
            name: (QUERY_DIR / f"{name}.sql").read_text() for name in TPCH_OPS
        }

    def tables(self) -> list[TableSpec]:
        from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

        gen = TpchGenerator(scale_factor=self.scale, seed=self.seed)
        text = " ".join(_strip_comments(q) for q in self._queries().values())
        words = set(re.findall(r"[a-z_0-9]+", text.lower()))
        specs = [
            TableSpec(name, tpch_rows(gen, name), TABLE_SCHEMAS[name])
            for name in TABLE_SCHEMAS if name in words
        ]
        specs += [
            TableSpec(
                aux, tpch_rows(gen, base), aux_schema(TABLE_SCHEMAS[base], prefix)
            )
            for aux, (base, prefix) in AUX_TABLES.items() if aux in words
        ]
        return specs

    def ops(self, tables, oracle) -> list[Op]:
        return [
            _sql_op(name, sql, self.mode, oracle)
            for name, sql in self._queries().items()
        ]


class TpchPushdown(_TpchWorkload):
    """TPC-H in optimized mode: the paper's headline path, ~96% of wall-clock
    inside S3 Select requests (tokenise, Bloom predicate, pushed-SQL parse)."""

    name = "tpch_pushdown"
    mode = "optimized"
    pass_ref_s = 6.5


class TpchBaseline(_TpchWorkload):
    """Same data and queries in baseline mode: zero SELECT requests, GET decode
    plus local operators; a pushdown-only change must leave it flat."""

    name = "tpch_baseline"
    mode = "baseline"
    pass_ref_s = 3.7


# ----------------------------------------------------------------------
# paper_strategies
# ----------------------------------------------------------------------

#: Hand-assembled query variants run (both baseline and optimized).  Q1,
#: Q3, Q17 and Q19 are left out for the time cap: the group-by micro
#: query runs Q1's S3-side group-by, the join micro query Q3's Bloom
#: join, and Q14 the Bloom-filtered part join of Q17 and Q19.
STRATEGY_TPCH = ("q6", "q14")


class PaperStrategies(Workload):
    """The hand-assembled second stack: strategies/*, queries/*, byte-range
    GETs, ScanRange sampling, Parquet; must stay flat when it becomes plan nodes."""

    name = "paper_strategies"
    scale = 0.003
    pass_ref_s = 6.5
    #: Rows of the two synthetic tables per unit of scale factor.
    SYNTHETIC_ROWS_PER_SF = 2_000_000

    def tables(self) -> list[TableSpec]:
        from repro.workloads.synthetic import (
            FILTER_SCHEMA,
            filter_table,
            groupby_schema,
            skewed_groupby_table,
        )
        from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

        gen = TpchGenerator(scale_factor=self.scale, seed=self.seed)
        n = max(40, int(self.SYNTHETIC_ROWS_PER_SF * self.scale))
        specs = [
            TableSpec(name, tpch_rows(gen, name), TABLE_SCHEMAS[name])
            for name in ("customer", "orders", "lineitem", "part")
        ]
        specs.append(TableSpec(
            "lineitem_pq", tpch_rows(gen, "lineitem"), TABLE_SCHEMAS["lineitem"],
            load_kwargs={"data_format": "parquet"}, in_oracle=False,
        ))
        specs.append(TableSpec(
            "filter_data", filter_table(n, seed=self.seed), FILTER_SCHEMA,
            load_kwargs={"index_columns": ["key"]},
        ))
        specs.append(TableSpec(
            "skewed", skewed_groupby_table(n, theta=1.3, seed=self.seed),
            groupby_schema(),
        ))
        return specs

    def ops(self, tables, oracle) -> list[Op]:
        from repro.queries.micro import MICRO_QUERIES
        from repro.queries.tpch_queries import TPCH_QUERIES
        from repro.sqlparser.parser import parse_expression
        from repro.strategies.filter import (
            FilterQuery,
            indexed_filter,
            s3_side_filter,
            server_side_filter,
        )
        from repro.strategies.groupby import AggSpec, GroupByQuery, hybrid_group_by

        ops: dict[str, Op] = {}

        def strategy_op(name, fn, *args, **kwargs) -> Op:
            ops[name] = Op(
                name=name, kind="strategy",
                run=lambda db: fn(db.ctx, db.catalog, *args, **kwargs),
            )
            return ops[name]

        variants = dict(MICRO_QUERIES)
        variants.update({q: TPCH_QUERIES[q] for q in STRATEGY_TPCH})
        for name, pair in variants.items():
            strategy_op(f"{name}.baseline", pair.baseline)
            strategy_op(f"{name}.optimized", pair.optimized).same_as = (
                f"{name}.baseline"
            )

        by_name = {t.name: t for t in tables}
        lineitem = by_name["lineitem"]
        ship = lineitem.schema.index_of("l_shipdate")
        cutoff = "1992-03-01"  # the filter micro query's predicate
        ops["filter.baseline"].expect_rows = sum(
            1 for row in lineitem.rows if row[ship] < cutoff
        )
        ops["top-k.baseline"].expect_rows = min(100, len(lineitem.rows))

        # A Parquet-format twin of the filter micro query.
        twin = FilterQuery(
            table="lineitem_pq",
            predicate=parse_expression(f"l_shipdate < '{cutoff}'"),
            projection=["l_orderkey", "l_extendedprice", "l_shipdate"],
        )
        for label, fn in (("server", server_side_filter), ("s3", s3_side_filter)):
            strategy_op(f"filter-parquet.{label}", fn, twin).same_as = (
                "filter.baseline"
            )

        # The three filter strategies at two selectivities; ``key`` is a
        # permutation, so ``key < m`` matches exactly m rows.
        n = len(by_name["filter_data"].rows)
        for matched in (6, max(7, n // 20)):
            query = FilterQuery(
                table="filter_data", predicate=parse_expression(f"key < {matched}")
            )
            for label, fn in (
                ("server", server_side_filter),
                ("s3", s3_side_filter),
                ("indexed", indexed_filter),
            ):
                op = strategy_op(f"filter-{matched}.{label}", fn, query)
                op.expect_rows = matched
                if label != "server":
                    op.same_as = f"filter-{matched}.server"

        hybrid = strategy_op(
            "hybrid-group-by", hybrid_group_by,
            GroupByQuery(
                table="skewed", group_columns=["g0"],
                aggregates=[AggSpec("sum", c) for c in ("v0", "v1", "v2", "v3")],
            ),
            s3_groups=6,
        )
        hybrid.expected = oracle.expected(
            "SELECT g0, SUM(v0), SUM(v1), SUM(v2), SUM(v3) FROM skewed GROUP BY g0"
        )
        return list(ops.values())


# ----------------------------------------------------------------------
# repeat_session
# ----------------------------------------------------------------------

#: The session script's skeleton: template per op.  Fixed, so every seed
#: has the same hit/miss pattern and the same number of lineitem scans;
#: the seed draws the literals.  ``scan+`` widens the drifting literal
#: past everything cached (a miss that evicts), ``scan-`` narrows it (a
#: subsumption hit); ``agg*`` stores the full aggregate list and ``agg``
#: asks for subsets and permutations of it (partial-aggregate reuse);
#: ``q6a``/``q6b`` are the two members of the Q6 literal pool; every 20th
#: op reloads a table beside the reads.
SESSION_SKELETON = (
    "scan+", "agg*", "q6a", "scan-", "join2", "agg", "scan-", "join3", "q6a",
    "agg", "scan+", "q6b", "agg", "join2", "scan-", "agg", "join3", "q6b",
    "scan-", "reload:lineitem",
    "scan+", "agg", "q6a", "scan-", "join2", "agg*", "scan-", "join3", "q6a",
    "agg", "scan+", "agg", "q6a", "join2", "scan-", "agg", "join3", "agg",
    "scan-", "reload:orders",
)

#: Additive aggregates only: those push down whole, and the cache keeps
#: their per-partition partials for any subset or permutation.
_AGG_ITEMS = (
    "SUM(o_totalprice) AS total",
    "COUNT(*) AS n",
    "SUM(o_totalprice * 0.08) AS tax",
    "SUM(o_shippriority) AS priority",
)
#: Join literals cycle through fixed lists, not the seed: a join's pushed
#: scans share the cache, and their sizes decide what a later store evicts.
_JOIN2_BALANCES = (7000, 8000, 7000, 9000)
_JOIN3_REGIONS = ("ASIA", "EUROPE", "ASIA", "AMERICA")


class RepeatSession(Workload):
    """One cache-enabled session replaying near-duplicate queries with reloads:
    hit ops are plan-only, so parser/planner/optimizer/cache dominate."""

    name = "repeat_session"
    scale = 0.005
    pass_ref_s = 6.5
    TABLES = (
        "customer", "orders", "lineitem", "part", "supplier", "nation", "region",
    )
    #: Cache budget per orders row.  A drifting-scan entry costs 56 bytes
    #: per selected row and selects 60-93 % of orders, everything else
    #: cached is under 10 bytes per orders row in total: the budget holds
    #: one scan entry and never two, so each widening scan evicts.
    CACHE_BYTES_PER_ORDER = 66

    def tables(self) -> list[TableSpec]:
        from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

        gen = TpchGenerator(scale_factor=self.scale, seed=self.seed)
        return [
            TableSpec(name, tpch_rows(gen, name), TABLE_SCHEMAS[name])
            for name in self.TABLES
        ]

    def session_kwargs(self, tables) -> dict:
        orders = next(t for t in tables if t.name == "orders")
        return {
            "workers": 1,
            "cache_bytes": self.CACHE_BYTES_PER_ORDER * len(orders.rows),
        }

    def ops(self, tables, oracle) -> list[Op]:
        by_name = {t.name: t for t in tables}
        ops: list[Op] = []
        for position, (template, mode, sql) in enumerate(
            self._script(by_name["orders"]), start=1
        ):
            name = f"{position:02d}.{template}"
            if sql is not None:
                ops.append(_sql_op(name, sql, mode, oracle))
                continue
            spec = by_name[template.split(":", 1)[1]]
            ops.append(Op(
                name=name, kind="reload",
                run=lambda db, spec=spec: db.load_table(
                    spec.name, spec.rows, spec.schema, **spec.load_kwargs
                ),
                expect_rows=len(spec.rows),
            ))
        return ops

    def _script(self, orders: TableSpec):
        """Yield ``(template, mode, sql)`` per op; ``sql`` None for a reload."""
        price = orders.schema.index_of("o_totalprice")
        prices = sorted(row[price] for row in orders.rows)
        rng = random.Random(self.seed)
        year = rng.choice((1993, 1994, 1995, 1996))
        q6_discount = {
            "q6a": rng.choice((0.03, 0.04, 0.05)),
            "q6b": rng.choice((0.06, 0.07, 0.08)),
        }
        statuses = ["F", "O"]
        rng.shuffle(statuses)
        fraction = 0.0
        widenings = joins2 = joins3 = full_aggs = 0

        def scan(fraction: float) -> str:
            bound = prices[int(fraction * (len(prices) - 1))]
            return (
                "SELECT o_orderkey, o_totalprice FROM orders"
                f" WHERE o_totalprice < {bound:.2f}"
            )

        def aggregate(items: Sequence[str]) -> str:
            status = statuses[(full_aggs - 1) % len(statuses)]
            return (
                f"SELECT {', '.join(items)} FROM orders"
                f" WHERE o_orderstatus = '{status}'"
            )

        for template in SESSION_SKELETON:
            if template.startswith("reload:"):
                if template == "reload:orders":
                    widenings = 0  # its scan entries are gone; start over
                yield template, None, None
            elif template == "scan+":
                widenings += 1
                fraction = 0.50 + 0.10 * widenings + rng.uniform(0.0, 0.03)
                yield template, "optimized", scan(fraction)
            elif template == "scan-":
                fraction -= rng.uniform(0.02, 0.05)
                yield template, "optimized", scan(fraction)
            elif template in q6_discount:
                mid = q6_discount[template]
                yield template, "optimized", (
                    "SELECT SUM(l_extendedprice * l_discount) AS revenue"
                    " FROM lineitem"
                    f" WHERE l_shipdate >= '{year}-01-01'"
                    f" AND l_shipdate < '{year + 1}-01-01'"
                    f" AND l_discount BETWEEN {mid - 0.01:.2f} AND {mid + 0.01:.2f}"
                    " AND l_quantity < 24"
                )
            elif template == "agg*":
                full_aggs += 1
                yield template, "optimized", aggregate(_AGG_ITEMS)
            elif template == "agg":
                yield template, "optimized", aggregate(
                    rng.sample(_AGG_ITEMS, rng.randint(1, 3))
                )
            elif template == "join2":
                balance = _JOIN2_BALANCES[joins2 % len(_JOIN2_BALANCES)]
                joins2 += 1
                yield template, "auto", (
                    "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total"
                    " FROM customer, orders WHERE c_custkey = o_custkey"
                    f" AND c_acctbal > {balance} GROUP BY c_mktsegment"
                )
            elif template == "join3":
                region = _JOIN3_REGIONS[joins3 % len(_JOIN3_REGIONS)]
                joins3 += 1
                yield template, "auto", (
                    "SELECT n_name, COUNT(*) AS n, SUM(s_acctbal) AS balance"
                    " FROM supplier, nation, region"
                    " WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey"
                    f" AND r_name = '{region}' GROUP BY n_name"
                )
            else:
                raise ValueError(f"unknown template {template!r}")


WORKLOADS = {
    w.name: w
    for w in (TpchPushdown, TpchBaseline, PaperStrategies, RepeatSession)
}
