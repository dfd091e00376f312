"""Figure 2: join strategies vs customer-table selectivity.

The Section V query ``SELECT SUM(O_TOTALPRICE) FROM CUSTOMER, ORDERS
WHERE O_CUSTKEY = C_CUSTKEY AND C_ACCTBAL <= <v>``, ``v`` swept from -950
(very selective) to -450.  Its customer ⋈ orders dataset and strategies
serve Figures 3 and 4 too.
"""

from functools import partial
from operator import truediv

from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, Sweep, paper_scale, runner
from repro.queries.common import items
from repro.queries.dataset import load_tpch
from repro.sqlparser.parser import parse_expression
from repro.strategies.join import JoinQuery, baseline_join, bloom_join, filtered_join

DEFAULT_ACCTBALS = (-950, -850, -750, -650, -550, -450)
DEFAULT_FPR = 0.01


def make_join_query(upper_c_acctbal: float | None,
                    upper_o_orderdate: str | None) -> JoinQuery:
    """The Section V evaluation query with its two swept parameters."""
    return JoinQuery(
        build_table="customer", probe_table="orders",
        build_key="c_custkey", probe_key="o_custkey",
        build_predicate=None if upper_c_acctbal is None
        else parse_expression(f"c_acctbal <= {upper_c_acctbal}"),
        probe_predicate=None if upper_o_orderdate is None
        else parse_expression(f"o_orderdate < '{upper_o_orderdate}'"),
        build_projection=["c_custkey"], probe_projection=["o_custkey", "o_totalprice"],
        output=items("SUM(o_totalprice) AS total"),
    )


def join_sweep(experiment, title, axis, scale_factor, paper_bytes, cases, **declared):
    """A sweep over customer ⋈ orders, calibrated as their ~2 GB share of
    the paper's 10 GB dataset."""
    def load(ctx, catalog, _):
        load_tpch(ctx, catalog, scale_factor, tables=("customer", "orders"))
        return paper_scale(ctx, catalog, ["customer", "orders"], paper_bytes * 0.2)
    return Sweep(experiment, title, axis, load, cases, **declared)


def join_strategies(fpr: float) -> dict:
    return {"baseline": baseline_join, "filtered": filtered_join,
            "bloom": partial(bloom_join, fpr=fpr)}


def sweep(scale_factor: float = 0.01, acctbals: tuple = DEFAULT_ACCTBALS,
          fpr: float = DEFAULT_FPR, paper_bytes: float = PAPER_TPCH_BYTES) -> Sweep:
    return join_sweep(
        "fig2", "Join strategies vs customer selectivity (c_acctbal <= v)",
        "upper_c_acctbal", scale_factor, paper_bytes,
        lambda ctx, catalog, _: (
            (v, make_join_query(v, None), join_strategies(fpr)) for v in acctbals),
        notes={"scale_factor": scale_factor, "paper_scale": None, "fpr": fpr},
        extras=lambda ex: {"achieved_fpr": ex.report.extras.get("achieved_fpr", "")},
        claims=CLAIMS,
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig2", "Selective: Bloom fastest; filtered within 1.2x of baseline",
          lambda r: {row["strategy"]: row["runtime_s"] for row in r.rows[:3]},
          lambda t: t["bloom"] < t["filtered"] <= t["baseline"] * 1.2),
    Claim("fig2", "Baseline and filtered are flat (within 5%): both load all orders",
          lambda r: [r.column(s) for s in ("baseline", "filtered")],
          lambda series: all(max(t) < 1.05 * min(t) for t in series)),
    Claim("fig2", "Bloom beats filtered everywhere (the paper's converges toward"
          " filtered as the filter opens up; ours stays near 0.39x through -450)",
          lambda r: max(map(truediv, r.column("bloom"), r.column("filtered"))),
          lambda ratio: ratio < 1),
)
