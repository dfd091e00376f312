"""Figure 3: join strategies vs orders-table selectivity.

Customer filter fixed at ``c_acctbal <= -950``, Bloom FPR at 0.01;
``o_orderdate < d`` swept from '1992-03-01' (few orders) to None (all).
"""

from repro.experiments.fig02_join_customer import join_strategies, join_sweep
from repro.experiments.fig02_join_customer import make_join_query
from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, Sweep, runner

DEFAULT_DATES = ("1992-03-01", "1992-06-01", "1993-01-01", "1994-01-01", "1995-01-01", None)


def sweep(scale_factor: float = 0.01, dates: tuple = DEFAULT_DATES, acctbal: float = -950,
          fpr: float = 0.01, paper_bytes: float = PAPER_TPCH_BYTES) -> Sweep:
    return join_sweep(
        "fig3", "Join strategies vs orders selectivity (o_orderdate < d)",
        "upper_o_orderdate", scale_factor, paper_bytes,
        lambda ctx, catalog, _: (
            (d or "None", make_join_query(acctbal, d), join_strategies(fpr)) for d in dates
        ),
        notes={"scale_factor": scale_factor, "paper_scale": None,
               "upper_c_acctbal": acctbal},
        claims=CLAIMS,
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig3", "Filtered beats baseline while selective, then slows toward it",
          lambda r: (r.column("filtered"), r.column("baseline")[0]),
          lambda v: v[0][0] < v[1] and v[0][-1] > v[0][0]),
    Claim("fig3", "Bloom stays fast and flat: within 10%, under baseline everywhere",
          lambda r: (r.column("bloom"), r.column("baseline")),
          lambda v: max(v[0]) < min(1.1 * min(v[0]), min(v[1]))),
)
