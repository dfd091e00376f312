"""Figure 9: server-side vs sampling top-K as K grows.

K swept over decades (paper: 1..1e5 on 60M rows); on our ~1000x smaller
tables the K/N fractions shift up (1 .. ~4% of the table), and fractions
a tiny table collapses run once.  Only the order key must agree (ties).
"""

from repro.experiments.harness import PAPER_LINEITEM_BYTES, Claim, Sweep, paper_scale
from repro.experiments.harness import runner
from repro.queries.dataset import load_tpch
from repro.strategies.topk import TopKQuery, sampling_top_k, server_side_top_k

DEFAULT_K_FRACTIONS = (1.7e-5, 1.7e-4, 1.7e-3, 8e-3, 4e-2)

STRATEGIES = {"server-side": server_side_top_k, "sampling": sampling_top_k}


def sweep(scale_factor: float = 0.01, k_fractions: tuple = DEFAULT_K_FRACTIONS,
          paper_bytes: float = PAPER_LINEITEM_BYTES) -> Sweep:
    def load(ctx, catalog, _):
        load_tpch(ctx, catalog, scale_factor, tables=("lineitem",))
        return {"num_rows": catalog.get("lineitem").num_rows,
                **paper_scale(ctx, catalog, ["lineitem"], paper_bytes)}

    def cases(ctx, catalog, _):
        n = catalog.get("lineitem").num_rows
        for k in dict.fromkeys(max(1, int(n * f)) for f in k_fractions):
            yield k, TopKQuery("lineitem", "l_extendedprice", k=k), STRATEGIES

    return Sweep("fig9", "Top-K strategies vs K", "k", load, cases,
                 compare=("l_extendedprice",), claims=CLAIMS)


run = runner(sweep)

CLAIMS = (
    Claim("fig9", "Sampling top-K is always faster and cheaper than server-side",
          lambda r: [(s["runtime_s"] / p["runtime_s"], s["cost_total"] / p["cost_total"])
                     for s, p in zip(r.series("server-side"), r.series("sampling"))],
          lambda ratios: min(map(min, ratios)) > 1),
    Claim("fig9", "Both strategies slow down as K grows",
          lambda r: [r.column(s) for s in STRATEGIES],
          lambda series: all(t[-1] >= t[0] for t in series)),
)
