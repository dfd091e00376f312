"""Figure 4: Bloom join vs the filter's false-positive rate.

Customer filter at -950, orders unfiltered.  A low FPR costs a large bit
array and many hashes per row; a high one lets more orders rows through.
Baseline and filtered join are the flat references (``fpr = "-"``).
"""

from functools import partial

from repro.experiments.fig02_join_customer import join_sweep, make_join_query
from repro.experiments.harness import PAPER_TPCH_BYTES, Claim, Sweep, runner
from repro.strategies.join import baseline_join, bloom_join, filtered_join

DEFAULT_FPRS = (0.0001, 0.001, 0.01, 0.1, 0.3, 0.5)
BLOOM_DETAILS = ("bloom_bits", "bloom_hashes", "probe_rows_returned")


def sweep(scale_factor: float = 0.01, fprs: tuple = DEFAULT_FPRS, acctbal: float = -950,
          paper_bytes: float = PAPER_TPCH_BYTES) -> Sweep:
    def cases(ctx, catalog, _):
        query = make_join_query(acctbal, None)
        yield "-", query, {"baseline": baseline_join, "filtered": filtered_join}
        for fpr in fprs:
            yield fpr, query, {"bloom": partial(bloom_join, fpr=fpr)}

    return join_sweep(
        "fig4", "Bloom join vs false-positive rate", "fpr", scale_factor, paper_bytes,
        cases, claims=CLAIMS,
        notes={"scale_factor": scale_factor, "paper_scale": None,
               "upper_c_acctbal": acctbal},
        extras=lambda ex: {
            k: ex.report.extras[k] for k in BLOOM_DETAILS if k in ex.report.extras
        },
    )


run = runner(sweep)

CLAIMS = (
    Claim("fig4", "A lower FPR costs more hashes; a higher one lets more rows by",
          lambda r: [r.column("bloom", k) for k in ("bloom_hashes", "probe_rows_returned")],
          lambda v: v[0][0] > v[0][-1] and v[1][0] < v[1][-1]),
    Claim("fig4", "Runtime is U-shaped in the FPR, lowest within 0.001-0.3: the paper's"
          " sweet spot is 0.01, ours lands at 0.1-0.3, where fewer hash functions"
          " still outweigh the extra false positives",
          lambda r: list(zip(r.column("bloom"), r.column("bloom", "fpr"))),
          lambda p: 0.001 <= min(p)[1] <= 0.3 and min(p)[0] < max(p[0][0], p[-1][0])),
)
