#!/usr/bin/env python3
"""Sampling-based top-K and its analytic sample-size model (Section VII).

Demonstrates the two-phase algorithm on the lineitem table, sweeps the
sample size around the analytic optimum ``S* = sqrt(K*N/alpha)``, and
verifies the result against a plain server-side top-K.

Run:  python examples/topk_sampling.py
"""

from repro.cloud.context import CloudContext
from repro.common.units import human_bytes, human_seconds
from repro.engine.catalog import Catalog
from repro.queries.dataset import load_tpch
from repro.strategies.topk import (
    TopKQuery,
    optimal_sample_size,
    sampling_top_k,
    server_side_top_k,
)


def main() -> None:
    ctx, catalog = CloudContext(), Catalog()
    print("Loading lineitem (scale factor 0.01) ...")
    load_tpch(ctx, catalog, 0.01, tables=("lineitem",))
    table = catalog.get("lineitem")
    ctx.calibrate_to_paper_scale(table.total_bytes, 7.25e9)

    k = 100
    alpha = 1.0 / len(table.schema)
    optimum = optimal_sample_size(k, table.num_rows, alpha)
    print(f"N = {table.num_rows} rows, K = {k}, alpha ~ {alpha:.3f}")
    print(f"analytic optimum S* = sqrt(K*N/alpha) = {optimum}\n")

    query = TopKQuery(table="lineitem", order_column="l_extendedprice", k=k)

    reference = server_side_top_k(ctx, catalog, query)
    print(f"server-side top-K: {human_seconds(reference.runtime_seconds)}, "
          f"moved {human_bytes(reference.bytes_transferred)}\n")

    print(f"  {'sample S':>9}  {'phase1':>8}  {'phase2':>8}  {'total':>8}"
          f"  {'phase2 rows':>11}  {'bytes moved':>11}  correct")
    price_idx = table.schema.index_of("l_extendedprice")
    expected = [r[price_idx] for r in reference.rows]
    for factor in (0.05, 0.2, 1.0, 4.0, 16.0):
        sample_size = max(k, int(optimum * factor))
        execution = sampling_top_k(ctx, catalog, query, sample_size=sample_size)
        correct = [r[price_idx] for r in execution.rows] == expected
        print(f"  {sample_size:>9}"
              f"  {human_seconds(execution.report.extras['sample_seconds']):>8}"
              f"  {human_seconds(execution.report.extras['scan_seconds']):>8}"
              f"  {human_seconds(execution.runtime_seconds):>8}"
              f"  {execution.report.extras['phase2_rows']:>11}"
              f"  {human_bytes(execution.bytes_returned):>11}"
              f"  {correct}")

    print("\nSmall samples make phase 2 return lots of rows (loose"
          " threshold); big samples make phase 1 the bottleneck.  The"
          " analytic S* minimizes the bytes-moved column.")


if __name__ == "__main__":
    main()
