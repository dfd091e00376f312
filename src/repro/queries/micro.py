"""The four micro-operator queries of Figure 10 (green-shaded bars).

Each pairs the relevant baseline with the paper's best pushdown variant:

* **filter** — a moderately selective lineitem scan;
* **group-by** — S3-side group-by over ``l_returnflag`` aggregates;
* **top-k** — K=100 over ``l_extendedprice`` with sampling;
* **join** — the Section V synthetic customer ⋈ orders query at the
  default parameters (``c_acctbal <= -950``, no orders filter).
"""

from __future__ import annotations

from functools import partial

from repro.queries.common import items
from repro.queries.tpch_queries import QueryVariants
from repro.sqlparser.parser import parse_expression
from repro.strategies.filter import FilterQuery, s3_side_filter, server_side_filter
from repro.strategies.groupby import (
    AggSpec,
    GroupByQuery,
    s3_side_group_by,
    server_side_group_by,
)
from repro.strategies.join import JoinQuery, baseline_join, bloom_join
from repro.strategies.topk import TopKQuery, sampling_top_k, server_side_top_k

_FILTER_QUERY = FilterQuery(
    table="lineitem",
    predicate=parse_expression("l_shipdate < '1992-03-01'"),
    projection=["l_orderkey", "l_extendedprice", "l_shipdate"],
)

_GROUPBY_QUERY = GroupByQuery(
    table="lineitem",
    group_columns=["l_returnflag"],
    aggregates=[
        AggSpec("sum", "l_quantity", "sum_qty"),
        AggSpec("sum", "l_extendedprice", "sum_price"),
    ],
)

_TOPK_QUERY = TopKQuery(table="lineitem", order_column="l_extendedprice", k=100)

_JOIN_QUERY = JoinQuery(
    build_table="customer",
    probe_table="orders",
    build_key="c_custkey",
    probe_key="o_custkey",
    build_predicate=parse_expression("c_acctbal <= -950"),
    build_projection=["c_custkey"],
    probe_projection=["o_custkey", "o_totalprice"],
    output=items("SUM(o_totalprice) AS total"),
)


MICRO_QUERIES: dict[str, QueryVariants] = {
    "filter": QueryVariants(
        "filter",
        partial(server_side_filter, query=_FILTER_QUERY),
        partial(s3_side_filter, query=_FILTER_QUERY),
    ),
    "group-by": QueryVariants(
        "group-by",
        partial(server_side_group_by, query=_GROUPBY_QUERY),
        partial(s3_side_group_by, query=_GROUPBY_QUERY),
    ),
    "top-k": QueryVariants(
        "top-k",
        partial(server_side_top_k, query=_TOPK_QUERY),
        partial(sampling_top_k, query=_TOPK_QUERY),
    ),
    "join": QueryVariants(
        "join",
        partial(baseline_join, query=_JOIN_QUERY),
        partial(bloom_join, query=_JOIN_QUERY),
    ),
}
