-- TPC-H Q8: national market share.
-- Adaptations: no table aliases (second nation instance is the aux copy
-- nation2); EXTRACT(YEAR ...) is spelled CAST(SUBSTR(date, 1, 4) AS INT).
SELECT o_year,
       SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END)
         / SUM(volume) AS mkt_share
FROM (SELECT CAST(SUBSTR(o_orderdate, 1, 4) AS INT) AS o_year,
             l_extendedprice * (1 - l_discount) AS volume,
             n2_name AS nation
      FROM part, supplier, lineitem, orders, customer, nation, nation2, region
      WHERE p_partkey = l_partkey
        AND s_suppkey = l_suppkey
        AND l_orderkey = o_orderkey
        AND o_custkey = c_custkey
        AND c_nationkey = n_nationkey
        AND n_regionkey = r_regionkey
        AND r_name = 'AMERICA'
        AND s_nationkey = n2_nationkey
        AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
        AND p_type = 'ECONOMY ANODIZED STEEL') AS all_nations
GROUP BY o_year
ORDER BY o_year
