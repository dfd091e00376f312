-- TPC-H Q9: product type profit measure.
-- Adaptations: p_name LIKE '%blue%' (the generator's part-name corpus is
-- a color-word vocabulary; the spec's '%green%' is not in it);
-- EXTRACT(YEAR ...) is spelled CAST(SUBSTR(date, 1, 4) AS INT).
SELECT nation, o_year, SUM(amount) AS sum_profit
FROM (SELECT n_name AS nation,
             CAST(SUBSTR(o_orderdate, 1, 4) AS INT) AS o_year,
             l_extendedprice * (1 - l_discount)
               - ps_supplycost * l_quantity AS amount
      FROM part, supplier, lineitem, partsupp, orders, nation
      WHERE s_suppkey = l_suppkey
        AND ps_suppkey = l_suppkey
        AND ps_partkey = l_partkey
        AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey
        AND s_nationkey = n_nationkey
        AND p_name LIKE '%blue%') AS profit
GROUP BY nation, o_year
ORDER BY nation, o_year DESC
