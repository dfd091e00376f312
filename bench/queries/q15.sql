-- TPC-H Q15: top supplier.
-- Adaptation: the revenue view is inlined — the HAVING clause compares
-- against MAX over the same per-supplier aggregation as a derived
-- table.  Revenues are ROUNDed on both sides so the equality is immune
-- to float summation order (different plans sum in different orders).
SELECT s_suppkey, s_name, s_address, s_phone,
       SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM supplier, lineitem
WHERE s_suppkey = l_suppkey
  AND l_shipdate >= DATE '1996-01-01'
  AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
GROUP BY s_suppkey, s_name, s_address, s_phone
HAVING ROUND(SUM(l_extendedprice * (1 - l_discount))) =
       (SELECT MAX(ROUND(total_revenue))
        FROM (SELECT SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
              FROM lineitem
              WHERE l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
              GROUP BY l_suppkey) AS revenue0)
ORDER BY s_suppkey
