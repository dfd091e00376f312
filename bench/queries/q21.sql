-- TPC-H Q21: suppliers who kept orders waiting (EXISTS and NOT EXISTS
-- with non-equality correlated residuals).
-- Adaptation: no table aliases, so the spec's l2/l3 lineitem instances
-- are the prefixed aux copies lineitem2 (l2_*) and lineitem3 (l3_*).
SELECT s_name, COUNT(*) AS numwait
FROM supplier, lineitem, orders, nation
WHERE s_suppkey = l_suppkey
  AND o_orderkey = l_orderkey
  AND o_orderstatus = 'F'
  AND l_receiptdate > l_commitdate
  AND EXISTS (SELECT 1 FROM lineitem2
              WHERE l2_orderkey = l_orderkey
                AND l2_suppkey <> l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem3
                  WHERE l3_orderkey = l_orderkey
                    AND l3_suppkey <> l_suppkey
                    AND l3_receiptdate > l3_commitdate)
  AND s_nationkey = n_nationkey
  AND n_name = 'SAUDI ARABIA'
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
