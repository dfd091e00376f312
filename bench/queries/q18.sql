-- TPC-H Q18: large volume customer (IN over a grouped+HAVING subquery).
-- Adaptation: the quantity threshold is 250 instead of the spec's
-- 300-315 band so the reduced-scale generator yields a non-empty
-- answer (line counts cap at 7 per order).
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       SUM(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey
                     HAVING SUM(l_quantity) > 250)
  AND c_custkey = o_custkey
  AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100
