-- TPC-H Q20: potential part promotion (nested IN + correlated scalar
-- with a two-column correlation key).
-- Adaptation: p_name LIKE 'a%' — the generator's part-name corpus is a
-- color-word vocabulary without the spec's 'forest' prefix.
SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (SELECT ps_suppkey FROM partsupp
                    WHERE ps_partkey IN (SELECT p_partkey FROM part
                                         WHERE p_name LIKE 'a%')
                      AND ps_availqty > 0.5 * (SELECT SUM(l_quantity)
                                               FROM lineitem
                                               WHERE l_partkey = ps_partkey
                                                 AND l_suppkey = ps_suppkey
                                                 AND l_shipdate >= DATE '1994-01-01'
                                                 AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR))
  AND s_nationkey = n_nationkey
  AND n_name = 'CANADA'
ORDER BY s_name
