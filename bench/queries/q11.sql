-- TPC-H Q11: important stock identification (HAVING over an
-- uncorrelated scalar subquery).
SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey
  AND s_nationkey = n_nationkey
  AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING SUM(ps_supplycost * ps_availqty) >
       (SELECT SUM(ps2_supplycost * ps2_availqty) * 0.0001
        FROM partsupp2, supplier2, nation2
        WHERE ps2_suppkey = s2_suppkey
          AND s2_nationkey = n2_nationkey
          AND n2_name = 'GERMANY')
ORDER BY value DESC
