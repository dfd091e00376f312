-- TPC-H Q2: minimum-cost supplier.
-- Adaptation: the dialect has no table aliases, so the correlated
-- MIN(ps_supplycost) subquery reads the prefixed aux copies partsupp2 /
-- supplier2 / nation2 / region2 instead of re-aliasing the base tables.
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr,
       s_address, s_phone, s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey
  AND s_suppkey = ps_suppkey
  AND p_size = 15
  AND p_type LIKE '%BRASS'
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (SELECT MIN(ps2_supplycost)
                       FROM partsupp2, supplier2, nation2, region2
                       WHERE p_partkey = ps2_partkey
                         AND s2_suppkey = ps2_suppkey
                         AND s2_nationkey = n2_nationkey
                         AND n2_regionkey = r2_regionkey
                         AND r2_name = 'EUROPE')
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100
