-- TPC-H Q7: volume shipping.
-- Adaptation: no table aliases, so the second nation instance is the
-- prefixed aux copy nation2 (n2_*).
SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue
FROM (SELECT n_name AS supp_nation,
             n2_name AS cust_nation,
             CAST(SUBSTR(l_shipdate, 1, 4) AS INT) AS l_year,
             l_extendedprice * (1 - l_discount) AS volume
      FROM supplier, lineitem, orders, customer, nation, nation2
      WHERE s_suppkey = l_suppkey
        AND o_orderkey = l_orderkey
        AND c_custkey = o_custkey
        AND s_nationkey = n_nationkey
        AND c_nationkey = n2_nationkey
        AND ((n_name = 'FRANCE' AND n2_name = 'GERMANY')
             OR (n_name = 'GERMANY' AND n2_name = 'FRANCE'))
        AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31') AS shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
