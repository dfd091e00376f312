-- TPC-H Q22: global sales opportunity (derived table whose body carries
-- an uncorrelated scalar subquery and a NOT EXISTS anti join).
-- Adaptation: country codes are drawn from the generator's phone format
-- (10 + nationkey), so the IN list uses codes in that 10..34 range.
SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
FROM (SELECT SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal
      FROM customer
      WHERE SUBSTR(c_phone, 1, 2) IN ('13', '17', '18', '23', '29', '30', '31')
        AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                         WHERE c_acctbal > 0.00
                           AND SUBSTR(c_phone, 1, 2)
                               IN ('13', '17', '18', '23', '29', '30', '31'))
        AND NOT EXISTS (SELECT 1 FROM orders
                        WHERE o_custkey = c_custkey)) AS custsale
GROUP BY cntrycode
ORDER BY cntrycode
