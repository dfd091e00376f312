-- TPC-H Q13: customer distribution (LEFT OUTER JOIN inside a derived
-- table; COUNT(o_orderkey) skips the NULL pads).
-- Adaptation: the spec's o_comment NOT LIKE '%special%requests%' is
-- '%blue%almond%' here — the generator's comment corpus is a color-word
-- vocabulary, so the spec pattern would never match anything.
SELECT c_count, COUNT(*) AS custdist
FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
      FROM customer LEFT OUTER JOIN orders
        ON c_custkey = o_custkey
       AND o_comment NOT LIKE '%blue%almond%'
      GROUP BY c_custkey) AS c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
