-- TPC-H Q16: parts/supplier relationship (NOT IN -> NULL-aware anti
-- join, COUNT(DISTINCT ...)).
-- Adaptation: the excluded-supplier comment pattern is '%blue%' — the
-- generator's comment corpus is a color-word vocabulary, so the spec's
-- '%Customer%Complaints%' would never match.
SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey
  AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%'
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%blue%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
