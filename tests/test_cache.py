"""Semantic result cache: implication proofs, reuse tiers, invalidation.

The cache's contract is one-sided like the pruner's: it may miss a
reuse it could have proven, but a served answer must be row-identical
to a cold execution.  The unit tests pin the predicate-implication
engine's edge cases; the integration tests run the same SQL through
cache-enabled and cache-free sessions and require identical rows with
strictly fewer metered requests on every warm tier, plus stale-read
differentials across a table reload.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.context import CloudContext
from repro.engine.batch import Batch
from repro.optimizer.cache import SemanticCache, _batch_bytes, _value_bytes
from repro.optimizer.pruning import predicate_implies
from repro.planner.database import PushdownDB
from repro.sqlparser.parser import parse_expression
from repro.storage.schema import TableSchema
from repro.workloads.synthetic import FILTER_SCHEMA, clustered_filter_table

CACHE_BYTES = 64 << 20


class _Text(str):
    """A ``str`` subclass: sized per value, like any text."""


_CACHED_TEXT = st.text(max_size=4)
_CACHED_NUMBER = st.one_of(st.booleans(), st.integers(), st.floats())
#: Batch columns: all text, all numbers, or anything mixed with NULLs
#: and text subclasses.
_CACHED_COLUMN = st.one_of(
    st.lists(_CACHED_TEXT, max_size=12),
    st.lists(_CACHED_NUMBER, max_size=12),
    st.lists(
        st.one_of(st.none(), _CACHED_NUMBER, _CACHED_TEXT, _CACHED_TEXT.map(_Text)),
        max_size=12,
    ),
)


def _pred(sql: str):
    return parse_expression(sql)


class TestPredicateImplies:
    """Soundness and usefulness of the subsumption proof."""

    @pytest.mark.parametrize(
        "new, cached",
        [
            ("key < 100", "key < 200"),
            ("key < 100", "key <= 100"),
            ("key <= 99", "key < 100"),
            ("key > 50", "key >= 50"),
            ("key = 42", "key < 100"),
            ("key = 42", "key <> 41"),
            ("key BETWEEN 10 AND 20", "key >= 5 AND key <= 25"),
            ("key IN (3, 5, 7)", "key <= 7"),
            ("key < 100 AND p0 < 2.5", "key < 100"),
            ("key < 50 AND p0 < 1.0", "key < 200 AND p0 < 2.0"),
            ("key < 100", "key IS NOT NULL"),
            ("key < 100", "key < 100.5"),
            ("tag = 'm'", "tag >= 'a'"),
        ],
    )
    def test_implied(self, new, cached):
        assert predicate_implies(_pred(new), _pred(cached))

    @pytest.mark.parametrize(
        "new, cached",
        [
            ("key < 200", "key < 100"),
            ("key < 100", "key < 100 AND p0 < 2.5"),
            ("key <= 100", "key < 100"),
            ("key = 42", "key <> 42"),
            ("key < 100", "key IS NULL"),
            ("key < 100 OR p0 < 1.0", "key < 100"),
            ("p0 < 1.0", "key < 100"),
            ("tag LIKE 'a%'", "tag >= 'a'"),
            ("key <> 5", "key < 100"),
        ],
    )
    def test_not_implied(self, new, cached):
        assert not predicate_implies(_pred(new), _pred(cached))

    def test_none_predicates(self):
        # A cached full scan holds every row: anything is implied by it.
        assert predicate_implies(_pred("key < 10"), None)
        assert predicate_implies(None, None)
        # An unfiltered new scan wants every row: only a full cached
        # scan can serve it.
        assert not predicate_implies(None, _pred("key < 10"))


class TestSemanticCacheUnit:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            SemanticCache(-1)

    def test_lru_eviction_under_budget(self):
        batch = Batch.from_rows([(i, float(i)) for i in range(100)])
        probe = SemanticCache(1 << 20)
        probe.store_scan("probe", None, ["k", "v"], [batch])
        one_entry = probe.current_bytes
        # Budget only fits two entries: storing a third evicts the
        # least-recently-used one ("a", never looked up again).
        cache = SemanticCache(int(2.5 * one_entry))
        for name in ("a", "b"):
            assert cache.store_scan(name, None, ["k", "v"], [batch])
        assert cache.store_scan("c", None, ["k", "v"], [batch])
        assert cache.stats.evictions == 1
        assert cache.peek_scan("a", None, ["k"]) is None
        assert cache.peek_scan("b", None, ["k"]) == "hit"
        assert cache.peek_scan("c", None, ["k"]) == "hit"

    def test_oversized_entry_rejected(self):
        batch = Batch.from_rows([(i, float(i)) for i in range(100)])
        cache = SemanticCache(64)
        assert not cache.store_scan("a", None, ["k", "v"], [batch])
        assert len(cache) == 0

    def test_projection_subset_and_column_gate(self):
        batch = Batch.from_rows([(1, 2.0), (2, 4.0)])
        cache = SemanticCache(CACHE_BYTES)
        cache.store_scan("t", _pred("k < 10"), ["k", "v"], [batch])
        reuse = cache.lookup_scan("t", _pred("k < 10"), ["v"])
        assert reuse.status == "hit"
        assert [list(b) for b in reuse.batches] == [[(2.0,), (4.0,)]]
        # A projection the entry does not cover cannot be served.
        assert cache.peek_scan("t", _pred("k < 10"), ["v", "w"]) is None
        # Nor a subsumed predicate over a column the entry lacks.
        assert cache.peek_scan("t", _pred("k < 5 AND w = 1"), ["k"]) is None

    def test_peek_matches_a_pending_store(self):
        """A scan an earlier leg of the query will store matches the cost
        model's peek as a stored entry does, and changes nothing."""
        cache = SemanticCache(CACHE_BYTES)
        pending = (("t", _pred("k < 10"), ["k", "v"]),)
        assert cache.peek_scan("t", _pred("k < 10"), ["v"], pending) == "hit"
        assert cache.peek_scan("t", _pred("k < 5"), ["v"], pending) == "subsumed"
        assert cache.peek_scan("t", _pred("k < 10"), ["w"], pending) is None
        assert cache.peek_scan("u", _pred("k < 10"), ["v"], pending) is None
        assert len(cache) == 0 and cache.stats.misses == 0

    @given(st.lists(_CACHED_COLUMN, min_size=1, max_size=4))
    def test_entry_size_is_the_per_value_sum(self, columns):
        """One type dispatch per column sizes an entry to the byte the
        per-value rule gives, so eviction order cannot move."""
        rows = max(map(len, columns))
        columns = [(c * rows)[:rows] if c else [None] * rows for c in columns]
        batches = [Batch(columns, rows), Batch([c[:1] for c in columns], min(rows, 1))]
        per_value = sum(
            64 + sum(64 + sum(map(_value_bytes, c)) for c in b.columns) for b in batches
        )
        assert _batch_bytes(batches) == per_value

    def test_invalidate_table_scopes_by_name(self):
        batch = Batch.from_rows([(1,)])
        cache = SemanticCache(CACHE_BYTES)
        cache.store_scan("t", None, ["k"], [batch])
        cache.store_scan("u", None, ["k"], [batch])
        assert cache.invalidate_table("t") == 1
        assert cache.peek_scan("t", None, ["k"]) is None
        assert cache.peek_scan("u", None, ["k"]) == "hit"
        assert cache.stats.invalidations == 1


def _session(cache_bytes: int = CACHE_BYTES, rows=None) -> PushdownDB:
    db = PushdownDB(bucket="cachetest", cache_bytes=cache_bytes)
    db.load_table(
        "fx",
        rows if rows is not None else clustered_filter_table(2_000, seed=7),
        FILTER_SCHEMA,
        partitions=8,
    )
    return db


class TestCachedExecution:
    def test_exact_hit_zero_requests_identical_rows(self):
        db = _session()
        sql = "SELECT key, p0 FROM fx WHERE key < 1000"
        cold = db.execute(sql, mode="optimized")
        warm = db.execute(sql, mode="optimized")
        assert warm.rows == cold.rows
        assert cold.num_requests > 0 and warm.num_requests == 0
        assert warm.bytes_scanned == 0 and warm.bytes_returned == 0
        assert warm.cost.total < cold.cost.total
        assert warm.report.cache.hit == 1
        assert cold.report.cache.miss == 1
        assert cold.report.cache.stores == 1
        assert "cache: hit" in warm.report.plan
        assert "cache: miss" in cold.report.plan

    def test_subsumed_replay_matches_fresh_session(self):
        db = _session()
        db.execute("SELECT key, p0 FROM fx WHERE key < 1500", mode="optimized")
        narrow = "SELECT key, p0 FROM fx WHERE key < 700"
        replay = db.execute(narrow, mode="optimized")
        assert replay.num_requests == 0
        assert replay.report.cache.subsumed == 1
        assert "cache: subsumed" in replay.report.plan
        reference = _session().execute(narrow, mode="optimized")
        assert replay.rows == reference.rows

    def test_entry_layout_follows_how_the_scan_was_drained(self):
        """A streamed scan stores the batches it yielded; a scan drained
        at a join (the hash-build side) stores its rows as one batch.
        Entries are sized per batch, so eviction order rests on this."""
        db = PushdownDB(bucket="cachetest", cache_bytes=CACHE_BYTES, batch_size=100)
        db.load_table(
            "fx", clustered_filter_table(2_000, seed=7), FILTER_SCHEMA, partitions=8
        )
        db.load_table(
            "fy", [(k, float(k)) for k in range(0, 2_000, 10)],
            TableSchema.of("y_k:int", "y_v:float"), partitions=8,
        )
        streamed = db.execute("SELECT key FROM fx WHERE key < 1000", mode="optimized")
        joined = db.execute(
            "SELECT key, y_v FROM fy, fx WHERE y_k = key AND y_k < 500",
            mode="optimized",
        )
        assert "build: scan fy [select]" in joined.report.plan
        assert streamed.report.cache.stores == joined.report.cache.stores == 1
        batches = db.cache.lookup_scan("fx", _pred("key < 1000"), ["key"]).batches
        assert len(batches) == -(-len(streamed.rows) // 100) > 1
        (batch,) = db.cache.lookup_scan("fy", _pred("y_k < 500"), ["y_k"]).batches
        assert len(batch) == 50

    def test_wider_predicate_is_not_subsumed(self):
        db = _session()
        db.execute("SELECT key, p0 FROM fx WHERE key < 700", mode="optimized")
        wider = db.execute(
            "SELECT key, p0 FROM fx WHERE key < 1500", mode="optimized"
        )
        assert wider.num_requests > 0
        assert wider.report.cache.miss == 1

    def test_aggregate_partials_recombine(self):
        db = _session()
        sql = "SELECT SUM(p0) AS s, COUNT(*) AS n FROM fx WHERE key < 800"
        cold = db.execute(sql, mode="optimized")
        warm = db.execute(sql, mode="optimized")
        assert warm.rows == cold.rows
        assert warm.num_requests == 0
        assert warm.report.cache.hit == 1
        # A subset/permutation of the cached items recombines too.
        subset = db.execute(
            "SELECT COUNT(*) FROM fx WHERE key < 800", mode="optimized"
        )
        assert subset.num_requests == 0
        assert subset.rows == [(cold.rows[0][1],)]

    @pytest.mark.parametrize("spelling", ["fx", "FX"])
    def test_reload_evicts_stale_results(self, spelling):
        """A reload in any spelling keeps the catalog's name, so the
        cache (which compares names exactly) drops what it derived."""
        old_rows = clustered_filter_table(2_000, seed=7)
        new_rows = clustered_filter_table(2_000, seed=11)
        db = _session(rows=old_rows)
        sql = "SELECT key, p0 FROM fx WHERE key < 900"
        stale = db.execute(sql, mode="optimized")
        db.load_table(spelling, new_rows, FILTER_SCHEMA, partitions=8)
        assert db.table_names() == ["fx"]
        refreshed = db.execute(sql, mode="optimized")
        fresh = _session(rows=new_rows).execute(sql, mode="optimized")
        assert refreshed.rows == fresh.rows
        assert refreshed.num_requests > 0
        assert refreshed.rows != stale.rows

    def test_cold_run_byte_identical_to_cache_free_session(self):
        sql = "SELECT key, p0 FROM fx WHERE key < 500"
        enabled = _session().execute(sql, mode="optimized")
        disabled = _session(cache_bytes=0).execute(sql, mode="optimized")
        assert enabled.rows == disabled.rows
        assert enabled.num_requests == disabled.num_requests
        assert enabled.bytes_scanned == disabled.bytes_scanned
        assert enabled.bytes_returned == disabled.bytes_returned
        assert enabled.runtime_seconds == disabled.runtime_seconds
        assert enabled.cost.total == disabled.cost.total

    def test_cache_bytes_zero_disables_cleanly(self):
        db = _session(cache_bytes=0)
        assert db.cache is None and db.ctx.result_cache is None
        sql = "SELECT key, p0 FROM fx WHERE key < 1000"
        first = db.execute(sql, mode="optimized")
        second = db.execute(sql, mode="optimized")
        assert second.num_requests == first.num_requests > 0
        assert second.report.cache is None
        assert "cache:" not in second.report.plan

    def test_reset_cache_forces_cold_runs(self):
        db = _session()
        sql = "SELECT key, p0 FROM fx WHERE key < 1000"
        cold = db.execute(sql, mode="optimized")
        db.reset_cache()
        recold = db.execute(sql, mode="optimized")
        assert recold.num_requests == cold.num_requests > 0

    def test_warm_chooser_prefers_cached_plan(self):
        db = _session()
        sql = "SELECT key, p0 FROM fx WHERE key < 1800"
        db.execute(sql, mode="optimized")
        auto = db.execute(sql, mode="auto")
        assert auto.num_requests == 0
        picked = auto.report.optimizer["picked"]
        assert picked == "optimized"

    def test_negative_cache_bytes_rejected(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            CloudContext(cache_bytes=-1)
        with pytest.raises(ValueError, match="cache_bytes"):
            PushdownDB(cache_bytes=-1)

    def test_cli_rejects_negative_cache_bytes(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "SELECT 1", "--cache-bytes", "-1"]
            )

