"""Tests for Bloom filters: sizing formulas, SQL rendering, adaptation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import (
    BloomFilter,
    build_bloom_filter_within_limit,
    optimal_num_bits,
    optimal_num_hashes,
    predicted_bloom_pass,
)
from repro.bloom.universal_hash import (
    UNIVERSE_PRIME,
    is_prime,
    make_hash_family,
    next_prime,
)
from repro.engine.batch import Batch
from repro.expr.compiler import compile_predicate
from repro.expr.vector import compile_predicate_vector
from repro.sqlparser.ast import Column
from repro.sqlparser.parser import parse_expression


def listing_1(bloom, attr, cast_to_int=True, bits=None):
    """The paper's Listing 1 as hand-assembled text, the reference every
    rendered Bloom predicate must equal byte for byte."""
    key = f"CAST({attr} AS INT)" if cast_to_int else attr
    bits = bloom.bit_string() if bits is None else bits
    return " AND ".join(
        f"SUBSTRING('{bits}', (({h.a} * {key} + {h.b}) % {h.n}) % {h.m} + 1, 1) = '1'"
        for h in bloom.hashes
    )


class TestPrimes:
    def test_is_prime_basics(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_next_prime(self):
        assert next_prime(68) == 71
        assert next_prime(97) == 97
        assert next_prime(1) == 2

    def test_universe_prime_is_prime(self):
        assert is_prime(UNIVERSE_PRIME)


class TestSizingFormulas:
    """The paper's formulas: k = log2(1/p), m = s*|ln p|/(ln 2)^2."""

    def test_num_hashes_examples(self):
        assert optimal_num_hashes(0.01) == 7   # log2(100) = 6.64
        assert optimal_num_hashes(0.5) == 1
        assert optimal_num_hashes(0.0001) == 13

    def test_num_bits_formula(self):
        s, p = 1000, 0.01
        expected = math.ceil(s * abs(math.log(p)) / math.log(2) ** 2)
        assert optimal_num_bits(s, p) == expected

    def test_bits_grow_as_fpr_drops(self):
        assert optimal_num_bits(1000, 0.001) > optimal_num_bits(1000, 0.01)

    def test_invalid_fpr_rejected(self):
        for p in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                optimal_num_hashes(p)

    def test_minimums(self):
        assert optimal_num_bits(0, 0.5) == 1
        assert optimal_num_hashes(0.9) == 1


class TestHashFamily:
    def test_values_in_range(self):
        family = make_hash_family(5, 64, seed=1)
        for h in family:
            for x in (0, 1, 17, 10**9):
                assert 0 <= h.apply(x) < 64

    def test_deterministic_by_seed(self):
        a = make_hash_family(3, 64, seed=42)
        b = make_hash_family(3, 64, seed=42)
        assert a == b

    def test_sql_rendering_matches_apply(self):
        (h,) = make_hash_family(1, 68, seed=7)
        predicate = compile_predicate(
            parse_expression(f"{h.to_expr(Column('x')).to_sql()} = {h.apply(12345) + 1}"),
            {"x": 0},
        )
        assert predicate((12345,))


class TestBloomFilter:
    def test_no_false_negatives_small(self):
        bloom = BloomFilter.build(range(100), fpr=0.01, seed=1)
        assert all(bloom.might_contain(k) for k in range(100))

    def test_observed_fpr_near_target(self):
        keys = list(range(0, 5000, 5))
        bloom = BloomFilter.build(keys, fpr=0.01, seed=1)
        probes = [k for k in range(100_000, 120_000)]
        false_positives = sum(bloom.might_contain(k) for k in probes)
        assert false_positives / len(probes) < 0.05  # target 0.01, slack 5x

    def test_bit_string_is_zeros_and_ones(self):
        bloom = BloomFilter.build([1, 2, 3], fpr=0.1, seed=1)
        assert set(bloom.bit_string()) <= {"0", "1"}
        assert len(bloom.bit_string()) == bloom.num_bits

    def test_non_integer_key_rejected(self):
        bloom = BloomFilter.with_capacity(10, 0.1)
        with pytest.raises(TypeError):
            bloom.add("string-key")
        with pytest.raises(TypeError):
            bloom.add(True)

    def test_sql_predicate_shape(self):
        bloom = BloomFilter.build([5, 6], fpr=0.1, seed=1)
        sql = bloom.to_sql_predicate("o_custkey")
        assert sql.count("SUBSTRING(") == bloom.num_hashes
        assert "CAST(o_custkey AS INT)" in sql
        assert sql.count(" AND ") == bloom.num_hashes - 1

    def test_sql_predicate_agrees_with_might_contain(self):
        """The rendered SQL, run through the expression compiler, must
        classify keys exactly like the in-memory filter."""
        bloom = BloomFilter.build([3, 17, 91], fpr=0.05, seed=2)
        predicate = compile_predicate(
            parse_expression(bloom.to_sql_predicate("k", cast_to_int=False)),
            {"k": 0},
        )
        for key in list(range(200)) + [10**6, 10**7 + 3]:
            assert predicate((key,)) == bloom.might_contain(key), key


class TestLimitAdaptation:
    """Section V-B1: degrade FPR until the SQL fits, else no filter."""

    def test_fits_first_try(self):
        outcome = build_bloom_filter_within_limit(
            list(range(100)), 0.01, "k", seed=1
        )
        assert outcome.bloom is not None
        assert outcome.achieved_fpr == 0.01
        assert outcome.attempts == [0.01]

    def test_degrades_fpr_under_tight_limit(self):
        keys = list(range(2000))
        outcome = build_bloom_filter_within_limit(
            keys, 0.0001, "k", limit_bytes=40_000, seed=1
        )
        assert outcome.bloom is not None
        assert outcome.achieved_fpr > 0.0001
        assert len(outcome.attempts) > 1

    def test_falls_back_to_none_when_nothing_fits(self):
        keys = list(range(5000))
        outcome = build_bloom_filter_within_limit(
            keys, 0.01, "k", limit_bytes=500, seed=1
        )
        assert outcome.bloom is None
        assert outcome.achieved_fpr == 1.0

    def test_overhead_counts_against_limit(self):
        keys = list(range(500))
        free = build_bloom_filter_within_limit(
            keys, 0.01, "k", sql_overhead_bytes=0, limit_bytes=8000, seed=1
        )
        cramped = build_bloom_filter_within_limit(
            keys, 0.01, "k", sql_overhead_bytes=7500, limit_bytes=8000, seed=1
        )
        assert free.achieved_fpr <= cramped.achieved_fpr
        assert len(cramped.attempts) >= len(free.attempts)

    @staticmethod
    def reference_ladder(keys, target_fpr, attr, budget, seed):
        """The ladder as first written: every rung filled and rendered,
        bit by bit, only to take the length of its SQL."""
        attempts, fpr = [], target_fpr
        while True:
            fpr = min(fpr, 0.9)
            attempts.append(fpr)
            bloom = BloomFilter.build(keys, fpr, seed)
            bits = "".join("1" if b else "0" for b in bloom.bits)
            sql = listing_1(bloom, attr, bits=bits)
            if len(sql.encode()) <= budget:
                return attempts, fpr, sql
            if fpr == 0.9:
                return attempts, 1.0, None
            fpr *= 10.0

    @pytest.mark.parametrize(
        "limit_bytes, rungs", [(500_000, 1), (100_000, 3), (43_449, 3), (43_448, 4), (500, 4)]
    )
    def test_rungs_are_weighed_empty_with_identical_outcome(self, limit_bytes, rungs):
        """Sizing a rung from ``m`` and the hash texts alone changes nothing
        observable: attempts, achieved FPR and the SQL are byte-identical
        to filling and rendering every rung — a ladder that fits at once,
        two that degrade twice (one landing exactly on the budget), one
        that takes the last rung and one that gives up."""
        keys = list(range(0, 9000, 3))
        attempts, fpr, sql = self.reference_ladder(keys, 0.001, "l_ordérkey", limit_bytes, 7)
        outcome = build_bloom_filter_within_limit(
            keys, 0.001, "l_ordérkey", limit_bytes=limit_bytes, seed=7
        )
        assert len(attempts) == rungs
        assert (outcome.attempts, outcome.achieved_fpr) == (attempts, fpr)
        if sql is None:
            assert outcome.bloom is None
        else:
            assert outcome.bloom.to_sql_predicate("l_ordérkey") == sql
            assert outcome.bloom.predicate_size_bytes("l_ordérkey") == len(sql.encode())

    def test_a_rung_fits_at_exactly_the_budget(self):
        keys = list(range(300))
        size = BloomFilter.build(keys, 0.01, seed=3).predicate_size_bytes("k")
        at = build_bloom_filter_within_limit(keys, 0.01, "k", limit_bytes=size, seed=3)
        under = build_bloom_filter_within_limit(keys, 0.01, "k", limit_bytes=size - 1, seed=3)
        assert at.attempts == [0.01] and under.attempts[:2] == [0.01, 0.1]

    @pytest.mark.parametrize("attr", ["k", "o_custkey", "l_orderkey"])
    def test_the_cost_model_fits_a_filter_only_where_the_ladder_keeps_it(self, attr):
        """Around the largest filter 256 KB holds at 1 % (~3,900 keys),
        whenever the cost model predicts a filter the ladder keeps its
        first rung, with no statement around it; the model weighs each
        conjunct as rendered (95-105 bytes a hash here), not at 60."""
        predicted = []
        for n in range(3860, 3910, 2):
            fits = predicted_bloom_pass(n, n, 10 * n, 0.01, attr) is not None
            kept = build_bloom_filter_within_limit(
                range(n), 0.01, attr, seed=n
            ).achieved_fpr == 0.01
            assert kept or not fits, n
            predicted.append(fits)
        assert any(predicted) and not all(predicted)


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=300, unique=True),
    st.sampled_from([0.001, 0.01, 0.1, 0.5]),
)
def test_property_no_false_negatives(keys, fpr):
    """A Bloom filter NEVER reports an inserted key as absent."""
    bloom = BloomFilter.build(keys, fpr=fpr, seed=3)
    assert all(bloom.might_contain(k) for k in keys)


@settings(max_examples=20)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50, unique=True))
def test_property_sql_equivalence(keys):
    """SQL-rendered membership == in-memory membership for random keys."""
    bloom = BloomFilter.build(keys, fpr=0.01, seed=4)
    predicate = compile_predicate(
        parse_expression(bloom.to_sql_predicate("k", cast_to_int=False)),
        {"k": 0},
    )
    probes = keys + [k + 1 for k in keys[:10]]
    for probe in probes:
        assert predicate((probe,)) == bloom.might_contain(probe)
    # The vectorized mask (SUBSTRING / CAST / arithmetic kernels) agrees
    # key by key, on typed keys and on keys arriving as CSV text.
    expected = [bloom.might_contain(probe) for probe in probes]
    mask = compile_predicate_vector(
        parse_expression(bloom.to_sql_predicate("k")), {"k": 0}
    )
    assert mask(Batch([probes])) == expected
    assert mask(Batch([[str(probe) for probe in probes]])) == expected
    # The conjuncts run on survivors only: a NULL key is never a member,
    # and batches of any size agree (empty, one row, keys in a wide batch).
    assert mask(Batch([[None] + probes])) == [False] + expected
    assert mask(Batch([[]])) == []
    assert [mask(Batch([[probe]]))[0] for probe in probes] == expected
    wide = compile_predicate_vector(
        parse_expression(bloom.to_sql_predicate("k")), {"pad": 0, "k": 1, "tail": 2}
    )
    assert wide(Batch([["x"] * len(probes), probes, probes])) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-(2**40), 2**40), max_size=200),
    st.sampled_from([0.001, 0.01, 0.5, 0.9]),
    st.integers(0, 50),
)
def test_property_add_many_sets_the_bits_of_the_per_key_loop(keys, fpr, seed):
    """Negatives and keys beyond 2**31 included; ``build`` and the ladder
    fill through ``add_many``."""
    looped = BloomFilter.with_capacity(len(keys), fpr, seed)
    for key in keys:
        looped.add(key)
    column = BloomFilter.with_capacity(len(keys), fpr, seed)
    column.add_many(keys)
    assert column.bits == looped.bits
    assert BloomFilter.build(keys, fpr, seed).bits == looped.bits
    ladder = build_bloom_filter_within_limit(keys, fpr, "k", seed=seed)
    assert ladder.bloom.bits == looped.bits


@pytest.mark.parametrize("bad", ["7", 7.0, None, True])
def test_add_many_rejects_the_first_offending_key_as_add_does(bad):
    bloom = BloomFilter.with_capacity(10, 0.1, seed=1)
    with pytest.raises(TypeError) as single:
        bloom.add(bad)
    with pytest.raises(TypeError) as column:
        bloom.add_many([1, 2, bad, "later", 3])
    assert str(column.value) == str(single.value)
    with pytest.raises(TypeError):
        BloomFilter.build([1, bad], 0.1)


@pytest.mark.parametrize("cast_to_int", [True, False])
@pytest.mark.parametrize("attr", ["k", "l_ordérkey"])
@pytest.mark.parametrize("fpr", [0.001, 0.9])
def test_to_predicate_is_the_parse_of_the_rendered_text(attr, fpr, cast_to_int):
    """Seven conjuncts or one: the tree handed to S3 Select unparsed is
    the tree the parser builds from the wire text."""
    bloom = BloomFilter.build([-5, 3, 2**35, 10**6], fpr, seed=9)
    text = bloom.to_sql_predicate(attr, cast_to_int)
    assert repr(bloom.to_predicate(attr, cast_to_int)) == repr(parse_expression(text))
    assert bloom.num_hashes == (10 if fpr == 0.001 else 1)


@pytest.mark.parametrize("cast_to_int", [True, False])
@pytest.mark.parametrize("capacity", [1, 10, 50, 1000])
@pytest.mark.parametrize("fpr", [0.5, 0.1, 0.01, 0.001])
def test_rendered_predicate_is_listing_1_byte_for_byte(capacity, fpr, cast_to_int):
    """The printer renders the tree as the paper's Listing 1 is written —
    the ``%`` operands parenthesized, nothing else — and the weight the
    ladder reads is that text's length."""
    bloom = BloomFilter.build(range(0, 3 * capacity, 3), fpr, seed=capacity)
    for attr in ("k", "l_ordérkey"):
        text = listing_1(bloom, attr, cast_to_int)
        assert bloom.to_sql_predicate(attr, cast_to_int) == text
        assert bloom.to_predicate(attr, cast_to_int).to_sql() == text
        if cast_to_int:
            assert bloom.predicate_size_bytes(attr) == len(text.encode())


def _python_pass_bits(bloom: BloomFilter, keys) -> bytearray:
    """The bits one Python pass per hash sets: the formula itself."""
    bits = bytearray(bloom.num_bits)
    for h in bloom.hashes:
        for key in keys:
            bits[(h.a * key + h.b) % h.n % h.m] = 1
    return bits


@pytest.mark.parametrize("keys", [
    [],
    [5, 5, 5, 0],
    [-1, -(2**31), -7, 12, -7],
    [2**63, 2**64 + 3, 5, -(2**70)],  # past int64: the Python pass
    [2**62, -(2**62), 1],  # in int64, but a·x + b could reach 2^63
    list(range(-1500, 1500, 7)) * 2,
], ids=["empty", "duplicates", "negative", "past-int64", "past-the-bound", "many"])
def test_add_many_sets_the_bits_of_the_python_pass(keys):
    """The ``(k × keys)`` int64 step and its fallback set exactly the bits
    of ``((a·x + b) mod n) mod m`` per hash and key."""
    bloom = BloomFilter.with_capacity(max(len(keys), 1), 0.01, seed=3)
    bloom.add_many(keys)
    assert bloom.bits == _python_pass_bits(bloom, keys)
