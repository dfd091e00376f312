"""Edge cases of the hash join (`hash_join_batches`).

The N-way planner chains these joins, so the corners matter more than
ever: empty build sides (a selective filter killed one input), duplicate
keys on both sides (many-to-many fan-out), NULL join keys (SQL equality
never matches NULL), and probe-side early termination under LIMIT (the
streaming pipeline must stop pulling probe batches once enough joined
rows exist).  A property pins all five join types, on one key column
and on two (every join type but ``NOT IN``'s), with and without a
residual match condition, against a row-at-a-time reference that
applies SQL ``=`` to each key pair and evaluates the condition with the
row compiler.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally
from repro.engine.operators.hashjoin import JOIN_TYPES, hash_join_batches
from repro.engine.operators.limit import limit_batches
from repro.expr.compiler import compile_predicate
from repro.sqlparser.parser import parse_expression

from helpers import materialize

BUILD_NAMES = ["k", "a"]
PROBE_NAMES = ["j", "b"]


def _batches(*chunks):
    return [Batch.from_rows(chunk, len(PROBE_NAMES)) for chunk in chunks]


def _run(build_rows, probe_batches):
    names, stream = hash_join_batches(
        build_rows, BUILD_NAMES, iter(probe_batches), PROBE_NAMES, "k", "j"
    )
    return names, materialize(stream)


def reference_join(build_rows, build_idx, probe_rows, probe_idx, join_type, match_pred):
    """The nested-loop join, kept as the semantics reference: a build row
    matches a probe row when SQL ``=`` holds for every key pair (a NULL
    on either side never equals), build-order matches per probe row,
    three-valued ``NOT IN`` for ``anti_null``.  ``build_idx`` /
    ``probe_idx`` are one key position or a tuple of them."""
    build_idx = build_idx if isinstance(build_idx, tuple) else (build_idx,)
    probe_idx = probe_idx if isinstance(probe_idx, tuple) else (probe_idx,)

    def equal(b, p):
        return all(
            b[i] is not None and p[j] is not None and b[i] == p[j]
            for i, j in zip(build_idx, probe_idx)
        )

    null_pad = (None,) * (len(build_rows[0]) if build_rows else len(BUILD_NAMES))
    if join_type == "anti_null" and any(
        row[i] is None for row in build_rows for i in build_idx
    ):
        return []
    out = []
    for row in probe_rows:
        matched = [
            b for b in build_rows
            if equal(b, row) and (match_pred is None or match_pred(b + row))
        ]
        if join_type == "inner":
            out.extend(b + row for b in matched)
        elif join_type == "left":
            out.extend(b + row for b in matched) if matched else out.append(null_pad + row)
        elif join_type == "semi":
            if matched:
                out.append(row)
        else:  # anti / anti_null
            if join_type == "anti_null" and row[probe_idx[0]] is None:
                continue
            if not matched:
                out.append(row)
    return out


class TestEmptyBuild:
    def test_empty_build_side_yields_no_rows(self):
        names, rows = _run([], _batches([(1, "x"), (2, "y")], [(3, "z")]))
        assert names == ["k", "a", "j", "b"]
        assert rows == []

    def test_empty_probe_side_yields_no_rows(self):
        _, rows = _run([(1, "a")], [])
        assert rows == []

    def test_all_null_build_keys_behave_like_empty_build(self):
        _, rows = _run([(None, "a"), (None, "b")], _batches([(None, "x"), (1, "y")]))
        assert rows == []


class TestDuplicateKeys:
    def test_duplicates_on_both_sides_cross_product(self):
        build = [(1, "a1"), (1, "a2"), (2, "b")]
        probe = _batches([(1, "x"), (1, "y")], [(2, "z")])
        _, rows = _run(build, probe)
        # Key 1: 2 build x 2 probe = 4 joined rows, probe-major, build
        # order within one probe row; key 2: 1 x 1.
        assert rows == [
            (1, "a1", 1, "x"), (1, "a2", 1, "x"),
            (1, "a1", 1, "y"), (1, "a2", 1, "y"),
            (2, "b", 2, "z"),
        ]

    def test_batch_boundaries_do_not_show(self):
        build = [(1, "a1"), (1, "a2"), (None, "n"), (3, "c")]
        probe_rows = [(1, "x"), (1, "y"), (3, "z"), (None, "w"), (9, "q")]
        whole = _run(build, _batches(probe_rows))
        split = _run(build, _batches(probe_rows[:2], probe_rows[2:]))
        assert split == whole
        assert whole[1] == reference_join(build, 0, probe_rows, 0, "inner", None)


class TestNullKeys:
    def test_null_keys_never_match(self):
        build = [(None, "a"), (1, "b")]
        probe = _batches([(None, "x"), (1, "y"), (None, "z")])
        _, rows = _run(build, probe)
        assert rows == [(1, "b", 1, "y")]

    def test_null_probe_keys_dropped_even_with_null_build_keys(self):
        # NULL = NULL is UNKNOWN, not TRUE: no pairing of the two NULLs.
        _, rows = _run([(None, "a")], _batches([(None, "x")]))
        assert rows == []


class TestEarlyTermination:
    def test_limit_stops_pulling_probe_batches(self):
        build = [(1, "a")]
        pulled = []

        def probe():
            for i in range(100):
                pulled.append(i)
                yield Batch.from_rows([(1, f"x{i}"), (2, f"y{i}")])

        names, stream = hash_join_batches(
            build, BUILD_NAMES, probe(), PROBE_NAMES, "k", "j"
        )
        limited = materialize(limit_batches(stream, 3))
        assert len(limited) == 3
        # One joined row per probe batch -> 3 matches need only the
        # first 3 batches (plus at most one look-ahead pull).
        assert len(pulled) <= 4

    def test_limit_charges_cpu_only_for_pulled_batches(self):
        build = [(1, "a")]
        tally = CpuTally()

        def probe():
            for i in range(50):
                yield Batch.from_rows([(1, i)])

        _, stream = hash_join_batches(
            build, BUILD_NAMES, probe(), PROBE_NAMES, "k", "j", tally
        )
        after_build = tally.seconds
        materialize(limit_batches(stream, 2))
        charged = tally.seconds - after_build
        full_tally = CpuTally()
        _, full_stream = hash_join_batches(
            build, BUILD_NAMES, probe(), PROBE_NAMES, "k", "j", full_tally
        )
        materialize(full_stream)
        assert charged < (full_tally.seconds - after_build) / 2


class TestNameCollisions:
    def test_duplicate_output_columns_rejected(self):
        with pytest.raises(PlanError, match="duplicate column"):
            hash_join_batches(
                [(1, "a")], ["k", "v"], iter(_batches([(1, "x")])), ["K", "v"], "k", "K"
            )

    def test_keys_of_different_lengths_rejected(self):
        with pytest.raises(PlanError, match="differ in length"):
            hash_join_batches(
                [(1, "a")], BUILD_NAMES, [], PROBE_NAMES, ("k", "a"), "j"
            )

    def test_zero_column_probe_has_no_key_to_join_on(self):
        with pytest.raises(PlanError, match="join key"):
            hash_join_batches([(1, "a")], BUILD_NAMES, [Batch([], 2)], [], "k", "j")


# Few distinct keys so duplicates, misses and NULLs on either side all
# occur; NULL payloads make the residual UNKNOWN for some pairs.
_keys = st.one_of(st.none(), st.integers(0, 3))
_payload = st.one_of(st.none(), st.integers(0, 9))
_build_rows = st.lists(st.tuples(_keys, _payload), max_size=8)
_probe_chunks = st.lists(
    st.lists(st.tuples(_keys, _payload), max_size=5), max_size=4
)
#: The residual over the combined (k, a, j, b) row: ``a <= b``.
RESIDUAL = parse_expression("a <= b")
_residual_pred = compile_predicate(
    RESIDUAL, {name: i for i, name in enumerate(BUILD_NAMES + PROBE_NAMES)}
)


#: Key columns per key count: one (``k = j``, a bare name) or two
#: (``(k, a) = (j, b)``: NULLs and misses in either part).
_KEYS = {1: ("k", "j", 0), 2: (("k", "a"), ("j", "b"), (0, 1))}
#: ``NOT IN`` compares one column, so it has no two-key case.
_JOIN_CASES = [(t, 1) for t in JOIN_TYPES] + [
    (t, 2) for t in JOIN_TYPES if t != "anti_null"
]


class TestJoinMatrix:
    """`hash_join_batches` == the row-at-a-time reference: rows, row
    order and names, for every join type and key count."""

    @pytest.mark.parametrize("build_as", ["batch", "rows"])
    @pytest.mark.parametrize("with_pred", [False, True], ids=["equi", "residual"])
    @pytest.mark.parametrize(
        "join_type, keys", _JOIN_CASES,
        ids=[t if n == 1 else f"{t}-2key" for t, n in _JOIN_CASES],
    )
    @settings(max_examples=60, deadline=None)
    @given(build=_build_rows, chunks=_probe_chunks)
    def test_matches_row_reference(
        self, join_type, keys, with_pred, build_as, build, chunks
    ):
        match_pred = _residual_pred if with_pred else None
        build_key, probe_key, idx = _KEYS[keys]
        names, stream = hash_join_batches(
            Batch.from_rows(build, 2) if build_as == "batch" else build,
            BUILD_NAMES, _batches(*chunks), PROBE_NAMES, build_key, probe_key,
            join_type=join_type, match_cond=RESIDUAL if with_pred else None,
        )
        batches = list(stream)
        assert all(type(batch) is Batch for batch in batches)
        assert len(batches) == len(chunks)  # one output batch per probe batch
        want_names = (
            BUILD_NAMES + PROBE_NAMES if join_type in ("inner", "left")
            else PROBE_NAMES
        )
        assert names == want_names
        assert all(len(batch.columns) == len(names) for batch in batches)
        probe_rows = [row for chunk in chunks for row in chunk]
        assert materialize(batches) == reference_join(
            build, idx, probe_rows, idx, join_type, match_pred
        )

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_a_null_residual_operand_drops_the_pair(self, join_type):
        """``NULL <= 5`` is UNKNOWN: the key matches but the pair does not,
        so a left join pads that probe row and an anti join keeps it."""
        build = [(1, None), (1, 3)]
        probe = [(1, 5), (1, 2), (1, None)]
        _, stream = hash_join_batches(
            Batch.from_rows(build), BUILD_NAMES, _batches(probe), PROBE_NAMES,
            "k", "j", join_type=join_type, match_cond=RESIDUAL,
        )
        want = reference_join(build, 0, probe, 0, join_type, _residual_pred)
        assert materialize(stream) == want
        if join_type == "left":
            assert want == [
                (1, 3, 1, 5), (None, None, 1, 2), (None, None, 1, None),
            ]

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_key_only_and_size_one_batches(self, join_type):
        """One-column sides: the other side contributes no payload column."""
        names, stream = hash_join_batches(
            [(1,), (1,), (None,)], ["k"],
            [Batch([[1]]), Batch([[None]]), Batch([[2]]), Batch([[]])], ["j"],
            "k", "j", join_type=join_type,
        )
        got = [list(batch) for batch in stream]
        want = [
            reference_join([(1,), (1,), (None,)], 0, rows, 0, join_type, None)
            for rows in ([(1,)], [(None,)], [(2,)], [])
        ]
        assert got == want
