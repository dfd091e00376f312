"""Seeded differential fuzzer: the vector compiler against the row compiler.

A small recursive grammar over ``a, b`` (int), ``f`` (float), ``s, d``
(str) and literals — arithmetic, comparisons, AND / OR / NOT, CASE with
and without ELSE, IN, BETWEEN, LIKE, IS NULL, CAST, SUBSTRING, UPPER /
COALESCE / ABS — mostly well typed, now and then not; half the
expressions are *tame* (drawn from the constructs
:mod:`repro.expr.vector` writes inline only), so whole-inline kernels are
reached often.  Every expression runs over one batch per typing of the
guard — clean; NULLs at density 0.15 and 0.5; a single NULL; ints and
floats mixed in one column; a column of nothing but NULLs — as a value
(``compile_expr`` vs ``compile_expr_vector``) and as a WHERE mask
(``compile_predicate`` vs ``compile_predicate_vector``): same values,
same value types, and the same error class exactly when the row
compiler raises.

No class of expression is skipped.  The one this file was expected to
skip — *which* of two different errors surfaces inside nonsense like
``SUBSTRING(1, 'abc', f)`` or ``ABS(s) % 0``, where the row compiler
meets failing rows row by row and the kernels column by column — is
compared too: whatever a kernel raises, the batch is re-evaluated
row-wise, so the row compiler decides.
"""

from __future__ import annotations

import random

import pytest

from repro.bloom.filter import BloomFilter
from repro.bloom.universal_hash import UniversalHash, make_hash_family
from repro.engine.batch import Batch
from repro.expr import vector
from repro.expr.compiler import compile_expr, compile_predicate
from repro.expr.vector import PROBE_RUN_MIN_ROWS, compile_expr_vector, compile_predicate_vector
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression

SCHEMA = {"a": 0, "b": 1, "f": 2, "s": 3, "d": 4}
EXPRESSIONS_PER_SEED = 600
SEEDS = [1, 2, 3, 4, 5]

_TEXTS = ["", "a", "abc", "a%b", "12", "ü", "A_c"]
_DATES = ["1995-01-01", "1996-06-15", "1997-12-31"]


class Grammar:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tame = False  # only constructs with an inline form

    def pick(self, *options):
        return self.rng.choice(options)

    def wild(self, wild: str, tame: str) -> str:
        return tame if self.tame else wild

    def expr(self, kind: str, depth: int) -> str:
        if self.rng.random() < (0.02 if self.tame else 0.06):  # now and then ill typed
            kind = self.pick("num", "text", "bool")
        leaf = depth <= 0 or self.rng.random() < 0.25
        return getattr(self, kind)(depth - 1, leaf)

    def num(self, depth: int, leaf: bool) -> str:
        if leaf:
            return self.pick("a", "b", "f", "a", "b", "f", "0", "1", "2", "7", "2.5", "-3")
        sub = lambda kind="num": self.expr(kind, depth)  # noqa: E731
        form = self.rng.randrange(9)
        if form < 4:
            op = self.pick("+", "-", "*", "%", "+", "-", "*", "%", self.wild("/", "+"))
            return f"({sub()} {op} {sub()})"
        if form == 4:
            return f"(- {sub()})"  # the space keeps "- -3" from lexing as a comment
        if form == 5:
            operand = sub(self.pick("num", "num", self.wild("text", "num")))
            return f"CAST({operand} AS {self.pick(self.wild('INT', 'FLOAT'), 'FLOAT')})"
        if form == 6:
            return self.pick(
                f"ABS({sub()})", self.wild(f"COALESCE({sub()}, {sub()})", f"(- {sub()})")
            )
        return self.case("num", depth)

    def text(self, depth: int, leaf: bool) -> str:
        if leaf:
            return self.pick("s", "d", "s", "d", "'abc'", "'a'", "'12'", "'1996-01-01'")
        sub = lambda kind="text": self.expr(kind, depth)  # noqa: E731
        form = self.rng.randrange(9)
        if form < 3:
            length = self.pick(", 1", ", 2", ", 0", self.wild("", ", 1"), self.wild(f", {sub('num')}", ", 3"))
            return f"SUBSTRING({self.wild(sub(), self.pick('s', 'd'))}, {sub('num')}{length})"
        if form < 5:
            return f"UPPER({sub()})"
        if form == 5:
            return f"CAST({sub(self.pick(self.wild('num', 'text'), 'text'))} AS STRING)"
        if form == 6 and not self.tame:
            return self.pick(f"({sub()} || {sub()})", f"COALESCE({sub()}, {sub()})")
        return self.case("text", depth)

    def bool(self, depth: int, leaf: bool) -> str:
        sub = lambda kind="bool": self.expr(kind, depth)  # noqa: E731
        form = self.rng.randrange(14)
        if form > 11:
            form -= 5  # IN and BETWEEN twice as often as IS NULL
        if leaf or form < 3:
            kind = self.pick("num", "num", "text")
            right = sub(kind) if self.rng.random() < 0.9 else sub(self.pick("num", "text"))
            return f"({sub(kind)} {self.pick('=', '<>', '<', '<=', '>', '>=')} {right})"
        if form < 5:
            return f"({sub()} {self.pick('AND', 'OR')} {sub()})"
        if form == 5:
            return f"(NOT {sub()})"
        if form == 6 and not self.tame:  # truthiness of non-booleans
            return self.pick(f"(NOT {sub('num')})", f"({sub('num')} OR {sub()})",
                             f"({sub()} AND {sub('num')})", f"(NOT CAST({sub('text')} AS STRING))")
        maybe_not = self.pick("", "NOT ")
        if form == 7:
            items = self.pick("1, 2, 3", "0, 7", "2.5, 1", self.wild("1, NULL", "-3"), self.wild("b, 3", "2"))
            if self.rng.random() < 0.4:
                return f"({sub('text')} {maybe_not}IN ('a', 'abc', '12'))"
            return f"({sub('num')} {maybe_not}IN ({items}))"
        if form == 8:
            kind = self.pick("num", "num", "text")
            return f"({sub(kind)} {maybe_not}BETWEEN {sub(kind)} AND {sub(kind)})"
        if form == 9:
            pattern = self.pick("'a%'", "'_b%'", "'%c'", "'%'", "'1%'", self.wild("s", "'19%'"))
            return f"({sub('text')} {maybe_not}LIKE {pattern})"
        if form == 10 and not self.tame:
            return f"({sub(self.pick('num', 'text', 'bool'))} IS {maybe_not}NULL)"
        return self.case("bool", depth)

    def case(self, kind: str, depth: int) -> str:
        whens = " ".join(
            f"WHEN {self.expr('bool', depth)} THEN {self.expr(kind, depth)}"
            for _ in range(self.rng.randrange(1, 3))
        )
        default = f" ELSE {self.expr(kind, depth)}" if self.rng.random() < 0.6 else ""
        return f"CASE {whens}{default} END"


#: One batch per guard typing: NULL densities, then the shapes below.
BATCHES = [0.0, 0.15, 0.5, "one NULL", "int / float column", "all-NULL column"]


def make_rows(rng: random.Random, shape) -> list[tuple]:
    density = shape if isinstance(shape, float) else 0.0

    def maybe(value):
        return None if rng.random() < density else value

    rows = [
        [
            maybe(rng.randrange(-5, 20)),
            maybe(rng.randrange(-3, 4)),
            maybe(round(rng.uniform(-50, 50), 2)),
            maybe(rng.choice(_TEXTS)),
            maybe(rng.choice(_DATES)),
        ]
        for _ in range(rng.randrange(1, 25))
    ]
    column = rng.randrange(5)
    if shape == "one NULL":
        rng.choice(rows)[column] = None
    elif shape == "int / float column":
        for row in rows:
            row[column % 3] = rng.choice([rng.randrange(-5, 20), round(rng.uniform(-5, 20), 2)])
    elif shape == "all-NULL column":
        for row in rows:
            row[column] = None
    return [tuple(row) for row in rows]


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the oracle decides which errors are right
        return "error", type(exc)


def same(got, want) -> bool:
    return len(got) == len(want) and all(
        type(g) is type(w) and (g == w or g != g and w != w) for g, w in zip(got, want)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_compiler_matches_row_compiler(seed):
    rng = random.Random(seed)
    grammar = Grammar(rng)
    for _ in range(EXPRESSIONS_PER_SEED):
        grammar.tame = rng.random() < 0.5
        sql = grammar.expr(rng.choice(["num", "text", "bool", "bool"]), rng.randrange(1, 5))
        expr = parse_expression(sql)
        row_fn, vec_fn = compile_expr(expr, SCHEMA), compile_expr_vector(expr, SCHEMA)
        row_pred = compile_predicate(expr, SCHEMA)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        for shape in BATCHES:
            rows = make_rows(rng, shape)
            batch = Batch.from_rows(rows)
            for row_side, vec_side in (
                (lambda: [row_fn(row) for row in rows], lambda: vec_fn(batch)),
                (lambda: [row_pred(row) for row in rows], lambda: mask_fn(batch)),
            ):
                want, got = outcome(row_side), outcome(vec_side)
                context = f"seed {seed}: {sql}\nrows = {rows!r}\nrow {want!r}\nvec {got!r}"
                assert got[0] == want[0], context
                if want[0] == "error":
                    assert got[1] is want[1], context
                else:
                    assert same(got[1], want[1]), context


# ----------------------------------------------------------------------
# Listing-1 probe runs: the (k x rows) int64 path against the row compiler
# ----------------------------------------------------------------------

RUN_SCHEMA = {"k": 0, "b": 1, "s": 2}
RUN_BATCH_SIZES = [1, 5, PROBE_RUN_MIN_ROWS - 1, PROBE_RUN_MIN_ROWS, 90, 300]


def probe_run(rng: random.Random, hashes: int, cast: bool) -> ast.Expr:
    """A Listing-1 run: a random family over ``n`` = 97 (the paper's
    example) or :data:`UNIVERSE_PRIME`, random bits, ``hashes`` conjuncts."""
    m = rng.randrange(1, 97) if rng.random() < 0.5 else rng.randrange(50, 400)
    if m < 97 and rng.random() < 0.5:
        family = [UniversalHash(rng.randrange(1, 97), rng.randrange(97), 97, m)
                  for _ in range(hashes)]
    else:
        family = make_hash_family(hashes, m, rng.randrange(10**6))
    bits = bytearray(rng.random() < 0.6 for _ in range(m))
    return BloomFilter(bits, family).to_predicate("k", cast_to_int=cast)


def run_keys(rng: random.Random, n: int) -> list:
    """One key column: small ints with negatives and zero, ints whose hash
    products pass 2^63, ints past int64, or bools; NULL-free, one NULL,
    10 % NULL or all NULL."""
    kind = rng.choice(["small", "small", "small", "wide", "huge", "bool"])
    draw = {
        "small": lambda: rng.randrange(-60, 400),
        "wide": lambda: rng.choice([1, -1]) * rng.randrange(2**40, 2**62),
        "huge": lambda: rng.choice([rng.randrange(-60, 400), 2**63 + rng.randrange(9), -(2**64)]),
        "bool": lambda: rng.random() < 0.5,
    }[kind]
    keys = [draw() for _ in range(n)]
    nulls = rng.choice(["none", "none", "one", "tenth", "all"])
    if nulls == "one":
        keys[rng.randrange(n)] = None
    elif nulls == "tenth":
        keys = [None if rng.random() < 0.1 else key for key in keys]
    elif nulls == "all":
        keys = [None] * n
    return keys


#: A chain's conjuncts around its runs: ``b <> 2`` leaves NULL-``b`` rows
#: running; ``k % b = 1`` raises on a row it reaches with ``b`` = 0; a bare
#: ``b`` or ``s`` is a head that is not boolean (its truthiness decides).
#: Only a run that ends the chain can take the array path.
RUN_CHAINS = {
    "run": "R",
    "run, raising": "R X",
    "head, run, raising": "P R X",
    "head, run": "P R",
    "int head, run": "B R",
    "string head, run": "S R",
    "int and string head, run": "B S R",
    "head, two runs": "P R R2",
    "two runs, raising": "R R2 X",
    "head, run, raising, run": "P R X R2",
}


@pytest.mark.parametrize("hashes", range(1, 9))
@pytest.mark.parametrize("chain", RUN_CHAINS)
def test_probe_runs_match_the_row_compiler(hashes, chain, monkeypatch):
    rng = random.Random(hashes * 1000 + list(RUN_CHAINS).index(chain))
    array_path = []
    int64 = vector._ProbeChain.int64

    def spy(self, keys):
        result = int64(self, keys)
        array_path.append(result is not None)
        return result

    monkeypatch.setattr(vector._ProbeChain, "int64", spy)
    parts_of = RUN_CHAINS[chain].split()
    for _ in range(12):
        cast = rng.random() < 0.7
        parts = {
            "P": parse_expression("b <> 2"),
            "X": parse_expression("k % b = 1"),
            "B": parse_expression("b"),
            "S": parse_expression("s"),
            "R": probe_run(rng, hashes, cast),
            # another family: different bits, and now and then the other shape
            "R2": probe_run(rng, rng.randrange(1, 9), cast if rng.random() < 0.5 else not cast),
        }
        expr = ast.and_join([
            c for name in parts_of for c in ast.split_conjuncts(parts[name])
        ])
        row_pred = compile_predicate(expr, RUN_SCHEMA)
        mask_fn = compile_predicate_vector(expr, RUN_SCHEMA)
        for n in RUN_BATCH_SIZES:
            keys = run_keys(rng, n)
            divisors = [rng.choice([None, 0, 1, 2, 3, 3, 5]) if {"X", "B"} & set(parts_of) else 1
                        for _ in range(n)]
            strings = [rng.choice([None, "", "x", "0"]) for _ in range(n)]
            rows = list(zip(keys, divisors, strings))
            want = outcome(lambda: [row_pred(row) for row in rows])
            got = outcome(lambda: mask_fn(Batch.from_rows(rows)))
            assert got[0] == want[0], (chain, n, rows, want, got)
            assert got[1] == want[1] if want[0] == "ok" else got[1] is want[1], (chain, n, rows)
    *head, last = parts_of
    if not last.startswith("R"):  # no run ends the chain: the comprehension alone
        assert not array_path
    elif not {"R", "X"} & set(head):  # a head that keeps many rows: the array path
        assert any(array_path), "no batch took the array path"


@pytest.mark.parametrize("top", [10**3, 2**40, 2**61, 2**62])
def test_probe_run_that_subtracts_declines_where_int64_would_wrap(top):
    """``b - k * a`` wraps in int64 over keys near 2^62: the bound reads
    ``-`` as ``+``, so such a batch declines.  Positions run from -3 to 56
    over 50 bits: some miss before position 1, some past the end."""
    rng = random.Random(top)
    bits = "".join(rng.choice("011") for _ in range(50))
    expr = ast.and_join([
        parse_expression(f"SUBSTRING('{bits}', ({b} - k * {a}) % 60 - 4, 1) = '1'")
        for a, b in ((3, 7), (5, 1), (2, 9))
    ])
    rows = [(rng.randrange(-top, top), 1, "x") for _ in range(100)]
    want = [compile_predicate(expr, RUN_SCHEMA)(row) for row in rows]
    assert compile_predicate_vector(expr, RUN_SCHEMA)(Batch.from_rows(rows)) == want
