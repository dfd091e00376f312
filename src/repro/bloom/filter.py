"""Bloom filters sized by the paper's formulas and renderable to S3 SQL.

Sizing (Section V-A1, citing Almeida et al.)::

    k_p = log2(1/p)            hash functions
    m_p = s * |ln p| / (ln 2)^2   bits, for s expected elements

Because S3 Select has no bitwise operators or binary data, the bit array
travels as a literal string of ``'0'``/``'1'`` characters probed with
``SUBSTRING(bits, h(x)+1, 1) = '1'`` — the paper's Listing 1.  That
string representation is why the 256 KB expression limit binds, which
drives the degradation logic in :func:`build_bloom_filter_within_limit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from repro.bloom.universal_hash import UNIVERSE_PRIME, UniversalHash, make_hash_family
from repro.s3select.validator import EXPRESSION_LIMIT_BYTES
from repro.sqlparser import ast
from repro.sqlparser.ast import Literal


def optimal_num_hashes(fpr: float) -> int:
    """``k_p = log2(1/p)``, at least 1."""
    _check_fpr(fpr)
    return max(1, round(math.log2(1.0 / fpr)))


def optimal_num_bits(n_elements: int, fpr: float) -> int:
    """``m_p = s*|ln p| / (ln 2)^2``, at least 1."""
    _check_fpr(fpr)
    if n_elements < 0:
        raise ValueError(f"n_elements must be >= 0, got {n_elements}")
    bits = math.ceil(n_elements * abs(math.log(fpr)) / (math.log(2) ** 2))
    return max(1, bits)


def _check_fpr(fpr: float) -> None:
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"false-positive rate must be in (0, 1), got {fpr}")


def predicted_bloom_pass(
    build_keys: float, probe_keys: float, probe_rows: float, fpr: float,
    attr: str,
) -> tuple[float, int] | None:
    """A cost model's ``(probe rows passing, hash functions)`` for a Bloom
    predicate over ``build_keys`` distinct keys on probe column ``attr``,
    or ``None`` when it cannot fit the expression limit at ``fpr``.
    Containment: every build key is among the probe's ``probe_keys`` at
    its mean multiplicity; the other rows pass at the false-positive rate.

    It fits as the ladder weighs a rung
    (:meth:`BloomFilter.predicate_size_bytes`), each hash at the widest
    constants the family draws.  The probe statement's own bytes stay
    outside the model: a plan is priced before its statement exists, so
    within that many bytes of the limit the ladder may still degrade."""
    hashes = optimal_num_hashes(fpr)
    bits = optimal_num_bits(int(max(build_keys, 1)), fpr)
    clauses = _widest_clauses_bytes(attr, hashes, len(str(bits)))
    if clauses + hashes * bits > EXPRESSION_LIMIT_BYTES:
        return None
    matched = probe_rows * min(1.0, build_keys / probe_keys)
    return matched + (probe_rows - matched) * fpr, hashes


@lru_cache(maxsize=256)
def _widest_clauses_bytes(attr: str, hashes: int, bits_digits: int) -> int:
    """What :meth:`BloomFilter.predicate_size_bytes` weighs besides the bit
    strings, for ``hashes`` hashes at the widest constants over a
    ``bits_digits``-digit array (``a``, ``b``, ``n``: ten digits each)."""
    n = UNIVERSE_PRIME
    widest = UniversalHash(n - 1, n - 1, n, 10 ** (bits_digits - 1))
    return BloomFilter(bytearray(), [widest] * hashes, 0.0).predicate_size_bytes(attr)


@dataclass
class BloomFilter:
    """A Bloom filter over integer keys (paper limitation: integers only,

    because the universal hash family is arithmetic — Section V-A2 notes
    string keys would need looping constructs S3 Select lacks).
    """

    bits: bytearray
    hashes: list[UniversalHash]
    target_fpr: float

    @classmethod
    def with_capacity(
        cls, n_elements: int, fpr: float, seed: int | None = None
    ) -> "BloomFilter":
        """Create an empty filter sized for ``n_elements`` at ``fpr``."""
        m = optimal_num_bits(n_elements, fpr)
        k = optimal_num_hashes(fpr)
        return cls(
            bits=bytearray(m), hashes=make_hash_family(k, m, seed), target_fpr=fpr
        )

    @classmethod
    def build(
        cls, keys: Iterable[int], fpr: float, seed: int | None = None
    ) -> "BloomFilter":
        """Create a filter sized for and containing ``keys``."""
        key_list = list(keys)
        bloom = cls.with_capacity(len(key_list), fpr, seed)
        bloom.add_many(key_list)
        return bloom

    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        return len(self.bits)

    @property
    def num_hashes(self) -> int:
        return len(self.hashes)

    def add(self, key: int) -> None:
        self.add_many((key,))

    def add_many(self, keys: Sequence[int]) -> None:
        """Insert a column of keys: one type check, one pass of bits per hash."""
        if not set(map(type, keys)) <= {int}:
            for key in keys:
                if not isinstance(key, int) or isinstance(key, bool):
                    raise TypeError(
                        "Bloom join supports only integer join attributes"
                        f" (got {key!r}); see paper Section V-A2"
                    )
        for h in self.hashes:
            a, b, n, m = h.a, h.b, h.n, h.m
            for position in [(a * key + b) % n % m for key in keys]:
                self.bits[position] = 1

    def might_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        return all(self.bits[h.apply(key)] for h in self.hashes)

    def bit_string(self) -> str:
        """The ``'0'``/``'1'`` string literal shipped inside SQL."""
        return bytes(self.bits).translate(b"0" + b"1" * 255).decode("ascii")

    # ------------------------------------------------------------------
    # the pushed predicate
    # ------------------------------------------------------------------
    def to_predicate(self, attr: str, cast_to_int: bool = True) -> ast.Expr:
        """The membership test as an S3 Select WHERE tree: one conjunct per
        hash function, each embedding the bit string.  Its ``to_sql()`` is
        the paper's Listing 1 by construction:
        ``SUBSTRING('…', ((a * CAST(attr AS INT) + b) % n) % m + 1, 1) = '1'``."""
        return self._conjuncts(attr, self.bit_string(), cast_to_int)

    def to_sql_predicate(self, attr: str, cast_to_int: bool = True) -> str:
        """The rendering of :meth:`to_predicate`: the WHERE fragment as it
        travels."""
        return self.to_predicate(attr, cast_to_int).to_sql()

    def _conjuncts(self, attr: str, bits: str, cast_to_int: bool = True) -> ast.Expr:
        bits = Literal(bits)
        return ast.and_join([
            _probe(bits, p) for p in _positions(self.hashes, attr, cast_to_int)
        ])

    def predicate_size_bytes(self, attr: str) -> int:
        """Size of the rendered predicate (what counts against 256 KB),
        whatever the bits: each hash's position, the printer's frame
        around it (:func:`_frame_bytes`) and one bit string per hash —
        nothing is inserted, and no conjunct rendered, to weigh a filter."""
        frame, separator = _frame_bytes()
        positions = _positions(self.hashes, attr, True)
        k = self.num_hashes
        return (sum(len(p.to_sql().encode()) for p in positions)
                + k * (frame + self.num_bits) + (k - 1) * separator)


def _positions(hashes: list, attr: str, cast_to_int: bool) -> list[ast.Expr]:
    """Each hash's 1-based SUBSTRING position over ``attr``: the trees the
    predicate is made of, and what the ladder weighs."""
    key = ast.Cast(ast.Column(attr), "INT") if cast_to_int else ast.Column(attr)
    return [h.to_expr(key) for h in hashes]


def _probe(bits: Literal, position: ast.Expr) -> ast.Expr:
    """One hash's conjunct: ``SUBSTRING(bits, position, 1) = '1'``."""
    return ast.Binary(
        "=", ast.FuncCall("SUBSTRING", (bits, position, Literal(1))), Literal("1")
    )


@lru_cache(maxsize=None)
def _frame_bytes() -> tuple[int, int]:
    """What the printer writes around one position in a conjunct with an
    empty bit string, and between two conjuncts — read off its own
    output around a one-byte column."""
    x = ast.Column("x")
    return len(_probe(Literal(""), x).to_sql()) - 1, len(ast.and_join([x, x]).to_sql()) - 2


@dataclass
class BloomBuildOutcome:
    """Result of trying to fit a Bloom filter under the expression limit."""

    bloom: BloomFilter | None   # None -> degraded to no filter at all
    achieved_fpr: float         # 1.0 when degraded
    attempts: list[float]       # FPRs tried, in order


def build_bloom_filter_within_limit(
    keys: Sequence[int],
    target_fpr: float,
    attr: str,
    sql_overhead_bytes: int = 0,
    limit_bytes: int = EXPRESSION_LIMIT_BYTES,
    seed: int | None = None,
) -> BloomBuildOutcome:
    """Build the best filter whose rendered SQL fits the service limit.

    Mirrors the paper's degradation policy (Section V-B1): if the filter
    at the requested FPR is too large, *increase* the FPR (shrinking the
    bit array) until the query fits; "in the case where the best
    achievable false positive rate cannot be less than 1, PushdownDB
    falls back to not using a Bloom filter at all".

    Args:
        sql_overhead_bytes: bytes the rest of the query (SELECT list,
            other predicates) contributes toward the limit.
    """
    budget = limit_bytes - sql_overhead_bytes
    candidates: list[float] = []
    fpr = target_fpr
    while fpr < 0.9:
        candidates.append(fpr)
        fpr *= 10.0
    # Last resort before giving up entirely: a single-hash filter at a
    # terrible-but-still-useful rate (smallest possible bit array).
    candidates.append(0.9)
    for tried, fpr in enumerate(candidates, start=1):
        bloom = BloomFilter.with_capacity(len(keys), fpr, seed)
        if bloom.predicate_size_bytes(attr) <= budget:  # weighed empty, filled once
            bloom.add_many(keys)
            return BloomBuildOutcome(bloom, fpr, attempts=candidates[:tried])
    return BloomBuildOutcome(bloom=None, achieved_fpr=1.0, attempts=candidates)


# ----------------------------------------------------------------------
# shipping a build side's key set into the probe scan (Section V-B1)
# ----------------------------------------------------------------------

#: Default Bloom false-positive rate; the paper finds 0.01 the sweet spot
#: (Figure 4).
DEFAULT_FPR = 0.01

#: Most SELECT requests (per partition) the chunked IN-list fallback may
#: issue before an unfiltered scan becomes the cheaper degradation: each
#: chunk re-scans the whole probe table, so past this point the scan bill
#: dwarfs what the membership filter saves in returned bytes.
MAX_MEMBERSHIP_CHUNKS = 16


@dataclass(frozen=True)
class BloomPushdown:
    """How a hash join ships its build keys into its probe scan.

    SQL plans use the defaults.  The last two fields are where the
    paper's hand-written variants are modeled differently from SQL joins
    (ROADMAP item 2's audit list): both sides' numbers are pinned, so
    the difference is stated here instead of resolved.
    """

    fpr: float = DEFAULT_FPR
    seed: int | None = None
    #: The service's 256 KB; smaller values let tests walk the ladder.
    limit_bytes: int = EXPRESSION_LIMIT_BYTES
    #: Modeled CPU per inserted key, charged to the build side's phase
    #: (``bloom_join`` only; SQL joins charge none).
    insert_cpu: float = 0.0
    #: An empty build side ships its all-zero filter, so the probe
    #: returns nothing (the paper variants); SQL joins scan unfiltered.
    when_empty: bool = False


def membership_chunks(
    attr: str,
    keys,
    overhead_bytes: int,
    limit_bytes: int = EXPRESSION_LIMIT_BYTES,
) -> list[ast.InList] | None:
    """``attr IN (...)`` predicates whose renderings fit the service limit.

    The unique keys are split greedily so every rendered predicate plus
    ``overhead_bytes`` (the rest of the query) stays at or under
    ``limit_bytes``.  Chunks partition the key set, so unioning the
    chunked scans' results reproduces a single membership scan exactly.
    Returns ``None`` when not even a one-key predicate fits.
    """
    unique = sorted(set(keys))
    budget = limit_bytes - overhead_bytes
    column = ast.Column(attr)
    fixed = len(ast.InList(column, ()).to_sql().encode())  # "attr IN ()"
    groups: list[list[Literal]] = [[]]
    used = 0
    for key in unique:
        literal = Literal(key)
        size = len(literal.to_sql().encode())
        if fixed + size > budget:
            return None
        if groups[-1] and fixed + used + size + 2 > budget:
            groups.append([])
            used = 0
        groups[-1].append(literal)
        used += size + 2  # ", " separator
    return [ast.InList(column, tuple(group)) for group in groups if group]


def membership_clauses(
    keys: Sequence[int], attr: str, base: ast.Query, how: BloomPushdown
) -> tuple[list[ast.Expr], BloomBuildOutcome]:
    """The pushed predicates testing ``attr`` against ``keys``, one probe
    scan per clause, down the degradation ladder: a Bloom filter (its FPR
    raised until the query fits the expression limit), else at most
    :data:`MAX_MEMBERSHIP_CHUNKS` exact ``IN`` lists whose scans union to
    the membership scan, else none (an unfiltered scan).  ``base`` is
    the probe scan's statement without the predicate (its rendering counts
    against the limit); ``outcome.bloom is None`` marks the two degraded
    rungs.
    """
    unique = list(dict.fromkeys(keys))
    overhead = len(base.to_sql().encode()) + 16
    outcome = build_bloom_filter_within_limit(
        unique, how.fpr, attr, sql_overhead_bytes=overhead,
        limit_bytes=how.limit_bytes, seed=how.seed,
    )
    if (bloom := outcome.bloom) is not None:
        return [bloom.to_predicate(attr)], outcome
    chunks = membership_chunks(attr, unique, overhead, how.limit_bytes)
    if chunks and len(chunks) <= MAX_MEMBERSHIP_CHUNKS:
        return chunks, outcome
    return [], outcome
