"""Universal hashing (Carter-Wegman) for S3-Select-compatible Bloom filters.

The paper (Section V-A1) picks universal hashing precisely because it
needs only arithmetic S3 Select supports::

    h_{a,b}(x) = ((a*x + b) mod n) mod m

with ``m`` the bit-array length, ``n`` a prime >= m, and random
``a in [1, n-1]``, ``b in [0, n-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import py_rng
from repro.sqlparser.ast import Binary, Expr, Literal


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality (fine for our n < ~10^8)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    candidate = max(n, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class UniversalHash:
    """One member of the universal family, fully determined by (a, b, n, m)."""

    a: int
    b: int
    n: int  # prime >= m
    m: int  # bit-array length

    def __post_init__(self):
        if not 1 <= self.a < self.n:
            raise ValueError(f"a must be in [1, n); got a={self.a}, n={self.n}")
        if not 0 <= self.b < self.n:
            raise ValueError(f"b must be in [0, n); got b={self.b}, n={self.n}")
        if self.m < 1 or self.n < self.m:
            raise ValueError(f"need 1 <= m <= n; got m={self.m}, n={self.n}")

    def apply(self, x: int) -> int:
        return ((self.a * x + self.b) % self.n) % self.m

    def to_expr(self, attr: Expr) -> Expr:
        """The hash as S3 Select arithmetic over ``attr``: the 1-based
        SUBSTRING position, rendered as the paper's
        ``((69 * CAST(attr AS INT) + 92) % 97) % 68 + 1`` pattern."""
        inner = Binary("+", Binary("*", Literal(self.a), attr), Literal(self.b))
        position = Binary("%", Binary("%", inner, Literal(self.n)), Literal(self.m))
        return Binary("+", position, Literal(1))


#: Default outer modulus: the Mersenne prime 2^31 - 1.  The universal
#: family needs ``n`` at least the key-universe size or keys congruent
#: mod n collide deterministically in *every* hash function, putting a
#: floor of roughly ``s/n`` under the false-positive rate no matter how
#: many bits are allocated.  (The paper's example uses a small n = 97 for
#: exposition; any real key domain needs a large one.)
UNIVERSE_PRIME = 2**31 - 1


def make_hash_family(k: int, m: int, seed: int | None = None) -> list[UniversalHash]:
    """Draw ``k`` independent members with shared modulus parameters."""
    if k < 1:
        raise ValueError(f"need at least one hash function, got k={k}")
    n = UNIVERSE_PRIME if m <= UNIVERSE_PRIME else next_prime(m)
    rng = py_rng(seed)
    family = []
    for _ in range(k):
        a = rng.randrange(1, n)
        b = rng.randrange(0, n)
        family.append(UniversalHash(a=a, b=b, n=n, m=m))
    return family
