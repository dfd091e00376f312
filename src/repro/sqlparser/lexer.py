"""Tokenizer for the PushdownDB / S3 Select SQL dialect.

The dialect is the subset of SQL the paper exercises: SELECT queries with
arithmetic (including ``%``, which the Bloom-join hash functions rely on),
comparisons, boolean connectives, ``CASE WHEN``, ``CAST``, ``SUBSTRING``,
``LIKE``, ``IN``, ``BETWEEN``, aggregates, GROUP BY / ORDER BY / LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.common.errors import SQLSyntaxError


class TokenType(Enum):
    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    EOF = auto()


#: Words that the parser treats as reserved.  Everything else that looks
#: like a word is an identifier (column or function name).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "AS",
        "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL",
        "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "ASC", "DESC",
        "TRUE", "FALSE", "DISTINCT", "ESCAPE", "HAVING", "JOIN", "LEFT",
        "OUTER", "INNER", "ON", "EXISTS", "INTERVAL",
    }
)

#: Longest first: ``_match_any`` returns the first candidate that matches.
_OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = ("(", ")", ",", ".")


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (for errors)."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises:
        SQLSyntaxError: on any character sequence the dialect does not
            recognize, or an unterminated string literal.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "'":
            token, i = _read_string(sql, i)
            tokens.append(token)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            token, i = _read_number(sql, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            token, i = _read_word(sql, i)
            tokens.append(token)
            continue
        matched_op = _match_any(sql, i, _OPERATORS)
        if matched_op is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _match_any(sql: str, i: int, candidates: tuple[str, ...]) -> str | None:
    """Return the first candidate that matches ``sql`` at offset ``i``."""
    for cand in candidates:
        if sql.startswith(cand, i):
            return cand
    return None


def _read_string(sql: str, start: int) -> tuple[Token, int]:
    """Read a single-quoted string literal; ``''`` escapes a quote."""
    parts: list[str] = []
    i = start + 1
    while True:
        end = sql.find("'", i)
        if end < 0:
            raise SQLSyntaxError("unterminated string literal", position=start)
        parts.append(sql[i:end])
        if not sql.startswith("'", end + 1):
            return Token(TokenType.STRING, "".join(parts), start), end + 1
        parts.append("'")
        i = end + 2


def _read_number(sql: str, start: int) -> tuple[Token, int]:
    """Read an integer or decimal literal (optionally with exponent)."""
    i = start
    n = len(sql)
    while i < n and sql[i].isdigit():
        i += 1
    if i < n and sql[i] == ".":
        i += 1
        while i < n and sql[i].isdigit():
            i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            i = j
            while i < n and sql[i].isdigit():
                i += 1
    return Token(TokenType.NUMBER, sql[start:i], start), i


def _read_word(sql: str, start: int) -> tuple[Token, int]:
    """Read an identifier or keyword."""
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    word = sql[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), i
    return Token(TokenType.IDENT, word, start), i
