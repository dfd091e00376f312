"""Unit tests for the SQL tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SQLSyntaxError
from repro.sqlparser.lexer import Token, TokenType, _read_string, tokenize


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        assert kinds("select") == [(TokenType.KEYWORD, "SELECT")]
        assert kinds("SeLeCt") == [(TokenType.KEYWORD, "SELECT")]

    def test_identifiers_keep_case(self):
        assert kinds("l_orderkey") == [(TokenType.IDENT, "l_orderkey")]
        assert kinds("S3Object") == [(TokenType.IDENT, "S3Object")]

    def test_eof_token_is_appended(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_integer_and_float_literals(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]
        assert kinds("3.14") == [(TokenType.NUMBER, "3.14")]
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]
        assert kinds("1e6") == [(TokenType.NUMBER, "1e6")]
        assert kinds("2.5E-3") == [(TokenType.NUMBER, "2.5E-3")]

    def test_number_followed_by_dot_access_not_confused(self):
        # "1e" alone is ident-ish garbage; make sure plain ints stop cleanly.
        assert kinds("1 e") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "e")]

    def test_string_literals(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]
        assert kinds("''") == [(TokenType.STRING, "")]

    def test_string_with_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        ops = [v for _, v in kinds("a <= b <> c != d || e % f")]
        assert "<=" in ops and "<>" in ops and "!=" in ops
        assert "||" in ops and "%" in ops

    def test_longest_operator_wins(self):
        assert kinds("<=")[0] == (TokenType.OPERATOR, "<=")
        assert kinds("<")[0] == (TokenType.OPERATOR, "<")

    def test_punctuation(self):
        values = [v for _, v in kinds("f(a, b.c)")]
        assert values == ["f", "(", "a", ",", "b", ".", "c", ")"]

    def test_unknown_character_raises_with_position(self):
        with pytest.raises(SQLSyntaxError) as err:
            tokenize("a @ b")
        assert err.value.position == 2

    def test_line_comments_skipped(self):
        assert kinds("a -- comment\n b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_positions_recorded(self):
        tokens = tokenize("ab  cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 4

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")


class TestRealQueries:
    def test_bloom_query_tokenizes(self):
        sql = (
            "SELECT * FROM S3Object WHERE "
            "SUBSTRING('100011', ((69 * CAST(attr as INT) + 92) % 97) % 68 + 1, 1) = '1'"
        )
        tokens = tokenize(sql)
        assert tokens[-1].type is TokenType.EOF
        assert any(t.value == "SUBSTRING" for t in tokens)

    def test_case_expression_tokenizes(self):
        sql = "SELECT sum(CASE WHEN g = 0 THEN v ELSE 0 END) FROM S3Object"
        values = [t.value for t in tokenize(sql)]
        for keyword in ("CASE", "WHEN", "THEN", "ELSE", "END"):
            assert keyword in values


def _read_string_by_character(sql, start):
    """The character-at-a-time reader ``_read_string`` replaced."""
    i = start + 1
    parts = []
    while i < len(sql):
        ch = sql[i]
        if ch == "'":
            if i + 1 < len(sql) and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", position=start)


@given(
    st.lists(st.sampled_from(["'", "''", "a", "0", " ", "\n", "\u00e9"]), max_size=12).map("".join),
    st.integers(0, 3),
)
def test_property_read_string_matches_character_reader(body, start):
    """Same token and end offset — or the same error at the same position —
    on ``''`` escapes, empty literals, and unterminated input."""
    sql = "x" * start + "'" + body
    try:
        expected = _read_string_by_character(sql, start)
    except SQLSyntaxError as exc:
        with pytest.raises(SQLSyntaxError) as caught:
            _read_string(sql, start)
        assert caught.value.position == exc.position == start
        assert str(caught.value) == str(exc)
    else:
        assert _read_string(sql, start) == expected
