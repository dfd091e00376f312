"""Recursive-descent parser producing :mod:`repro.sqlparser.ast` nodes.

Expression parsing uses precedence climbing with the usual SQL levels:

    OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive (+ - ||)
       < multiplicative (* / %) < unary +/- < primary
"""

from __future__ import annotations

from repro.common.errors import SQLSyntaxError
from repro.sqlparser import ast
from repro.sqlparser.lexer import Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ADDITIVE_OPS = {"+", "-", "||"}
_MULTIPLICATIVE_OPS = {"*", "/", "%"}

#: Type names accepted by CAST.
CAST_TYPES = frozenset({"INT", "INTEGER", "FLOAT", "DECIMAL", "NUMERIC",
                        "STRING", "CHAR", "VARCHAR", "BOOL", "TIMESTAMP", "DATE"})


def parse(sql: str) -> ast.Query:
    """Parse a full SELECT statement."""
    parser = _Parser(tokenize(sql))
    query = parser.parse_query()
    parser.expect_eof()
    return query


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone expression (used heavily in tests)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _match_keyword(self, *words: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in words:
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._match_keyword(word)
        if token is None:
            actual = self._peek()
            raise SQLSyntaxError(
                f"expected {word}, found {actual.value or 'end of input'!r}",
                position=actual.position,
            )
        return token

    def _match_punct(self, symbol: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == symbol:
            return self._advance()
        return None

    def _expect_punct(self, symbol: str) -> Token:
        token = self._match_punct(symbol)
        if token is None:
            actual = self._peek()
            raise SQLSyntaxError(
                f"expected {symbol!r}, found {actual.value or 'end of input'!r}",
                position=actual.position,
            )
        return token

    def _match_operator(self, ops: set[str]) -> Token | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    def expect_eof(self) -> None:
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {token.value!r}", position=token.position
            )

    # ------------------------------------------------------------------
    # statement grammar
    # ------------------------------------------------------------------
    def parse_query(self) -> ast.Query:
        self._expect_keyword("SELECT")
        select_items = self._parse_select_list()
        self._expect_keyword("FROM")
        derived: ast.Query | None = None
        joins: list[ast.JoinSpec] = []
        inner_join_conds: list[ast.Expr] = []
        if self._match_punct("("):
            # A sole derived table: FROM (SELECT ...) AS alias.
            self._expect_keyword("SELECT")
            self._pos -= 1
            derived = self.parse_query()
            self._expect_punct(")")
            self._match_keyword("AS")
            tables = [self._parse_table_name()]
        else:
            tables = [self._parse_table_name()]
            while True:
                if self._match_punct(","):
                    tables.append(self._parse_table_name())
                    continue
                if self._match_keyword("LEFT"):
                    self._match_keyword("OUTER")
                    self._expect_keyword("JOIN")
                    join_name = self._parse_table_name()
                    self._expect_keyword("ON")
                    joins.append(ast.JoinSpec(join_name, self.parse_expr()))
                    continue
                if self._match_keyword("INNER") or self._peek().is_keyword("JOIN"):
                    # INNER JOIN ... ON desugars into the comma FROM list
                    # plus WHERE conjuncts.
                    self._expect_keyword("JOIN")
                    tables.append(self._parse_table_name())
                    self._expect_keyword("ON")
                    inner_join_conds.append(self.parse_expr())
                    continue
                break
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expr()
        if inner_join_conds:
            where = ast.and_join(
                inner_join_conds + ([where] if where is not None else [])
            )
        group_by: tuple[ast.Expr, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())
        having = None
        if self._match_keyword("HAVING"):
            having = self.parse_expr()
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_list())
        limit = None
        if self._match_keyword("LIMIT"):
            token = self._peek()
            if token.type is not TokenType.NUMBER:
                raise SQLSyntaxError("LIMIT requires an integer", position=token.position)
            self._advance()
            try:
                limit = int(token.value)
            except ValueError:
                raise SQLSyntaxError(
                    "LIMIT requires an integer", position=token.position
                ) from None
        return ast.Query(
            select_items=tuple(select_items),
            from_tables=tuple(tables),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            having=having,
            joins=tuple(joins),
            derived=derived,
        )

    def _parse_table_name(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise SQLSyntaxError("expected table name", position=token.position)
        self._advance()
        return token.value

    def _parse_select_list(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.SelectItem(expr=ast.Star())
        expr = self.parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias_token = self._peek()
            if alias_token.type is not TokenType.IDENT:
                raise SQLSyntaxError("expected alias name", position=alias_token.position)
            self._advance()
            alias = alias_token.value
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_expr_list(self) -> list[ast.Expr]:
        exprs = [self.parse_expr()]
        while self._match_punct(","):
            exprs.append(self.parse_expr())
        return exprs

    def _parse_order_list(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            descending = False
            if self._match_keyword("DESC"):
                descending = True
            else:
                self._match_keyword("ASC")
            items.append(ast.OrderItem(expr=expr, descending=descending))
            if not self._match_punct(","):
                return items

    # ------------------------------------------------------------------
    # expression grammar (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = ast.Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = ast.Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._match_keyword("NOT"):
            operand = self._parse_not()
            # Fold NOT EXISTS into the node's own negation flag so the
            # decorrelation pass sees one canonical shape.
            if isinstance(operand, ast.Exists):
                return ast.Exists(operand.query, negated=not operand.negated)
            return ast.Unary("NOT", operand)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        negated = bool(self._match_keyword("NOT"))
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated=negated)
        if self._match_keyword("IN"):
            self._expect_punct("(")
            if self._peek().is_keyword("SELECT"):
                subquery = self.parse_query()
                self._expect_punct(")")
                return ast.InSubquery(left, subquery, negated=negated)
            items = tuple(self._parse_expr_list())
            self._expect_punct(")")
            return ast.InList(left, items, negated=negated)
        if self._match_keyword("LIKE"):
            pattern = self._parse_additive()
            return ast.Like(left, pattern, negated=negated)
        if negated:
            token = self._peek()
            raise SQLSyntaxError(
                "NOT here must be followed by BETWEEN, IN or LIKE",
                position=token.position,
            )
        if self._match_keyword("IS"):
            is_negated = bool(self._match_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        op_token = self._match_operator(_COMPARISON_OPS)
        if op_token is not None:
            op = "<>" if op_token.value == "!=" else op_token.value
            right = self._parse_additive()
            return ast.Binary(op, left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op_token = self._match_operator(_ADDITIVE_OPS)
            if op_token is None:
                return left
            if op_token.value in ("+", "-") and self._peek().is_keyword("INTERVAL"):
                left = self._fold_interval(left, op_token)
                continue
            left = ast.Binary(op_token.value, left, self._parse_multiplicative())

    def _fold_interval(self, left: ast.Expr, op_token: Token) -> ast.Expr:
        """Fold ``DATE 'x' ± INTERVAL 'n' UNIT`` into an ISO-string
        literal at parse time (dates travel as lexically-ordered
        strings, so the folded constant compares correctly)."""
        self._expect_keyword("INTERVAL")
        count_token = self._peek()
        if count_token.type is not TokenType.STRING:
            raise SQLSyntaxError(
                "INTERVAL requires a quoted count like INTERVAL '3'",
                position=count_token.position,
            )
        self._advance()
        try:
            count = int(count_token.value)
        except ValueError:
            raise SQLSyntaxError(
                f"INTERVAL count must be an integer, got {count_token.value!r}",
                position=count_token.position,
            ) from None
        unit_token = self._advance()
        unit = unit_token.value.upper().rstrip("S")
        if unit not in ("DAY", "MONTH", "YEAR"):
            raise SQLSyntaxError(
                f"unsupported INTERVAL unit {unit_token.value!r}",
                position=unit_token.position,
            )
        if not (isinstance(left, ast.Literal) and isinstance(left.value, str)):
            raise SQLSyntaxError(
                "INTERVAL arithmetic requires a date-string literal on the left",
                position=op_token.position,
            )
        if op_token.value == "-":
            count = -count
        return ast.Literal(_shift_date(left.value, count, unit, op_token.position))

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op_token = self._match_operator(_MULTIPLICATIVE_OPS)
            if op_token is None:
                return left
            left = ast.Binary(op_token.value, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        op_token = self._match_operator({"+", "-"})
        if op_token is not None:
            operand = self._parse_unary()
            # Fold -literal into a literal so rendered SQL stays tidy.
            if op_token.value == "-" and isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            if op_token.value == "+":
                return operand
            return ast.Unary(op_token.value, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(_parse_number(token))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.KEYWORD:
            return self._parse_keyword_primary(token)
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            if self._peek().is_keyword("SELECT"):
                subquery = self.parse_query()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            return self._parse_ident_primary()
        raise SQLSyntaxError(
            f"unexpected token {token.value or 'end of input'!r}",
            position=token.position,
        )

    def _parse_keyword_primary(self, token: Token) -> ast.Expr:
        if token.value == "NULL":
            self._advance()
            return ast.Literal(None)
        if token.value in ("TRUE", "FALSE"):
            self._advance()
            return ast.Literal(token.value == "TRUE")
        if token.value == "CASE":
            return self._parse_case()
        if token.value == "CAST":
            return self._parse_cast()
        if token.value == "EXISTS":
            self._advance()
            self._expect_punct("(")
            subquery = self.parse_query()
            self._expect_punct(")")
            return ast.Exists(subquery)
        raise SQLSyntaxError(
            f"unexpected keyword {token.value}", position=token.position
        )

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._match_keyword("WHEN"):
            cond = self.parse_expr()
            self._expect_keyword("THEN")
            value = self.parse_expr()
            whens.append((cond, value))
        if not whens:
            token = self._peek()
            raise SQLSyntaxError("CASE requires at least one WHEN", position=token.position)
        default = None
        if self._match_keyword("ELSE"):
            default = self.parse_expr()
        self._expect_keyword("END")
        return ast.Case(whens=tuple(whens), default=default)

    def _parse_cast(self) -> ast.Expr:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self.parse_expr()
        self._expect_keyword("AS")
        type_token = self._peek()
        type_name = type_token.value.upper()
        if type_name not in CAST_TYPES:
            raise SQLSyntaxError(
                f"unknown CAST target type {type_token.value!r}",
                position=type_token.position,
            )
        self._advance()
        # Tolerate a precision suffix like DECIMAL(12, 2): parse and ignore.
        if self._match_punct("("):
            while not self._match_punct(")"):
                self._advance()
        self._expect_punct(")")
        return ast.Cast(operand=operand, type_name=_canonical_type(type_name))

    def _parse_ident_primary(self) -> ast.Expr:
        name_token = self._advance()
        if (
            name_token.value.upper() == "DATE"
            and self._peek().type is TokenType.STRING
        ):
            # DATE 'YYYY-MM-DD' folds to its ISO string; dates travel as
            # lexically-ordered strings throughout the engine.
            return ast.Literal(self._advance().value)
        if self._match_punct("("):
            return self._parse_call(name_token.value)
        if self._match_punct("."):
            col_token = self._peek()
            if col_token.type is not TokenType.IDENT:
                raise SQLSyntaxError(
                    "expected column name after '.'", position=col_token.position
                )
            self._advance()
            return ast.Column(name=col_token.value, table=name_token.value)
        return ast.Column(name=name_token.value)

    def _parse_call(self, name: str) -> ast.Expr:
        func = name.upper()
        if func in ast.AGGREGATE_FUNCS:
            distinct = bool(self._match_keyword("DISTINCT"))
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value == "*":
                self._advance()
                operand: ast.Expr = ast.Star()
            else:
                operand = self.parse_expr()
            self._expect_punct(")")
            return ast.Aggregate(func=func, operand=operand, distinct=distinct)
        args: list[ast.Expr] = []
        if not self._match_punct(")"):
            args.append(self.parse_expr())
            while self._match_punct(","):
                args.append(self.parse_expr())
            self._expect_punct(")")
        return ast.FuncCall(name=func, args=tuple(args))


def _shift_date(iso: str, count: int, unit: str, position: int) -> str:
    """Shift an ISO ``YYYY-MM-DD`` date by ``count`` DAY/MONTH/YEAR units,
    clamping the day to the target month's length."""
    import datetime

    try:
        day = datetime.date.fromisoformat(iso)
    except ValueError:
        raise SQLSyntaxError(
            f"INTERVAL arithmetic requires an ISO date, got {iso!r}",
            position=position,
        ) from None
    if unit == "DAY":
        return (day + datetime.timedelta(days=count)).isoformat()
    months = day.month - 1 + count * (12 if unit == "YEAR" else 1)
    year, month = day.year + months // 12, months % 12 + 1
    if month == 12:
        month_days = 31
    else:
        month_days = (
            datetime.date(year, month + 1, 1) - datetime.date(year, month, 1)
        ).days
    return datetime.date(year, month, min(day.day, month_days)).isoformat()


def _parse_number(token: Token):
    text = token.value
    if any(ch in text for ch in ".eE"):
        return float(text)
    return int(text)


def _canonical_type(type_name: str) -> str:
    aliases = {
        "INTEGER": "INT",
        "DECIMAL": "FLOAT",
        "NUMERIC": "FLOAT",
        "CHAR": "STRING",
        "VARCHAR": "STRING",
    }
    return aliases.get(type_name, type_name)
