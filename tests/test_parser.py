"""Unit tests for the SQL parser and AST rendering round-trips."""

import random
from pathlib import Path

import pytest

from repro.common.errors import SQLSyntaxError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse, parse_expression


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_modulo(self):
        expr = parse_expression("(69 * x + 92) % 97 % 68")
        assert expr.op == "%"

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.Unary) and expr.op == "NOT"

    def test_comparison_chain_disallowed(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("a < b < c")

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)
        assert not expr.negated

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between) and expr.negated

    def test_in_list(self):
        expr = parse_expression("mode IN ('AIR', 'RAIL')")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 2

    def test_not_in(self):
        expr = parse_expression("g NOT IN (1, 2, 3)")
        assert isinstance(expr, ast.InList) and expr.negated

    def test_like(self):
        expr = parse_expression("p_type LIKE 'PROMO%'")
        assert isinstance(expr, ast.Like)

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), ast.IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, ast.IsNull) and expr.negated

    def test_case_when(self):
        expr = parse_expression("CASE WHEN g = 0 THEN v ELSE 0 END")
        assert isinstance(expr, ast.Case)
        assert len(expr.whens) == 1
        assert expr.default == ast.Literal(0)

    def test_case_without_else(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 2 END")
        assert expr.default is None

    def test_case_requires_when(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("CASE END")

    def test_cast(self):
        expr = parse_expression("CAST(x AS INT)")
        assert isinstance(expr, ast.Cast) and expr.type_name == "INT"

    def test_cast_aliases_canonicalized(self):
        assert parse_expression("CAST(x AS INTEGER)").type_name == "INT"
        assert parse_expression("CAST(x AS DECIMAL(12, 2))").type_name == "FLOAT"
        assert parse_expression("CAST(x AS VARCHAR)").type_name == "STRING"

    def test_cast_unknown_type_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("CAST(x AS BANANA)")

    def test_negative_literal_folded(self):
        assert parse_expression("-950") == ast.Literal(-950)
        assert parse_expression("-9.5") == ast.Literal(-9.5)

    def test_unary_plus_dropped(self):
        assert parse_expression("+5") == ast.Literal(5)

    def test_qualified_column(self):
        expr = parse_expression("customer.c_custkey")
        assert expr == ast.Column(name="c_custkey", table="customer")

    def test_aggregate_calls(self):
        expr = parse_expression("SUM(l_extendedprice * (1 - l_discount))")
        assert isinstance(expr, ast.Aggregate) and expr.func == "SUM"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, ast.Aggregate)
        assert isinstance(expr.operand, ast.Star)

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_function_call(self):
        expr = parse_expression("SUBSTRING('101', 2, 1)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "SUBSTRING"
        assert len(expr.args) == 3

    def test_null_true_false_literals(self):
        assert parse_expression("NULL") == ast.Literal(None)
        assert parse_expression("TRUE") == ast.Literal(True)
        assert parse_expression("FALSE") == ast.Literal(False)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("1 + 2 extra")


class TestQueries:
    def test_minimal_select(self):
        q = parse("SELECT * FROM S3Object")
        assert q.table == "S3Object"
        assert isinstance(q.select_items[0].expr, ast.Star)

    def test_select_list_with_aliases(self):
        q = parse("SELECT a AS x, b + 1 AS y FROM t")
        assert q.select_items[0].alias == "x"
        assert q.select_items[1].alias == "y"

    def test_output_names(self):
        q = parse("SELECT a, b + 1, c AS z FROM t")
        names = [item.output_name(i) for i, item in enumerate(q.select_items, 1)]
        assert names == ["a", "_2", "z"]

    def test_where_group_order_limit(self):
        q = parse(
            "SELECT g, SUM(v) FROM t WHERE v > 0 GROUP BY g ORDER BY g DESC LIMIT 5"
        )
        assert q.where is not None
        assert len(q.group_by) == 1
        assert q.order_by[0].descending
        assert q.limit == 5

    def test_order_defaults_ascending(self):
        q = parse("SELECT a FROM t ORDER BY a, b DESC")
        assert not q.order_by[0].descending
        assert q.order_by[1].descending

    def test_implicit_join_syntax(self):
        q = parse("SELECT * FROM customer, orders WHERE c_custkey = o_custkey")
        assert q.from_tables[1] == "orders"

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t LIMIT x")

    def test_missing_from_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1")


REPO = Path(__file__).resolve().parents[1]


def _round_trip_failures(texts, parse_fn=parse) -> list[str]:
    """Each text whose tree does not come back from its ``to_sql()``:
    compared by ``repr`` (``Literal(1) == Literal(True) == Literal(1.0)``
    under ``==``), a rendering that does not parse counting as a miss."""
    failures = []
    for text in texts:
        tree = parse_fn(text)
        try:
            again = repr(parse_fn(tree.to_sql()))
        except SQLSyntaxError as exc:
            again = f"SQLSyntaxError: {exc}"
        if again != repr(tree):
            failures.append(f"{text}\n  -> {tree.to_sql()}\n  => {again}")
    return failures


class TestRoundTrip:
    """``parse(q.to_sql())`` rebuilds ``q`` exactly, for every tree the
    parser builds: hand-written cases, the expression fuzzer's grammar,
    both TPC-H query sets and the SQL fuzzer's queries."""

    CASES = [
        "SELECT * FROM S3Object",
        "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate > '1995-03-15'",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem"
        " WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        "SELECT g, SUM(CASE WHEN g = 0 THEN v ELSE 0 END) FROM t GROUP BY g",
        "SELECT * FROM t WHERE mode IN ('AIR', 'AIR REG') AND x NOT BETWEEN 1 AND 2",
        "SELECT * FROM t WHERE p_type LIKE 'PROMO%' ORDER BY a DESC, b LIMIT 10",
        "SELECT CAST(x AS INT) FROM t WHERE NOT (a = 1 OR b = 2)",
        "SELECT SUBSTRING('10101', ((3 * CAST(k AS INT) + 5) % 97) % 68 + 1, 1) FROM t",
        # Non-finite literals render as 1e999 / -1e999, never as a column.
        "SELECT * FROM t WHERE x < 1e999 AND y > -1e999 AND z <> -(1e999)",
        # NOT as an operand, literal types, signs, right-nested chains.
        "SELECT (NOT a) IS NULL, 2 * (NOT a), -(-a), a - -3, 1 = TRUE, 1.0 FROM t",
        "SELECT a FROM t WHERE a AND (b AND c) OR NOT (d OR e) AND (f = g) = (h < i)",
        "SELECT s || (t || u), (s || t) || u, (a + b) || c, a % (b % c), a / (b * c) FROM t",
        "SELECT -a * b, -(a * b), a - (b - c), (a - b) - c FROM t",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_round_trip(self, sql):
        assert _round_trip_failures([sql]) == []

    def test_infinity_renders_as_a_number(self):
        expr = parse_expression("x < 1e999")
        assert expr.right == ast.Literal(float("inf"))
        assert expr.to_sql() == "x < 1e999"
        assert ast.Literal(float("-inf")).to_sql() == "-1e999"

    def test_listing_1_renders_as_written(self):
        listing = "SUBSTRING('10101', ((3 * CAST(k AS INT) + 5) % 97) % 68 + 1, 1) = '1'"
        assert parse_expression(listing).to_sql() == listing

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_expression_fuzzer_grammar(self, seed):
        """600 expressions per seed from ``test_expr_fuzz.Grammar``, drawn
        as that fuzzer draws them (tame and wild, every kind)."""
        from test_expr_fuzz import EXPRESSIONS_PER_SEED, Grammar

        rng = random.Random(seed)
        grammar = Grammar(rng)
        texts = []
        for _ in range(EXPRESSIONS_PER_SEED):
            grammar.tame = rng.random() < 0.5
            kind = rng.choice(["num", "text", "bool", "bool"])
            texts.append(grammar.expr(kind, rng.randrange(1, 5)))
        assert _round_trip_failures(texts, parse_expression) == []

    @pytest.mark.parametrize("directory", ["benchmarks/tpch/queries", "bench/queries"])
    def test_tpch_queries(self, directory):
        files = sorted((REPO / directory).glob("*.sql"))
        assert len(files) == 22
        assert _round_trip_failures([f.read_text() for f in files]) == []

    def test_sql_fuzzer_queries(self):
        import test_sql_differential as fuzz

        rng = random.Random(fuzz.SEED + 1)
        texts = [fuzz._generate_query(rng) for _ in range(fuzz.NUM_QUERIES)]
        texts += fuzz._value_queries()
        assert len(texts) == 240
        assert _round_trip_failures(texts) == []


class TestMapExpr:
    """``ast.map_expr``, the one rebuilder under ``map_columns``, the HAVING
    rewrite, the aggregate placeholders and the subquery replacement."""

    EVERY_NODE = (
        "CASE WHEN a IN (b, 2) AND s LIKE t THEN -a ELSE CAST(b AS INT) END"
        " BETWEEN COALESCE(c, 0) AND SUM(d) + 1 OR e IS NULL"
    )

    def test_every_node_type_is_rebuilt_and_an_unchanged_tree_is_itself(self):
        expr = parse_expression(self.EVERY_NODE)
        upper = ast.map_columns(expr, lambda column: ast.Column(column.name.upper()))
        assert upper == parse_expression(self.EVERY_NODE.upper().replace("INT", "int"))
        assert ast.map_expr(expr, lambda node: None) is expr
        assert ast.map_columns(expr, lambda column: column) is expr

    def test_a_replacement_is_not_descended_into_and_subqueries_are_scopes(self):
        query = parse("SELECT a FROM t WHERE a IN (SELECT a FROM u) AND a + 1 > 2")
        seen = []

        def swap(node):
            seen.append(node)
            return ast.Column("x") if node == ast.Column("a") else None

        where = ast.map_expr(query.where, swap)
        in_subquery = where.left
        assert in_subquery.operand == ast.Column("x")
        assert in_subquery.query is query.where.left.query  # the body kept its own a
        assert where.right == parse_expression("x + 1 > 2")
        assert ast.Column("x") not in seen
