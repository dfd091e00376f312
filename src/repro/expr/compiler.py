"""Compile SQL expression ASTs into Python closures.

Both the simulated S3 Select engine and PushdownDB's own operators share
this compiler.  ``compile_expr(expr, schema)`` returns a function
``row -> value`` over tuples laid out according to ``schema`` (a mapping
from column name to tuple index).

NULL semantics follow SQL closely enough for the paper's workloads:
arithmetic or comparison against NULL yields NULL (``None``), and WHERE
clauses treat NULL as not-matching.  AND/OR use three-valued logic.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Mapping

from repro.common.errors import TypeMismatchError, UnsupportedFeatureError
from repro.sqlparser import ast

RowFunc = Callable[[tuple], object]


def compile_expr(expr: ast.Expr, schema: Mapping[str, int]) -> RowFunc:
    """Compile ``expr`` into a ``row -> value`` closure.

    Args:
        expr: parsed expression AST (must not contain aggregates; those
            are evaluated by the aggregation machinery, not per-row).
        schema: column name -> tuple index.  Lookup is case-insensitive
            because SQL identifiers are.

    Raises:
        UnsupportedFeatureError: unknown column/function, or an aggregate
            appearing in a scalar context.
    """
    lowered = _lower_schema(schema)
    return _compile(expr, lowered)


def compile_predicate(expr: ast.Expr, schema: Mapping[str, int]) -> Callable[[tuple], bool]:
    """Compile a WHERE-clause predicate; NULL results become ``False``."""
    fn = compile_expr(expr, schema)

    def predicate(row: tuple) -> bool:
        return fn(row) is True

    return predicate


def _lower_schema(schema: Mapping[str, int]) -> dict[str, int]:
    return {name.lower(): idx for name, idx in schema.items()}


def _compile(expr: ast.Expr, schema: dict[str, int]) -> RowFunc:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Column):
        return _compile_column(expr, schema)
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, schema)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, schema)
    if isinstance(expr, ast.Cast):
        return _compile_cast(expr, schema)
    if isinstance(expr, ast.Case):
        return _compile_case(expr, schema)
    if isinstance(expr, ast.InList):
        return _compile_in(expr, schema)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, schema)
    if isinstance(expr, ast.Like):
        return _compile_like(expr, schema)
    if isinstance(expr, ast.IsNull):
        return _compile_is_null(expr, schema)
    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr, schema)
    if isinstance(expr, ast.Aggregate):
        raise UnsupportedFeatureError(
            "aggregate functions cannot appear in a per-row expression"
        )
    if isinstance(expr, ast.Star):
        raise UnsupportedFeatureError("'*' is only valid in a select list or COUNT(*)")
    raise UnsupportedFeatureError(f"cannot compile expression node {type(expr).__name__}")


def _compile_column(expr: ast.Column, schema: dict[str, int]) -> RowFunc:
    key = expr.name.lower()
    if key not in schema:
        known = ", ".join(sorted(schema))
        raise UnsupportedFeatureError(
            f"unknown column {expr.name!r}; available columns: {known}"
        )
    idx = schema[key]
    return lambda row: row[idx]


def _compile_unary(expr: ast.Unary, schema: dict[str, int]) -> RowFunc:
    operand = _compile(expr.operand, schema)
    if expr.op == "-":
        def negate(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            _require_number(value, "-")
            return -value
        return negate
    if expr.op == "NOT":
        def invert(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            return not value
        return invert
    raise UnsupportedFeatureError(f"unknown unary operator {expr.op!r}")


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
}

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_binary(expr: ast.Binary, schema: dict[str, int]) -> RowFunc:
    op = expr.op
    if op in ("AND", "OR"):
        return _compile_logical(expr, schema)
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    if op == "||":
        def concat(row: tuple) -> object:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return _to_str(a) + _to_str(b)
        return concat
    if op == "/":
        def divide(row: tuple) -> object:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            _require_number(a, "/")
            _require_number(b, "/")
            if b == 0:
                return None  # SQL engines raise; S3 Select returns an error row — NULL keeps scans total
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return a / b
        return divide
    if op in _ARITH:
        fn = _ARITH[op]
        def arith(row: tuple) -> object:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            _require_number(a, op)
            _require_number(b, op)
            return fn(a, b)
        return arith
    if op in _COMPARE:
        fn = _COMPARE[op]
        def compare(row: tuple) -> object:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            a, b = _coerce_pair(a, b, op)
            return fn(a, b)
        return compare
    raise UnsupportedFeatureError(f"unknown binary operator {op!r}")


def _compile_logical(expr: ast.Binary, schema: dict[str, int]) -> RowFunc:
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    if expr.op == "AND":
        def conj(row: tuple) -> object:
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return bool(a) and bool(b)
        return conj

    def disj(row: tuple) -> object:
        a = left(row)
        if a is True:
            return True
        b = right(row)
        if b is True:
            return True
        if a is None or b is None:
            return None
        return bool(a) or bool(b)
    return disj


def _compile_cast(expr: ast.Cast, schema: dict[str, int]) -> RowFunc:
    operand = _compile(expr.operand, schema)
    caster = _CASTS.get(expr.type_name)
    if caster is None:
        raise UnsupportedFeatureError(f"CAST to {expr.type_name} is not supported")

    def cast(row: tuple) -> object:
        value = operand(row)
        if value is None:
            return None
        try:
            return caster(value)
        except (ValueError, TypeError) as exc:
            raise TypeMismatchError(
                f"cannot CAST {value!r} to {expr.type_name}"
            ) from exc
    return cast


def _cast_int(value: object) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    return int(str(value).strip())


def _cast_float(value: object) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return float(str(value).strip())


_CASTS: dict[str, Callable[[object], object]] = {
    "INT": _cast_int,
    "FLOAT": _cast_float,
    "STRING": lambda v: _to_str(v),
    "BOOL": lambda v: bool(v),
    "DATE": lambda v: _validate_date(_to_str(v)),
    "TIMESTAMP": lambda v: _to_str(v),
}


def _compile_case(expr: ast.Case, schema: dict[str, int]) -> RowFunc:
    compiled = [(_compile(cond, schema), _compile(val, schema)) for cond, val in expr.whens]
    default = _compile(expr.default, schema) if expr.default is not None else None

    def case(row: tuple) -> object:
        for cond, val in compiled:
            if cond(row) is True:
                return val(row)
        if default is not None:
            return default(row)
        return None
    return case


def _compile_in(expr: ast.InList, schema: dict[str, int]) -> RowFunc:
    """``IN`` with SQL three-valued semantics.

    A NULL operand yields NULL; a miss against a list that *contains* a
    NULL also yields NULL (the NULL item might have been equal), and only
    a miss against an all-non-NULL list yields FALSE.  ``NOT IN`` negates
    TRUE/FALSE and leaves NULL alone.
    """
    operand = _compile(expr.operand, schema)
    items = [_compile(item, schema) for item in expr.items]
    constant_items = all(isinstance(item, ast.Literal) for item in expr.items)
    negated = expr.negated
    if constant_items:
        literals = [item.value for item in expr.items]  # type: ignore[union-attr]
        values = frozenset(v for v in literals if v is not None)
        has_null_item = any(v is None for v in literals)

        def member_const(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            if value in values:
                return not negated
            if has_null_item:
                return None
            return negated
        return member_const

    def member(row: tuple) -> object:
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated
    return member


def _compile_between(expr: ast.Between, schema: dict[str, int]) -> RowFunc:
    operand = _compile(expr.operand, schema)
    low = _compile(expr.low, schema)
    high = _compile(expr.high, schema)
    negated = expr.negated

    def between(row: tuple) -> object:
        # SQL defines BETWEEN as (x >= lo AND x <= hi) with three-valued
        # AND: a NULL bound makes one comparison UNKNOWN, but the other
        # comparison can still decide FALSE (e.g. ``5 BETWEEN NULL AND
        # 3``); only an undecided conjunction yields NULL.
        value = operand(row)
        lo, hi = low(row), high(row)
        above: object = None
        if value is not None and lo is not None:
            a, b = _coerce_pair(value, lo, "BETWEEN")
            above = a >= b
        below: object = None
        if value is not None and hi is not None:
            a, b = _coerce_pair(value, hi, "BETWEEN")
            below = a <= b
        if above is False or below is False:
            return negated
        if above is None or below is None:
            return None  # NOT of UNKNOWN is still UNKNOWN
        return not negated
    return between


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern (``%``, ``_``) into a compiled regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", flags=re.DOTALL)


def _compile_like(expr: ast.Like, schema: dict[str, int]) -> RowFunc:
    operand = _compile(expr.operand, schema)
    negated = expr.negated
    if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
        regex = like_to_regex(expr.pattern.value)

        def like_const(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            result = regex.match(_to_str(value)) is not None
            return (not result) if negated else result
        return like_const
    pattern_fn = _compile(expr.pattern, schema)

    def like(row: tuple) -> object:
        value = operand(row)
        pattern = pattern_fn(row)
        if value is None or pattern is None:
            return None
        result = like_to_regex(_to_str(pattern)).match(_to_str(value)) is not None
        return (not result) if negated else result
    return like


def _compile_is_null(expr: ast.IsNull, schema: dict[str, int]) -> RowFunc:
    operand = _compile(expr.operand, schema)
    negated = expr.negated

    def is_null(row: tuple) -> bool:
        result = operand(row) is None
        return (not result) if negated else result
    return is_null


# ----------------------------------------------------------------------
# scalar functions
# ----------------------------------------------------------------------

def _fn_substring(args: list[RowFunc]) -> RowFunc:
    """SUBSTRING(str, start[, length]) with SQL 1-based positions.

    Matches S3 Select semantics: a start before position 1 still counts
    length from that virtual start.
    """
    if len(args) not in (2, 3):
        raise UnsupportedFeatureError("SUBSTRING takes 2 or 3 arguments")
    text_fn, start_fn = args[0], args[1]
    length_fn = args[2] if len(args) == 3 else None

    def substring(row: tuple) -> object:
        text = text_fn(row)
        start = start_fn(row)
        if text is None or start is None:
            return None
        text = _to_str(text)
        start = int(start)
        if length_fn is None:
            begin = max(start - 1, 0)
            return text[begin:]
        length = length_fn(row)
        if length is None:
            return None
        length = int(length)
        if length < 0:
            raise TypeMismatchError("SUBSTRING length must be non-negative")
        end = start - 1 + length
        begin = max(start - 1, 0)
        if end <= begin:
            return ""
        return text[begin:end]
    return substring


def _simple_fn(py_fn: Callable, arity: int, name: str) -> Callable[[list[RowFunc]], RowFunc]:
    def build(args: list[RowFunc]) -> RowFunc:
        if len(args) != arity:
            raise UnsupportedFeatureError(f"{name} takes {arity} argument(s)")

        def call(row: tuple) -> object:
            values = [fn(row) for fn in args]
            if any(v is None for v in values):
                return None
            return py_fn(*values)
        return call
    return build


def _fn_coalesce(args: list[RowFunc]) -> RowFunc:
    if not args:
        raise UnsupportedFeatureError("COALESCE requires at least one argument")

    def coalesce(row: tuple) -> object:
        for fn in args:
            value = fn(row)
            if value is not None:
                return value
        return None
    return coalesce


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}")


def _validate_date(text: str) -> str:
    """Dates travel as ISO-8601 strings; lexical order == chronological order."""
    if not _DATE_RE.match(text):
        raise TypeMismatchError(f"not an ISO date: {text!r}")
    return text[:10]


def _fn_year(args: list[RowFunc]) -> RowFunc:
    if len(args) != 1:
        raise UnsupportedFeatureError("YEAR takes 1 argument")
    operand = args[0]

    def year(row: tuple) -> object:
        value = operand(row)
        if value is None:
            return None
        return int(_validate_date(_to_str(value))[:4])
    return year


_FUNCTIONS: dict[str, Callable[[list[RowFunc]], RowFunc]] = {
    "SUBSTRING": _fn_substring,
    "SUBSTR": _fn_substring,
    "UPPER": _simple_fn(lambda s: _to_str(s).upper(), 1, "UPPER"),
    "LOWER": _simple_fn(lambda s: _to_str(s).lower(), 1, "LOWER"),
    "TRIM": _simple_fn(lambda s: _to_str(s).strip(), 1, "TRIM"),
    "LENGTH": _simple_fn(lambda s: len(_to_str(s)), 1, "LENGTH"),
    "CHAR_LENGTH": _simple_fn(lambda s: len(_to_str(s)), 1, "CHAR_LENGTH"),
    "ABS": _simple_fn(abs, 1, "ABS"),
    "FLOOR": _simple_fn(lambda x: math.floor(x), 1, "FLOOR"),
    "CEIL": _simple_fn(lambda x: math.ceil(x), 1, "CEIL"),
    "CEILING": _simple_fn(lambda x: math.ceil(x), 1, "CEILING"),
    "ROUND": _simple_fn(lambda x: round(x), 1, "ROUND"),
    "SQRT": _simple_fn(math.sqrt, 1, "SQRT"),
    "MOD": _simple_fn(lambda a, b: a % b, 2, "MOD"),
    "DATE": _simple_fn(lambda s: _validate_date(_to_str(s)), 1, "DATE"),
    "YEAR": _fn_year,
    "COALESCE": _fn_coalesce,
}


def _compile_func(expr: ast.FuncCall, schema: dict[str, int]) -> RowFunc:
    builder = _FUNCTIONS.get(expr.name)
    if builder is None:
        raise UnsupportedFeatureError(f"unknown function {expr.name!r}")
    args = [_compile(arg, schema) for arg in expr.args]
    return builder(args)


# ----------------------------------------------------------------------
# coercion helpers
# ----------------------------------------------------------------------

def _to_str(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and value.is_integer():
        return str(value)
    return str(value)


def _require_number(value: object, op: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"operator {op!r} requires numeric operands, got {value!r}")


def _coerce_pair(a: object, b: object, op: str) -> tuple[object, object]:
    """Coerce a comparison pair to a common type.

    Numbers compare numerically; strings compare lexically; a string
    compared with a number is parsed as a number when possible (CSV data
    arrives untyped, matching S3 Select's behaviour with CAST-free
    comparisons handled by our typed schemas upstream).
    """
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return a, b
    if isinstance(a, str) and isinstance(b, str):
        return a, b
    if a_num and isinstance(b, str):
        try:
            return a, float(b)
        except ValueError:
            raise TypeMismatchError(f"cannot compare {a!r} {op} {b!r}") from None
    if b_num and isinstance(a, str):
        try:
            return float(a), b
        except ValueError:
            raise TypeMismatchError(f"cannot compare {a!r} {op} {b!r}") from None
    if isinstance(a, bool) and isinstance(b, bool):
        return a, b
    raise TypeMismatchError(f"cannot compare {a!r} {op} {b!r}")
