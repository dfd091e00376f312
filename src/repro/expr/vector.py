"""Vectorized expression compilation over columnar Batches.

``compile_expr_vector(expr, schema)`` returns a ``batch -> list[value]``
function mirroring :func:`repro.expr.compiler.compile_expr` value-for-
value: same three-valued NULL semantics, same coercions, same errors.
An expression is evaluated by the first of three tiers that applies:

* **fused, on clean batches**: a batch is *clean* for an expression when
  every column it references is NULL-free and holds one Python type
  among ``int`` / ``float`` / ``str`` — the guard, one
  ``set(map(type, column))`` pass memoised per ``(batch, column)``.
  NULL propagation and per-value type dispatch are then vacuous and
  Python's ``and`` / ``or`` / conditional expression *are* the row
  compiler's short-circuit rules, so the whole expression (a value, a
  keep-mask, or one conjunct of an ``AND`` chain) runs as **one
  generated comprehension** over its columns: no list per AST node, no
  ``operator.*`` call per value, CASE included.  One kernel is generated
  per tuple of column types (see :class:`_Fused` for the subset);
* **per-node kernels**: any other batch (a NULL, a ``bool``, a mixed
  column) or expression runs each operator as a list-comprehension
  kernel over whole columns, constant operands evaluated once per batch.
  Constructs without a kernel (CASE, scalar functions, non-constant
  IN / LIKE) compile row-wise and are mapped over the batch, so a single
  exotic sub-expression never forces the whole tree off the kernels;
* **row-wise, whole expression**: the kernels' AND / OR evaluate both
  sides over all rows, a superset of the row-wise short-circuit
  evaluation.  If that superset raises where the row compiler may not
  have — ``a IS NULL OR a < 5`` over unparseable strings, ``b = 0 OR
  a % b = 1`` — the batch transparently re-evaluates row-by-row, so the
  row compiler alone decides whether, and which, error is raised.
  Kernel success implies row-identical values, because every kernel
  computes the row formula pointwise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Callable, Mapping

from repro.common.errors import TypeMismatchError
from repro.engine.batch import Batch
from repro.expr.compiler import (
    _ARITH,
    _CASTS,
    _COMPARE,
    _coerce_pair,
    _compile,
    _fn_substring,
    _FUNCTIONS,
    _lower_schema,
    compile_predicate,
    _require_number,
    _to_str,
    like_to_regex,
)
from repro.sqlparser import ast

#: A compiled vector expression: batch -> one value per row.
VectorFunc = Callable[[Batch], list]

_NUMBER_TYPES = {int, float}
_CAST_IDENTITY = {"INT": int, "FLOAT": float, "STRING": str}


class _Node:
    """One compiled vector node: a batch evaluator, maybe a constant.

    ``thunk`` is set for column-free subtrees; it computes the scalar
    lazily (first use on a non-empty batch) so runtime type errors keep
    firing exactly when the row-wise compiler would fire them — never at
    compile time, never over an empty batch.
    """

    __slots__ = ("fn", "thunk", "_const_cache")

    def __init__(self, fn=None, thunk=None):
        self.fn = fn
        self.thunk = thunk
        self._const_cache = _UNSET

    @property
    def is_const(self) -> bool:
        return self.thunk is not None

    def const_value(self):
        if self._const_cache is _UNSET:
            self._const_cache = self.thunk()
        return self._const_cache

    def values(self, batch: Batch) -> list:
        n = len(batch)
        if n == 0:
            return []
        if self.thunk is not None:
            return [self.const_value()] * n
        return self.fn(batch)


_UNSET = object()

#: What evaluating an expression can raise: a type mismatch, ``%`` by zero or
#: an overflow, or a scalar function on a bad value (``int('x')``, ``abs('x')``).
_EVALUATION_ERRORS = (TypeMismatchError, ArithmeticError, ValueError, TypeError)


def compile_expr_vector(expr: ast.Expr, schema: Mapping[str, int]) -> VectorFunc:
    """Compile ``expr`` into a ``batch -> list of values`` function.

    Compile-time errors (unknown columns/functions, aggregates in scalar
    context) are raised here, identical to :func:`compile_expr`.
    """
    lowered = _lower_schema(schema)
    return _with_row_fallback(
        _compile_values(expr, lowered), lambda: _compile(expr, lowered)
    )


def _with_row_fallback(vector_fn: VectorFunc, compile_row_fn: Callable) -> VectorFunc:
    """``vector_fn``, re-run row by row through the (lazily compiled)
    row-wise twin whenever it raises."""
    row_fn: list = []

    def evaluate(batch: Batch) -> list:
        try:
            return vector_fn(batch)
        except _EVALUATION_ERRORS:
            # The kernels may have evaluated a (row, subexpression) pair
            # the row-wise short-circuit skips, or met two failing rows in
            # another order; the row compiler decides what is raised, if
            # anything.
            if not row_fn:
                row_fn.append(compile_row_fn())
            fn = row_fn[0]
            return [fn(row) for row in batch.iter_rows()]

    return evaluate


def compile_predicate_vector(
    expr: ast.Expr, schema: Mapping[str, int]
) -> Callable[[Batch], list]:
    """Compile a WHERE predicate into a boolean keep-mask per batch.

    The kernels run in *mask space*: because ``(A AND B) IS TRUE`` equals
    ``(A IS TRUE) AND (B IS TRUE)`` (and likewise for OR over booleans),
    the conjunction tree combines plain booleans.  Same fused tier and
    whole-expression row-wise fallback as :func:`compile_expr_vector`.
    """
    lowered = _lower_schema(schema)
    return _with_row_fallback(
        _Fused(expr, lowered, _compile_mask(expr, lowered), as_mask=True),
        lambda: compile_predicate(expr, lowered),
    )


def _is_boolean(expr: ast.Expr) -> bool:
    """Whether ``expr`` can only evaluate to ``True`` / ``False`` / NULL."""
    if isinstance(expr, ast.Binary):
        return expr.op in _COMPARE or expr.op in ("AND", "OR")
    if isinstance(expr, ast.Unary):
        return expr.op == "NOT"
    return isinstance(expr, (ast.InList, ast.Between, ast.Like, ast.IsNull))


def _compile_mask(expr: ast.Expr, schema: dict[str, int]) -> Callable[[Batch], list]:
    """``batch -> [bool]`` mask compiler (``value IS TRUE`` per row).

    The OR and NOT shortcuts hold for boolean operands only — the row
    compiler applies truthiness to anything else (``NOT 0`` is TRUE).
    """
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _compile_conjunction(ast.split_conjuncts(expr), schema)
    if (
        isinstance(expr, ast.Binary) and expr.op == "OR"
        and _is_boolean(expr.left) and _is_boolean(expr.right)
    ):
        left = _compile_mask(expr.left, schema)
        right = _compile_mask(expr.right, schema)
        return lambda batch: [a or b for a, b in zip(left(batch), right(batch))]
    if isinstance(expr, ast.Unary) and expr.op == "NOT" and _is_boolean(expr.operand):
        # NOT NULL is NULL, so the inner three-valued result is needed:
        # the mask keeps exactly the rows where it is False.
        inner = _compile_v(expr.operand, schema)
        return lambda batch: [v is False for v in inner.values(batch)]
    node = _compile_v(expr, schema)
    return lambda batch: [v is True for v in node.values(batch)]


class _Survivors(Batch):
    """The rows of a batch still alive part-way through an AND chain.

    A column is gathered from the full batch the first time a kernel
    reads it, so a conjunct pays only for the columns it references.
    ``types`` is the type memo of the batch the rows were taken from: a
    non-empty subset of a single-type column has that type (and treating
    the subset of a mixed column as mixed only costs the fused tier).
    """

    __slots__ = ("_source", "_alive")

    def __init__(self, source: list, alive: list[int], types: dict | None):
        self._source = source
        self._alive = alive
        self._types = dict(types) if types else None
        self.columns = [None] * len(source)
        self.length = len(alive)

    def column(self, i: int) -> list:
        column = self.columns[i]
        if column is None:
            source = self._source[i]
            column = self.columns[i] = [source[j] for j in self._alive]
        return column

    def iter_rows(self):
        for i in range(len(self.columns)):  # row-wise fallback kernels read whole rows
            self.column(i)
        return super().iter_rows()


def _compile_conjunction(
    conjuncts: list[ast.Expr], schema: dict[str, int]
) -> Callable[[Batch], list]:
    """AND chain as a keep-mask, each conjunct evaluated on survivors only.

    Like the row compiler, a conjunct runs on exactly the rows no earlier
    conjunct made ``False`` — a NULL does not stop the chain, it only
    keeps the row out of the result — so a later conjunct raises here iff
    it raises row-wise.  This tier serves batches and chains the fused
    tier cannot take whole; each conjunct still runs fused when the
    columns *it* reads are clean.
    """
    conjunct_values = [_compile_values(conjunct, schema) for conjunct in conjuncts]

    def conjunction(batch: Batch) -> list:
        n = len(batch)
        if not n:
            return []
        source = batch.columns
        alive = range(n)  # row positions no conjunct has made False
        unknown: list[int] = []  # alive, but some conjunct was not true: never kept
        for evaluate in conjunct_values:
            values = evaluate(batch)
            survivors = [i for i, v in zip(alive, values) if v is not False]
            if values.count(True) != len(survivors):
                unknown += [i for i, v in zip(alive, values) if not v and v is not False]
            if len(survivors) < len(values):
                alive = survivors
                batch = _Survivors(source, alive, batch._types)
        if len(alive) == n:
            mask = [True] * n
        else:
            mask = [False] * n
            for i in alive:
                mask[i] = True
        for i in unknown:
            mask[i] = False
        return mask

    return conjunction


def compile_aggregate_input_vector(
    agg: ast.Aggregate, schema: Mapping[str, int]
) -> VectorFunc:
    """Vectorized twin of :meth:`CompiledAggregate.input_value`."""
    if isinstance(agg.operand, ast.Star):
        return lambda batch: [1] * len(batch)  # COUNT(*) counts rows
    return compile_expr_vector(agg.operand, schema)


# ----------------------------------------------------------------------
# per-node compilation
# ----------------------------------------------------------------------

def _row_fallback(expr: ast.Expr, schema: dict[str, int]) -> _Node:
    """No kernel for this construct: map the row-wise closure per batch."""
    if not ast.referenced_columns(expr) and not ast.contains_aggregate(expr):
        return _fold(expr, schema)
    fn = _compile(expr, schema)
    return _Node(fn=lambda batch: [fn(row) for row in batch.iter_rows()])


def _fold(expr: ast.Expr, schema: dict[str, int]) -> _Node:
    """Column-free subtree: constant-fold (lazily) via the row compiler.

    Kernel compilers call this when every operand node is constant, so
    const-ness is decided bottom-up, never by re-walking the subtree.
    """
    fn = _compile(expr, schema)
    return _Node(thunk=lambda: fn(()))


def _compile_values(expr: ast.Expr, schema: dict[str, int]) -> VectorFunc:
    """``expr`` as ``batch -> values``: fused on clean batches, else the kernels."""
    return _Fused(expr, schema, _compile_v(expr, schema).values)


def _compile_v(expr: ast.Expr, schema: dict[str, int]) -> _Node:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return _Node(thunk=lambda: value)
    if isinstance(expr, ast.Column):
        fn = _compile(expr, schema)  # raises the canonical unknown-column error
        idx = schema[expr.name.lower()]
        return _Node(fn=lambda batch: batch.column(idx))
    if isinstance(expr, ast.Unary):
        return _compile_unary_v(expr, schema)
    if isinstance(expr, ast.Binary):
        return _compile_binary_v(expr, schema)
    if isinstance(expr, ast.Cast):
        return _compile_cast_v(expr, schema)
    if isinstance(expr, ast.InList):
        return _compile_in_v(expr, schema)
    if isinstance(expr, ast.Between):
        return _compile_between_v(expr, schema)
    if isinstance(expr, ast.Like):
        return _compile_like_v(expr, schema)
    if isinstance(expr, ast.IsNull):
        operand = _compile_v(expr.operand, schema)
        if operand.is_const:
            return _fold(expr, schema)
        negated = expr.negated
        if negated:
            return _Node(fn=lambda batch: [v is not None for v in operand.values(batch)])
        return _Node(fn=lambda batch: [v is None for v in operand.values(batch)])
    if isinstance(expr, ast.FuncCall) and _FUNCTIONS.get(expr.name) is _fn_substring:
        return _compile_substring_v(expr, schema)
    # CASE, other scalar functions, and anything new compile row-wise per batch.
    return _row_fallback(expr, schema)


def _compile_unary_v(expr: ast.Unary, schema: dict[str, int]) -> _Node:
    operand = _compile_v(expr.operand, schema)
    if operand.is_const:
        return _fold(expr, schema)
    if expr.op == "-":
        return _Node(fn=lambda batch: [
            None if v is None
            else -v if type(v) in _NUMBER_TYPES else _require_number(v, "-")  # raises
            for v in operand.values(batch)
        ])
    if expr.op == "NOT":
        return _Node(fn=lambda batch: [
            None if v is None else (not v) for v in operand.values(batch)
        ])
    return _row_fallback(expr, schema)


def _compile_binary_v(expr: ast.Binary, schema: dict[str, int]) -> _Node:
    op = expr.op
    if op in ("AND", "OR"):
        return _compile_logical_v(expr, schema)
    left = _compile_v(expr.left, schema)
    right = _compile_v(expr.right, schema)
    if left.is_const and right.is_const:
        return _fold(expr, schema)
    if op == "||":
        def concat(batch: Batch) -> list:
            return [
                None if a is None or b is None else _to_str(a) + _to_str(b)
                for a, b in zip(left.values(batch), right.values(batch))
            ]
        return _Node(fn=concat)
    if op == "/":
        return _Node(fn=_divide_kernel(left, right))
    if op in _ARITH:
        return _Node(fn=_arith_kernel(op, left, right))
    if op in _COMPARE:
        return _Node(fn=_compare_kernel(op, left, right))
    return _row_fallback(expr, schema)


def _compile_logical_v(expr: ast.Binary, schema: dict[str, int]) -> _Node:
    left = _compile_v(expr.left, schema)
    right = _compile_v(expr.right, schema)
    if left.is_const and right.is_const:
        return _fold(expr, schema)
    if expr.op == "AND":
        def conj(batch: Batch) -> list:
            return [
                False if a is False or b is False
                else None if a is None or b is None
                else bool(a) and bool(b)
                for a, b in zip(left.values(batch), right.values(batch))
            ]
        return _Node(fn=conj)

    def disj(batch: Batch) -> list:
        return [
            True if a is True or b is True
            else None if a is None or b is None
            else bool(a) or bool(b)
            for a, b in zip(left.values(batch), right.values(batch))
        ]
    return _Node(fn=disj)


def _arith_one(a: object, b: object, op: str, fn) -> object:
    _require_number(a, op)
    _require_number(b, op)
    return fn(a, b)


def _arith_kernel(op: str, left: _Node, right: _Node):
    fn = _ARITH[op]

    def arith_generic(batch: Batch) -> list:
        return [
            None if a is None or b is None
            else fn(a, b) if type(a) in _NUMBER_TYPES and type(b) in _NUMBER_TYPES
            else _arith_one(a, b, op, fn)
            for a, b in zip(left.values(batch), right.values(batch))
        ]

    const, column = (right, left) if right.is_const else (left, right)
    if not const.is_const:
        return arith_generic

    def arith_const(batch: Batch) -> list:
        c = const.const_value()
        if type(c) not in _NUMBER_TYPES:
            return arith_generic(batch)  # NULL or a type error, row by row
        vals = column.values(batch)
        if const is left:
            return [
                None if v is None
                else fn(c, v) if type(v) in _NUMBER_TYPES
                else _arith_one(c, v, op, fn)
                for v in vals
            ]
        return [
            None if v is None
            else fn(v, c) if type(v) in _NUMBER_TYPES
            else _arith_one(v, c, op, fn)
            for v in vals
        ]

    return arith_const


def _divide_one(a: object, b: object) -> object:
    _require_number(a, "/")
    _require_number(b, "/")
    if b == 0:
        return None  # row-wise compiler: NULL keeps scans total
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _divide_kernel(left: _Node, right: _Node):
    def divide(batch: Batch) -> list:
        return [
            None if a is None or b is None else _divide_one(a, b)
            for a, b in zip(left.values(batch), right.values(batch))
        ]
    return divide


def _compare_one(a: object, b: object, op: str, fn) -> object:
    ca, cb = _coerce_pair(a, b, op)
    return fn(ca, cb)


def _compare_kernel(op: str, left: _Node, right: _Node):
    fn = _COMPARE[op]

    def compare_generic(batch: Batch) -> list:
        return [
            None if a is None or b is None
            else fn(a, b)
            if type(a) is type(b) and (type(a) in _NUMBER_TYPES or type(a) is str)
            else _compare_one(a, b, op, fn)
            for a, b in zip(left.values(batch), right.values(batch))
        ]

    const, column = (right, left) if right.is_const else (left, right)
    if not const.is_const:
        return compare_generic

    def compare_const(batch: Batch) -> list:
        if not len(batch):
            return []
        c = const.const_value()
        vals = column.values(batch)
        if c is None:
            return [None] * len(vals)
        # Same-type fast path: numbers against a number, strings against
        # a string, skip _coerce_pair (it would return the pair as-is).
        same = _NUMBER_TYPES if type(c) in _NUMBER_TYPES else {str} if type(c) is str else ()
        if const is left:
            return [
                None if v is None
                else fn(c, v) if type(v) in same else _compare_one(c, v, op, fn)
                for v in vals
            ]
        return [
            None if v is None
            else fn(v, c) if type(v) in same else _compare_one(v, c, op, fn)
            for v in vals
        ]

    return compare_const


def _compile_cast_v(expr: ast.Cast, schema: dict[str, int]) -> _Node:
    caster = _CASTS.get(expr.type_name)
    if caster is None:
        return _row_fallback(expr, schema)  # canonical unsupported-CAST error
    operand = _compile_v(expr.operand, schema)
    if operand.is_const:
        return _fold(expr, schema)
    type_name = expr.type_name
    same = _CAST_IDENTITY.get(type_name)  # values of this type cast to themselves

    def cast_one(v: object) -> object:
        try:
            return caster(v)
        except (ValueError, TypeError) as exc:
            raise TypeMismatchError(f"cannot CAST {v!r} to {type_name}") from exc

    return _Node(fn=lambda batch: [
        v if v is None or type(v) is same else cast_one(v)
        for v in operand.values(batch)
    ])


def _compile_in_v(expr: ast.InList, schema: dict[str, int]) -> _Node:
    if not all(isinstance(item, ast.Literal) for item in expr.items):
        return _row_fallback(expr, schema)
    operand = _compile_v(expr.operand, schema)
    if operand.is_const:
        return _fold(expr, schema)
    literals = [item.value for item in expr.items]  # type: ignore[union-attr]
    values = frozenset(v for v in literals if v is not None)
    has_null_item = any(v is None for v in literals)
    negated = expr.negated
    hit, miss = (not negated), (None if has_null_item else negated)

    def member(batch: Batch) -> list:
        return [
            None if v is None else hit if v in values else miss
            for v in operand.values(batch)
        ]
    return _Node(fn=member)


def _map_rows(one: Callable, operands: list[_Node]) -> _Node:
    """A row compiler closure (one definition of the formula) applied to
    the tuples of vectorized operand values."""
    return _Node(fn=lambda batch: [
        one(row) for row in zip(*(o.values(batch) for o in operands))
    ])


def _compile_between_v(expr: ast.Between, schema: dict[str, int]) -> _Node:
    operands = [_compile_v(e, schema) for e in (expr.operand, expr.low, expr.high)]
    if all(operand.is_const for operand in operands):
        return _fold(expr, schema)
    slots = {"0": 0, "1": 1, "2": 2}
    between = ast.Between(*map(ast.Column, slots), negated=expr.negated)
    return _map_rows(_compile(between, slots), operands)


def _compile_like_v(expr: ast.Like, schema: dict[str, int]) -> _Node:
    if not (isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str)):
        return _row_fallback(expr, schema)
    operand = _compile_v(expr.operand, schema)
    if operand.is_const:
        return _fold(expr, schema)
    match = like_to_regex(expr.pattern.value).match
    negated = expr.negated
    return _Node(fn=lambda batch: [
        None if v is None else (match(_to_str(v)) is None) is negated
        for v in operand.values(batch)
    ])


def _compile_substring_v(expr: ast.FuncCall, schema: dict[str, int]) -> _Node:
    if len(expr.args) not in (2, 3):
        return _row_fallback(expr, schema)  # canonical arity error
    operands = [_compile_v(arg, schema) for arg in expr.args]
    if all(operand.is_const for operand in operands):
        return _fold(expr, schema)
    one = _fn_substring([lambda row, i=i: row[i] for i in range(len(operands))])
    return _map_rows(one, operands)


# ----------------------------------------------------------------------
# fused kernels for clean batches
# ----------------------------------------------------------------------

_ANY = object()  # every column's type in the dry run: passes each type test below
_OPAQUE = object()  # no static type (may be NULL): legal at the root and as a CASE branch
_CLEAN_TYPES = (int, float, str)
_NUMBER, _INT, _TEXT, _BOOL = (int, float, _ANY), (int, _ANY), (str, _ANY), (bool, _ANY)
_PY_OPS = {"=": "==", "<>": "!=", "AND": "and", "OR": "or"}
_kernel_lines = count(1)


class _Unfusable(Exception):
    """The expression, at these column types, is outside the fused subset."""


def _comparable(a: object, b: object) -> bool:
    """Number with number or string with string: no ``_coerce_pair`` case."""
    return (a in _NUMBER and b in _NUMBER) or (a in _TEXT and b in _TEXT)


def _column_types(batch: Batch, columns: list[int]) -> tuple:
    """The guard: each listed column's one Python type (``None``: NULLs or
    mixed), one C-speed pass per column, memoised on the batch."""
    memo = batch._types
    if memo is None:
        memo = batch._types = {}
    for i in columns:
        if i not in memo:
            kinds = set(map(type, batch.column(i)))
            memo[i] = kinds.pop() if len(kinds) == 1 else None
    return tuple([memo[i] for i in columns])


@lru_cache(maxsize=256)
def _kernel_factory(text: str) -> Callable:
    """``text`` compiled once: it depends only on an expression's shape, and
    a statement is re-prepared per scan.  Compiled under this file's name,
    each text at a line of its own, because profilers key a function by
    (file, line, name): kernel time stays attributed to this module."""
    namespace: dict = {}
    exec(compile("\n" * (next(_kernel_lines) % 4096) + text, __file__, "exec"), namespace)
    return namespace["bind"]


class _Fused:
    """One expression as one generated comprehension per tuple of column types.

    The subset, typed bottom-up from the guard's column types: columns and
    int / float / str literals; ``+ - * %`` and unary minus over numbers;
    comparisons and BETWEEN (column or literal bounds) of number with
    number or string with string; AND / OR / NOT over booleans; searched
    CASE with boolean conditions (no ELSE, or branches of different
    types, make the result opaque); IN over non-NULL literals; LIKE a
    literal pattern; IS NULL of a column; identity and int -> float
    CASTs; ``SUBSTRING(text column or literal, int, literal length >=
    0)``; one-argument scalar functions, by calling the row compiler's
    own closure.  On clean operands each of these *is* the row compiler's
    formula.  Left to the per-node kernels: ``/`` (NULL on zero), ``||``,
    CASTs that can raise, NULL / boolean literals, non-literal IN / LIKE.

    The generated text holds operators and generated identifiers only:
    every literal (a Bloom bit string is ~29 KB), matcher, set and helper
    is a bound constant.  Request threads share an instance: a racing
    first batch may generate twice, but ``kernels`` entries are stored
    complete.
    """

    __slots__ = ("expr", "schema", "fallback", "as_mask", "columns", "kernels")

    def __init__(
        self, expr: ast.Expr, schema: dict[str, int], fallback: VectorFunc, as_mask: bool = False
    ):
        self.expr, self.schema, self.as_mask = expr, schema, as_mask
        self.fallback = fallback  # the per-node kernels, for everything not fused
        columns = sorted({schema[name.lower()] for name in ast.referenced_columns(expr)})
        #: Referenced column positions, or ``None``: never fused, no guard paid
        #: (a bare column, which the kernels return uncopied; no column at all;
        #: or, found by a dry run when a typing first fails, no typing can work).
        self.columns: list[int] | None = (
            None if isinstance(expr, ast.Column) or not columns else columns
        )
        self.kernels: dict[tuple, Callable | None] = {}

    def __call__(self, batch: Batch) -> list:
        """The values (with ``as_mask``, the keep-mask) of ``expr`` over ``batch``."""
        columns = self.columns
        if columns is not None and len(batch):
            types = _column_types(batch, columns)
            try:
                kernel = self.kernels[types]
            except KeyError:
                kernel = self.kernels[types] = self._generate(columns, types)
                if kernel is None and self._emit(columns, (_ANY,) * len(columns)) is None:
                    self.columns = None
            if kernel is not None:
                return kernel(*map(batch.column, columns))
        return self.fallback(batch)

    def _emit(self, columns: list[int], types: tuple) -> tuple | None:
        emitter = _Emitter(self.schema, dict(zip(columns, types)))
        try:
            return *emitter.emit(self.expr, 0), emitter.bound
        except _Unfusable:
            return None

    def _generate(self, columns: list[int], types: tuple) -> Callable | None:
        """The kernel for ``columns`` of ``types``; ``None`` unless they are
        clean and type the expression inside the subset."""
        emitted = all(kind in _CLEAN_TYPES for kind in types) and self._emit(columns, types)
        if not emitted:
            return None
        source, kind, bound = emitted
        if self.as_mask and kind is not bool:
            source = f"({source}) is True"
        rows, args = (", ".join(f"{v}{i}" for i in columns) for v in "vx")
        text = (
            f"def bind({', '.join(f'c{i}' for i in range(len(bound)))}):\n"
            f" def kernel({args}):\n"
            f"  return [{source} for {rows} in {args if len(types) == 1 else f'zip({args})'}]\n"
            f" return kernel\n"
        )
        return _kernel_factory(text)(*bound)


class _Emitter:
    """Writes one kernel's row expression over the row variables ``v<i>``."""

    def __init__(self, schema: dict[str, int], types: dict[int, object]):
        self.schema, self.types = schema, types
        self.bound: list = []  # constants, bound as c0, c1, ...

    def bind(self, value: object) -> str:
        self.bound.append(value)
        return f"c{len(self.bound) - 1}"

    def emit(self, expr: ast.Expr, depth: int) -> tuple[str, object]:
        """``(source, static type)`` of ``expr``, or :class:`_Unfusable`."""
        if depth > 60:  # keeps parenthesis nesting inside the parser's limit
            raise _Unfusable
        depth += 1
        if isinstance(expr, ast.Literal):
            if type(expr.value) in _CLEAN_TYPES:
                return self.bind(expr.value), type(expr.value)
        elif isinstance(expr, ast.Column):
            idx = self.schema[expr.name.lower()]
            return f"v{idx}", self.types[idx]
        elif isinstance(expr, ast.IsNull):
            if isinstance(expr.operand, ast.Column):  # a clean column holds no NULL
                return repr(expr.negated), bool
        elif isinstance(expr, ast.Unary):
            src, kind = self.emit(expr.operand, depth)
            if expr.op == "-" and kind in _NUMBER:
                return f"(-{src})", kind
            if expr.op == "NOT" and kind in _BOOL:
                return f"(not {src})", bool
        elif isinstance(expr, ast.Binary):
            op = expr.op
            (left, lk), (right, rk) = self.emit(expr.left, depth), self.emit(expr.right, depth)
            if op in _ARITH and lk in _NUMBER and rk in _NUMBER:
                kind = _ANY if _ANY in (lk, rk) else int if lk is rk is int else float
                return f"({left} {op} {right})", kind
            if (op in _COMPARE and _comparable(lk, rk)) or (
                op in ("AND", "OR") and lk in _BOOL and rk in _BOOL
            ):
                return f"({left} {_PY_OPS.get(op, op)} {right})", bool
        elif isinstance(expr, ast.Case):
            parts, kinds = [], set()
            for cond, value in expr.whens:
                test, kind = self.emit(cond, depth)
                if kind not in _BOOL:
                    raise _Unfusable
                src, kind = self.emit(value, depth)
                parts.append(f"{src} if {test} else ")
                kinds.add(kind)
            src, kind = ("None", _OPAQUE) if expr.default is None else self.emit(expr.default, depth)
            kinds.add(kind)
            if len(kinds) > 1:
                kind = _ANY if _ANY in kinds and _OPAQUE not in kinds else _OPAQUE
            return f"({''.join(parts)}{src})", kind
        elif isinstance(expr, ast.InList):
            src, kind = self.emit(expr.operand, depth)
            items = [item.value for item in expr.items if isinstance(item, ast.Literal)]
            if len(items) == len(expr.items) and None not in items and kind in (*_CLEAN_TYPES, _ANY):
                return f"({src} {'not ' * expr.negated}in {self.bind(frozenset(items))})", bool
        elif isinstance(expr, ast.Between):
            src, kind = self.emit(expr.operand, depth)
            (low, lk), (high, hk) = self.emit(expr.low, depth), self.emit(expr.high, depth)
            # Atom bounds cannot raise, so the chained comparison's order and
            # short-circuit are unobservable.
            atoms = all(isinstance(e, (ast.Literal, ast.Column)) for e in (expr.low, expr.high))
            if atoms and _comparable(kind, lk) and _comparable(kind, hk):
                return f"({'not ' * expr.negated}{low} <= {src} <= {high})", bool
        elif isinstance(expr, ast.Like):
            src, kind = self.emit(expr.operand, depth)
            pattern = expr.pattern
            if isinstance(pattern, ast.Literal) and type(pattern.value) is str and kind in _TEXT:
                match = self.bind(like_to_regex(pattern.value).match)
                return f"({match}({src}) is {'not ' * (not expr.negated)}None)", bool
        elif isinstance(expr, ast.Cast):
            src, kind = self.emit(expr.operand, depth)
            target = _CAST_IDENTITY.get(expr.type_name)
            if target is not None and kind in (target, _ANY):
                return src, target
            if target is float and kind is int:
                return f"{self.bind(float)}({src})", float
        elif isinstance(expr, ast.FuncCall):
            builder = _FUNCTIONS.get(expr.name)
            if builder is _fn_substring and len(expr.args) == 3:
                (text, tk), (start, sk) = self.emit(expr.args[0], depth), self.emit(expr.args[1], depth)
                n = expr.args[2].value if isinstance(expr.args[2], ast.Literal) else None
                if type(n) is int and n >= 0 and text.isidentifier() and tk in _TEXT and sk in _INT:
                    # _fn_substring over a str and an int: a start before
                    # position 1 still counts the length from there.
                    at, n = f"t{len(self.bound)}", self.bind(n)
                    return (
                        f"({text}[{at} - 1:{at} - 1 + {n}] if ({at} := {start}) > 0"
                        f" else {text}[:{self.bind(max)}({at} - 1 + {n}, 0)])"
                    ), str
            elif builder is not None and builder is not _fn_substring and len(expr.args) == 1:
                src, kind = self.emit(expr.args[0], depth)
                if kind in (*_CLEAN_TYPES, _ANY):
                    return f"{self.bind(builder([lambda value: value]))}({src})", _OPAQUE
        raise _Unfusable
