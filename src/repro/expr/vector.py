"""Vectorized expression compilation over columnar Batches.

``compile_expr_vector(expr, schema)`` returns a ``batch -> list[value]``
function mirroring :func:`repro.expr.compiler.compile_expr` value-for-
value: same three-valued NULL semantics, same coercions, same errors.
Instead of calling a closure per row, each supported operator runs as a
list-comprehension kernel over whole columns, with constant operands
folded once per batch.

Two fallback layers keep the vector path exactly row-equivalent:

* **per-node**: constructs without a kernel (CASE, scalar functions,
  non-constant IN/LIKE) compile row-wise and are mapped over the batch,
  so a single exotic sub-expression never forces the whole tree off the
  fast path;
* **whole-expression**: vectorized AND/OR evaluate both sides over all
  rows, a superset of the row-wise short-circuit evaluation.  If that
  superset hits a :class:`TypeMismatchError` the row-wise compiler may
  not have — e.g. ``a IS NULL OR a < 5`` over unparseable strings — the
  batch transparently re-evaluates row-by-row.  Vector success implies
  row-identical values, because every kernel computes the row formula
  pointwise.
"""

from __future__ import annotations

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


def compile_expr_vector(expr: ast.Expr, schema: Mapping[str, int]) -> VectorFunc:
    """Compile ``expr`` into a ``batch -> list of values`` function.

    Compile-time errors (unknown columns/functions, aggregates in scalar
    context) are raised here, identical to :func:`compile_expr`.
    """
    lowered = _lower_schema(schema)
    node = _compile_v(expr, lowered)
    row_fn: list = []  # lazily compiled row-wise twin for the fallback

    def evaluate(batch: Batch) -> list:
        try:
            return node.values(batch)
        except TypeMismatchError:
            # The vector path evaluated a (row, subexpression) pair the
            # row-wise short-circuit would have skipped; re-run this
            # batch row-by-row for exact semantics.
            if not row_fn:
                row_fn.append(_compile(expr, lowered))
            fn = row_fn[0]
            return [fn(row) for row in batch.iter_rows()]

    return evaluate


def compile_predicate_vector(
    expr: ast.Expr, schema: Mapping[str, int]
) -> Callable[[Batch], list]:
    """Compile a WHERE predicate into a boolean keep-mask per batch.

    Runs in *mask space*: because ``(A AND B) IS TRUE`` equals
    ``(A IS TRUE) AND (B IS TRUE)`` (and likewise for OR), the whole
    conjunction tree combines plain booleans and comparison leaves emit
    booleans directly — the three-valued intermediates are never
    materialized.  Same whole-expression row-wise fallback as
    :func:`compile_expr_vector`.
    """
    lowered = _lower_schema(schema)
    mask_fn = _compile_mask(expr, lowered)
    row_pred: list = []

    def predicate_mask(batch: Batch) -> list:
        try:
            return mask_fn(batch)
        except TypeMismatchError:
            if not row_pred:
                row_pred.append(compile_predicate(expr, lowered))
            pred = row_pred[0]
            return [pred(row) for row in batch.iter_rows()]

    return predicate_mask


def _compile_mask(expr: ast.Expr, schema: dict[str, int]) -> Callable[[Batch], list]:
    """``batch -> [bool]`` mask compiler (``value IS TRUE`` per row)."""
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _compile_conjunction(ast.split_conjuncts(expr), schema)
    if isinstance(expr, ast.Binary) and expr.op == "OR":
        left = _compile_mask(expr.left, schema)
        right = _compile_mask(expr.right, schema)
        return lambda batch: [a or b for a, b in zip(left(batch), right(batch))]
    if isinstance(expr, ast.Binary) and expr.op in _COMPARE:
        return _compare_mask_kernel(
            expr.op, _compile_v(expr.left, schema), _compile_v(expr.right, schema)
        )
    if isinstance(expr, ast.Unary) and expr.op == "NOT":
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
    """

    __slots__ = ("_source", "_alive")

    def __init__(self, source: list, alive: list[int]):
        self._source = source
        self._alive = alive
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


def _is_column_cast(node: ast.Expr) -> bool:
    return (
        isinstance(node, ast.Cast)
        and isinstance(node.operand, ast.Column)
        and node.type_name in _CASTS
    )


def _compile_conjunction(
    conjuncts: list[ast.Expr], schema: dict[str, int]
) -> Callable[[Batch], list]:
    """AND chain as a keep-mask, each conjunct evaluated on survivors only.

    Like the row compiler, a conjunct runs on exactly the rows no earlier
    conjunct made ``False`` — a NULL does not stop the chain, it only
    keeps the row out of the result — so a later conjunct raises here iff
    it raises row-wise.  The Bloom-join predicate is the shape this is
    for: ``k`` expensive conjuncts, the first already rejecting most rows.

    A ``CAST(column AS type)`` the first conjunct shares with later ones
    (the Bloom probe's hash input) is evaluated once per batch and read
    like a column: ``schema`` maps the AST node to an extra column slot.
    """
    shared = list(dict.fromkeys(filter(_is_column_cast, ast.walk(conjuncts[0]))))
    if shared:
        later = {n for c in conjuncts[1:] for n in ast.walk(c) if _is_column_cast(n)}
        shared = [node for node in shared if node in later]
    width = max(schema.values(), default=-1) + 1
    casts = [_compile_v(node, schema) for node in shared]
    schema = {**schema, **{node: width + i for i, node in enumerate(shared)}}
    nodes = [_compile_v(conjunct, schema) for conjunct in conjuncts]

    def conjunction(batch: Batch) -> list:
        n = len(batch)
        if not n:
            return []
        source = batch.columns
        if casts:
            source = source[:width] + [cast.values(batch) for cast in casts]
            batch = Batch(source, n)
        alive = range(n)  # row positions no conjunct has made False
        unknown: list[int] = []  # alive, but some conjunct was not true: never kept
        for node in nodes:
            values = node.values(batch)
            survivors = [i for i, v in zip(alive, values) if v is not False]
            if values.count(True) != len(survivors):
                unknown += [i for i, v in zip(alive, values) if not v and v is not False]
            if len(survivors) < len(values):
                alive = survivors
                batch = _Survivors(source, alive)
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


def _compare_mask_kernel(op: str, left: _Node, right: _Node):
    """Bool-mask comparison kernels (the 3VL column is never built)."""
    fn = _COMPARE[op]

    const, column = (right, left) if right.is_const else (left, right)
    if not const.is_const:
        def mask_generic(batch: Batch) -> list:
            return [
                a is not None and b is not None and (
                    fn(a, b)
                    if type(a) is type(b)
                    and (type(a) in _NUMBER_TYPES or type(a) is str)
                    else _compare_one(a, b, op, fn) is True
                )
                for a, b in zip(left.values(batch), right.values(batch))
            ]

        return mask_generic

    def mask_const(batch: Batch) -> list:
        n = len(batch)
        if not n:
            return []
        c = const.const_value()
        if c is None:
            return [False] * n
        vals = column.values(batch)
        flipped = const is left
        if type(c) in _NUMBER_TYPES:
            if flipped:
                return [
                    v is not None and (
                        fn(c, v) if type(v) in _NUMBER_TYPES
                        else _compare_one(c, v, op, fn) is True
                    )
                    for v in vals
                ]
            return [
                v is not None and (
                    fn(v, c) if type(v) in _NUMBER_TYPES
                    else _compare_one(v, c, op, fn) is True
                )
                for v in vals
            ]
        if type(c) is str:
            if flipped:
                return [
                    v is not None and (
                        fn(c, v) if type(v) is str
                        else _compare_one(c, v, op, fn) is True
                    )
                    for v in vals
                ]
            return [
                v is not None and (
                    fn(v, c) if type(v) is str
                    else _compare_one(v, c, op, fn) is True
                )
                for v in vals
            ]
        if flipped:
            return [
                v is not None and _compare_one(c, v, op, fn) is True
                for v in vals
            ]
        return [
            v is not None and _compare_one(v, c, op, fn) is True for v in vals
        ]

    return mask_const


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
        def negate(batch: Batch) -> list:
            out = []
            for v in operand.values(batch):
                if v is None:
                    out.append(None)
                elif type(v) in _NUMBER_TYPES:
                    out.append(-v)
                else:
                    _require_number(v, "-")
            return out
        return _Node(fn=negate)
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
        flipped = const is left
        # Same-type fast path: numbers against a number, strings against
        # a string, skip _coerce_pair (it would return the pair as-is).
        if type(c) in _NUMBER_TYPES:
            if flipped:
                return [
                    None if v is None
                    else fn(c, v) if type(v) in _NUMBER_TYPES
                    else _compare_one(c, v, op, fn)
                    for v in vals
                ]
            return [
                None if v is None
                else fn(v, c) if type(v) in _NUMBER_TYPES
                else _compare_one(v, c, op, fn)
                for v in vals
            ]
        if type(c) is str:
            if flipped:
                return [
                    None if v is None
                    else fn(c, v) if type(v) is str
                    else _compare_one(c, v, op, fn)
                    for v in vals
                ]
            return [
                None if v is None
                else fn(v, c) if type(v) is str
                else _compare_one(v, c, op, fn)
                for v in vals
            ]
        if flipped:
            return [None if v is None else _compare_one(c, v, op, fn) for v in vals]
        return [None if v is None else _compare_one(v, c, op, fn) for v in vals]

    return compare_const


def _compile_cast_v(expr: ast.Cast, schema: dict[str, int]) -> _Node:
    caster = _CASTS.get(expr.type_name)
    if caster is None:
        return _row_fallback(expr, schema)  # canonical unsupported-CAST error
    slot = schema.get(expr)
    if slot is not None:  # an AND chain computed this CAST once for the batch
        return _Node(fn=lambda batch: batch.column(slot))
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


def _compile_between_v(expr: ast.Between, schema: dict[str, int]) -> _Node:
    operand = _compile_v(expr.operand, schema)
    low = _compile_v(expr.low, schema)
    high = _compile_v(expr.high, schema)
    if operand.is_const and low.is_const and high.is_const:
        return _fold(expr, schema)
    negated = expr.negated

    def between(batch: Batch) -> list:
        out = []
        for value, lo, hi in zip(
            operand.values(batch), low.values(batch), high.values(batch)
        ):
            above: object = None
            if value is not None and lo is not None:
                a, b = _coerce_pair(value, lo, "BETWEEN")
                above = a >= b
            below: object = None
            if value is not None and hi is not None:
                a, b = _coerce_pair(value, hi, "BETWEEN")
                below = a <= b
            if above is False or below is False:
                out.append(negated)
            elif above is None or below is None:
                out.append(None)  # NOT of UNKNOWN is still UNKNOWN
            else:
                out.append(not negated)
        return out
    return _Node(fn=between)


def _compile_like_v(expr: ast.Like, schema: dict[str, int]) -> _Node:
    if not (isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str)):
        return _row_fallback(expr, schema)
    operand = _compile_v(expr.operand, schema)
    if operand.is_const:
        return _fold(expr, schema)
    match = like_to_regex(expr.pattern.value).match
    negated = expr.negated
    if negated:
        return _Node(fn=lambda batch: [
            None if v is None else match(_to_str(v)) is None
            for v in operand.values(batch)
        ])
    return _Node(fn=lambda batch: [
        None if v is None else match(_to_str(v)) is not None
        for v in operand.values(batch)
    ])


def _compile_substring_v(expr: ast.FuncCall, schema: dict[str, int]) -> _Node:
    """SUBSTRING(text, start[, length]) over vectorized operands.

    The per-row formula is :func:`compiler._fn_substring` itself, applied
    to operand tuples; a constant text and length (the Bloom-join
    predicate's bit string) fold once per batch and in-range integer
    positions slice directly.
    """
    if len(expr.args) not in (2, 3):
        return _row_fallback(expr, schema)  # canonical arity error
    operands = [_compile_v(arg, schema) for arg in expr.args]
    if all(operand.is_const for operand in operands):
        return _fold(expr, schema)
    one = _fn_substring([lambda row, i=i: row[i] for i in range(len(operands))])
    folded = len(operands) == 3 and operands[0].is_const and operands[2].is_const

    def substring(batch: Batch) -> list:
        if folded:
            text, length = operands[0].const_value(), operands[2].const_value()
            if type(text) is str and type(length) is int and length >= 0:
                return [
                    None if start is None
                    else text[start - 1 : start - 1 + length]
                    if type(start) is int and start > 0
                    else one((text, start, length))
                    for start in operands[1].values(batch)
                ]
        return [one(row) for row in zip(*(o.values(batch) for o in operands))]
    return _Node(fn=substring)
