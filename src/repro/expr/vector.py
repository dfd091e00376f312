"""Vectorized expression compilation over columnar Batches.

``compile_expr_vector(expr, schema)`` returns a ``batch -> list[value]``
function mirroring :func:`repro.expr.compiler.compile_expr` value-for-
value: same three-valued NULL semantics, same coercions, same errors.
There are two tiers:

* **one generated comprehension per batch typing.**  The guard types
  each referenced column of a batch as ``(kind, nullable)`` — one
  ``set(map(type, column))`` pass, memoised per ``(batch, column)``.
  The kind is ``int``, ``float``, *number* (ints and floats mixed:
  Python's arithmetic and comparison do not care) or ``str``; anything
  else (a ``bool``, text among numbers, nothing but NULLs) is *opaque*.
  ``{T}`` and ``{T, NULL}`` are the same kind and differ in nullability.
  The emitter types every sub-expression the same way, bottom-up, and
  writes the whole expression (a value, or a keep-mask) as **one list
  comprehension** over its columns: no list per AST node, no
  ``operator.*`` call per value.

  - Where nothing is nullable and every kind is known, NULL propagation
    and type dispatch are vacuous and the text is bare Python operators.
  - A nullable operand gets the row formula's NULL test inline: ``None
    if … is None else …`` over walrus temporaries, Kleene AND / OR / NOT,
    CASE conditions tested ``is True``, IS NULL as a real test.
  - An opaque operand, or a construct with no inline form (``/``, ``||``,
    narrowing CASTs, IN / LIKE over non-literals, multi-argument
    functions, comparisons that coerce), is evaluated by the row
    compiler's own closure *for that node alone*, bound as a constant
    and called on the inline-evaluated operands.

  So the generator is total: whatever the row compiler compiles has a
  kernel at every typing.
* **the row compiler**, the semantics oracle.  Whatever a kernel
  raises — ``b = 0 OR a % b = 1``, a CAST of an unparseable string — the
  batch is re-evaluated row by row, so the row compiler alone decides
  whether, and which, error is raised.  (It also evaluates an expression
  nested too deeply to be generated as one Python expression.)

A WHERE chain ending in a **probe run** (``SUBSTRING(S, P, 1) = 'c'``
conjuncts differing only in P's int literals: Listing 1) evaluates it, over
the int keys the head kept (a NULL key fails its row), as one ``(k × rows)``
int64 numpy computation from :data:`PROBE_RUN_MIN_ROWS` keys: numpy costs ≈
30 µs + 0.2 µs a row, the comprehension 0.6-1.3 µs a row (best of 9, 8-512
rows, 2-core x86).  Exact: no intermediate's bound reaches 2^63, numpy's
``%`` has Python's sign rule, and no hash raises, so evaluating all k past
a miss is unobservable.  Other batches take the comprehension.

The invariant between the two: **a kernel may succeed only where the
row compiler succeeds, and then with its values.**  So a kernel
evaluates, for each row, at least every sub-expression the row compiler
evaluates.  A strict operator computes all its operands before its NULL
test, as ``a, b = left(row), right(row)`` does: a computed operand is
never skipped because its sibling is NULL.  AND / OR / CASE / COALESCE
skip what the row compiler skips and no more: a NULL conjunct does not
stop an AND chain, only a ``False`` does.  Every value is computed by
the row formula, inline or called.  Column-free sub-expressions are
evaluated per row like any other — never at compile time, never over an
empty batch.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from typing import Callable, Mapping

import numpy as np

from repro.common.errors import TypeMismatchError, UnsupportedFeatureError
from repro.engine.batch import Batch
from repro.expr.compiler import (
    _ARITH,
    _COMPARE,
    _compile,
    _fn_coalesce,
    _fn_substring,
    _FUNCTIONS,
    _lower_schema,
    compile_predicate,
    like_to_regex,
)
from repro.sqlparser import ast

#: A compiled vector expression: batch -> one value per row.
VectorFunc = Callable[[Batch], list]


class _Unfusable(Exception):
    """The expression nests too deeply to be one Python expression."""


#: What evaluating an expression can raise: a type mismatch, ``%`` by zero or
#: an overflow, or a scalar function on a bad value (``int('x')``, ``abs('x')``);
#: and what generating its kernel can.
_EVALUATION_ERRORS = (TypeMismatchError, ArithmeticError, ValueError, TypeError, _Unfusable)


def compile_expr_vector(expr: ast.Expr, schema: Mapping[str, int]) -> VectorFunc:
    """Compile ``expr`` into a ``batch -> list of values`` function.

    Compile-time errors (unknown columns/functions, aggregates in scalar
    context) are raised here, identical to :func:`compile_expr`: the row
    compiler runs first.
    """
    lowered = _lower_schema(schema)
    row_fn = _compile(expr, lowered)
    if isinstance(expr, ast.Column):
        idx = lowered[expr.name.lower()]
        return lambda batch: batch.column(idx)  # uncopied
    return _or_row_wise(_Fused(expr, lowered), row_fn)


def _or_row_wise(vector_fn: VectorFunc, row_fn: Callable) -> VectorFunc:
    """``vector_fn``, re-run row by row through its row-wise twin whenever it raises."""

    def evaluate(batch: Batch) -> list:
        try:
            return vector_fn(batch)
        except _EVALUATION_ERRORS:
            # The kernel may have evaluated a (row, subexpression) pair the
            # row-wise short-circuit skips; the row compiler decides what is
            # raised, if anything.
            return [row_fn(row) for row in batch.iter_rows()]

    return evaluate


def compile_predicate_vector(
    expr: ast.Expr, schema: Mapping[str, int]
) -> Callable[[Batch], list]:
    """Compile a WHERE predicate into a boolean keep-mask per batch.

    The kernel runs in *mask space*: it computes ``value IS TRUE``, and
    Python's per-row ``and`` over an AND chain is the row compiler's
    rule that a conjunct runs on exactly the rows no earlier conjunct
    made ``False``.  Same row-wise fallback as :func:`compile_expr_vector`.
    """
    lowered = _lower_schema(schema)
    row_fn = compile_predicate(expr, lowered)
    chain = _ProbeChain(expr, lowered, _Fused(expr, lowered, as_mask=True))
    return _or_row_wise(chain if chain.column is not None else chain.mask, row_fn)


def compile_aggregate_input_vector(
    agg: ast.Aggregate, schema: Mapping[str, int]
) -> VectorFunc:
    """The values an aggregate call folds, per batch: its operand's, or a
    1 per row for ``COUNT(*)``, which counts rows, not values.

    Raises :class:`UnsupportedFeatureError` for any other ``*`` operand.
    """
    if isinstance(agg.operand, ast.Star):
        if agg.func != "COUNT":
            raise UnsupportedFeatureError(f"{agg.func}(*) is not valid SQL")
        return lambda batch: [1] * len(batch)
    return compile_expr_vector(agg.operand, schema)


# ----------------------------------------------------------------------
# the guard: typing a batch
# ----------------------------------------------------------------------

_NUM = object()  # ints and floats mixed: a number, but no CAST is its identity
_OPAQUE = object()  # no static kind: only the row compiler's closures read it
_NUMBERS = {int, float, _NUM}
_NULL = type(None)
_KINDS = {
    frozenset({int}): int, frozenset({float}): float, frozenset({str}): str,
    frozenset({int, float}): _NUM,
}


def _column_types(batch: Batch, columns: list[int]) -> tuple:
    """The guard: each listed column's ``(kind, nullable)``, one C-speed pass
    per column, memoised on the batch."""
    memo = batch._types
    if memo is None:
        memo = batch._types = {}
    for i in columns:
        if i not in memo:
            types = set(map(type, batch.column(i)))
            kind = _KINDS.get(frozenset(types - {_NULL}), _OPAQUE)
            memo[i] = (kind, kind is _OPAQUE or _NULL in types)
    return tuple([memo[i] for i in columns])


def _join(kinds: set) -> object:
    """The kind of a value that comes from any one of ``kinds``."""
    if len(kinds) == 1:
        return next(iter(kinds))
    return _NUM if kinds <= _NUMBERS else _OPAQUE


def _comparable(a: object, b: object) -> bool:
    """Number with number or string with string: no ``_coerce_pair`` case."""
    return (a in _NUMBERS and b in _NUMBERS) or a is b is str


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------

_CAST_IDENTITY = {"INT": int, "FLOAT": float, "STRING": str}
_PY_OPS = {"=": "==", "<>": "!="}
_kernel_lines = count(1)


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
    """One expression as one generated comprehension per batch typing.

    The generated text holds operators and generated identifiers only:
    every literal (a Bloom bit string is ~29 KB), matcher, set and row
    compiler closure is a bound constant, so the text — the key of
    :func:`_kernel_factory` — depends on the expression's shape and the
    typing alone.  Request threads share an instance: a racing first
    batch may generate twice, but ``kernels`` entries are stored complete.
    """

    __slots__ = ("expr", "schema", "as_mask", "columns", "kernels")

    def __init__(self, expr: ast.Expr, schema: dict[str, int], as_mask: bool = False):
        self.expr, self.schema, self.as_mask = expr, schema, as_mask
        self.columns = sorted({schema[name.lower()] for name in ast.referenced_columns(expr)})
        self.kernels: dict[tuple, Callable] = {}

    def __call__(self, batch: Batch) -> list:
        """The values (with ``as_mask``, the keep-mask) of ``expr`` over ``batch``."""
        n = len(batch)
        if not n:
            return []
        columns = self.columns
        types = _column_types(batch, columns)
        try:
            kernel = self.kernels[types]
        except KeyError:
            kernel = self.kernels[types] = self._generate(types)
        return kernel(*map(batch.column, columns)) if columns else kernel(n)

    def _generate(self, types: tuple) -> Callable:
        """The kernel for batches whose ``columns`` are typed ``types``."""
        columns = self.columns
        emitter = _Emitter(self.schema, dict(zip(columns, types)))
        source = emitter.mask(self.expr) if self.as_mask else emitter.emit(self.expr, 0)[0]
        rows, args = (", ".join(f"{v}{i}" for i in columns) for v in "vx")
        if not columns:  # column-free: one evaluation serves every row
            args, body = "n", f"[{source}] * n"
        else:
            body = f"[{source} for {rows} in {args if len(columns) == 1 else f'zip({args})'}]"
        text = (
            f"def bind({', '.join(f'c{i}' for i in range(len(emitter.bound)))}):\n"
            f" def kernel({args}):\n"
            f"  return {body}\n"
            f" return kernel\n"
        )
        return _kernel_factory(text)(*emitter.bound)


class _Emitter:
    """Writes one kernel's row expression over the row variables ``v<i>``.

    ``emit`` returns ``(source, kind, nullable)``.  A source is an *atom*
    (an identifier: a row variable or a bound constant, which cannot
    raise), a call, or fully parenthesised.
    """

    def __init__(self, schema: dict[str, int], types: dict[int, tuple]):
        self.schema, self.types = schema, types
        self.bound: list = []  # constants, bound as c0, c1, ...
        self.temps = count()
        self.emitted: dict[int, tuple] = {}  # by node identity: a node is written once

    def bind(self, value: object) -> str:
        self.bound.append(value)
        return f"c{len(self.bound) - 1}"

    def hold(self, source: str) -> tuple[str, str]:
        """``source`` as (its first use, its later uses): a computed value
        is kept in a walrus temporary, an atom is just repeated."""
        if source.isidentifier():
            return source, source
        name = f"t{next(self.temps)}"
        return f"({name} := {source})", name

    def strict(self, operands: list[tuple], value: Callable[..., str], kind: object) -> tuple:
        """A strict operator: NULL if an operand is NULL, else ``value`` of the
        operands.  As in the row formula, every computed operand is evaluated
        before the NULL test (``|``, not ``or``), for it may raise; atoms
        cannot, so their tests come last and short-circuit."""
        if not any(nullable for _, _, nullable in operands):
            return value(*(source for source, _, _ in operands)), kind, False
        names, computed, atoms = [], [], []
        for source, _, nullable in operands:
            first, name = self.hold(source)
            names.append(name)
            if first is not source:
                computed.append(f"({first} is None)")
            elif nullable:
                atoms.append(f"{name} is None")
        tests = ([" | ".join(computed)] if computed else []) + list(dict.fromkeys(atoms))
        return f"(None if {' or '.join(tests)} else {value(*names)})", kind, True

    def kleene(self, op: str, left: tuple, right: tuple) -> tuple:
        """Three-valued AND / OR: the right side runs unless the left decided."""
        (a, a_kind, a_null), (b, b_kind, b_null) = left, right
        if a_kind is b_kind is bool and not (a_null or b_null):
            return f"({a} {op.lower()} {b})", bool, False
        decided = repr(op == "OR")
        (a, a_name), (b, b_name) = self.hold(a), self.hold(b)
        if a_kind is b_kind is bool:
            rest = repr(op == "AND")  # neither side decided, neither is NULL
        else:  # the truthiness of non-booleans
            truth = self.bind(bool)
            rest = f"({truth}({a_name}) {op.lower()} {truth}({b_name}))"
        nulls = [f"{name} is None" for name, null in ((a_name, a_null), (b_name, b_null)) if null]
        if nulls:
            rest = f"None if {' or '.join(nulls)} else {rest}"
        source = f"({decided} if {a} is {decided} else {decided} if {b} is {decided} else {rest})"
        return source, bool, a_null or b_null

    def mask(self, expr: ast.Expr) -> str:
        """``expr IS TRUE`` as a real ``bool``.  An AND chain is flat: only a
        ``False`` conjunct stops it; a NULL (or falsy non-boolean) one lets
        the later conjuncts run and fails the row at the end."""
        *conjuncts, last = ast.split_conjuncts(expr)
        terms, late = [], []
        for conjunct in conjuncts:
            source, kind, nullable = self.emit(conjunct, 1)
            if kind is bool and not nullable:
                terms.append(source)
                continue
            first, name = self.hold(source)
            terms.append(f"{first} is not False")
            late.append(f"{name} is True" if kind is bool else f"{self.bind(bool)}({name})")
        source, kind, nullable = self.emit(last, 1)
        if conjuncts and kind is not bool:
            source = f"{self.bind(bool)}({source})"
        elif kind is not bool or nullable:
            source = f"{source} is True"
        return " and ".join(terms + [source] + late)

    def coalesce(self, args: list[tuple]) -> tuple:
        """The first operand that is not NULL; later ones are not evaluated."""
        *init, (source, kind, nullable) = args
        kinds = {kind}
        for operand, kind, null in reversed(init):
            first, name = self.hold(operand)
            source = f"({name} if {first} is not None else {source})"
            kinds.add(kind)
            nullable = nullable and null
        return source, _join(kinds), nullable

    def helper(self, expr: ast.Expr, depth: int) -> tuple:
        """No inline form at these kinds: the row compiler's closure for this
        node alone, called on the tuple of its inline-evaluated operands.
        Literal operands stay in the node, where the row compiler
        specialises on them (a constant IN list, a LIKE pattern)."""
        operands: list[str] = []

        def slot(node: ast.Expr) -> ast.Expr | None:
            if node is expr:
                return None
            if not isinstance(node, ast.Literal):
                operands.append(self.emit(node, depth)[0])
                node = ast.Column(str(len(operands) - 1))
            return node

        shell = ast.map_expr(expr, slot)
        fn = self.bind(_compile(shell, {str(i): i for i in range(len(operands))}))
        return f"{fn}(({''.join(f'{operand}, ' for operand in operands)}))", _OPAQUE, True

    def emit(self, expr: ast.Expr, depth: int) -> tuple:
        """``(source, kind, nullable)`` of ``expr``, or :class:`_Unfusable`."""
        done = self.emitted.get(id(expr))
        if done is None:
            if depth > 60:  # keeps parenthesis nesting inside the parser's limit
                raise _Unfusable
            done = self.emitted[id(expr)] = self._emit(expr, depth + 1)
        return done

    def _emit(self, expr: ast.Expr, depth: int) -> tuple:
        if isinstance(expr, ast.Literal):
            value = expr.value
            kind = type(value) if type(value) in (int, float, str, bool) else _OPAQUE
            return self.bind(value), kind, value is None
        if isinstance(expr, ast.Column):
            idx = self.schema[expr.name.lower()]
            return f"v{idx}", *self.types[idx]
        if isinstance(expr, ast.IsNull):
            source, _, nullable = self.emit(expr.operand, depth)
            if source.isidentifier() and not nullable:
                return repr(expr.negated), bool, False
            return f"({source} is {'not ' * expr.negated}None)", bool, False
        if isinstance(expr, ast.Unary):
            operand = self.emit(expr.operand, depth)
            if expr.op == "NOT":  # of any kind: the row formula is ``not value``
                return self.strict([operand], "(not {})".format, bool)
            if expr.op == "-" and operand[1] in _NUMBERS:
                return self.strict([operand], "(-{})".format, operand[1])
        elif isinstance(expr, ast.Binary):
            op = expr.op
            left, right = self.emit(expr.left, depth), self.emit(expr.right, depth)
            if op in ("AND", "OR"):
                return self.kleene(op, left, right)
            kinds = left[1], right[1]
            if op in _ARITH and _NUMBERS.issuperset(kinds):
                kind = _NUM if _NUM in kinds else int if kinds == (int, int) else float
                return self.strict([left, right], f"({{}} {op} {{}})".format, kind)
            if op in _COMPARE and _comparable(*kinds):
                compare = f"({{}} {_PY_OPS.get(op, op)} {{}})".format
                return self.strict([left, right], compare, bool)
        elif isinstance(expr, ast.Case):
            source, values = "", []
            for cond, value in expr.whens:
                test, kind, null = self.emit(cond, depth)
                if kind is not bool or null:
                    test = f"{test} is True"
                values.append(self.emit(value, depth))
                source += f"{values[-1][0]} if {test} else "
            if expr.default is not None:
                values.append(self.emit(expr.default, depth))
            source += "None" if expr.default is None else values[-1][0]
            nullable = expr.default is None or any(null for _, _, null in values)
            return f"({source})", _join({kind for _, kind, _ in values}), nullable
        elif isinstance(expr, ast.InList):
            operand = self.emit(expr.operand, depth)
            items = [item.value for item in expr.items if isinstance(item, ast.Literal)]
            if len(items) == len(expr.items) and None not in items:
                member = f"({{}} {'not ' * expr.negated}in {self.bind(frozenset(items))})".format
                return self.strict([operand], member, bool)
        elif isinstance(expr, ast.Between):
            operand, low, high = (self.emit(e, depth) for e in (expr.operand, expr.low, expr.high))
            # Atom bounds cannot raise, so the chained comparison's order and
            # short-circuit are unobservable; NULL-free, only the operand decides.
            if all(
                source.isidentifier() and not nullable and _comparable(operand[1], kind)
                for source, kind, nullable in (low, high)
            ):
                between = f"({'not ' * expr.negated}{low[0]} <= {{}} <= {high[0]})".format
                return self.strict([operand], between, bool)
        elif isinstance(expr, ast.Like):
            operand, pattern = self.emit(expr.operand, depth), expr.pattern
            if isinstance(pattern, ast.Literal) and type(pattern.value) is str and operand[1] is str:
                match = self.bind(like_to_regex(pattern.value).match)
                like = f"({match}({{}}) is {'not ' * (not expr.negated)}None)".format
                return self.strict([operand], like, bool)
        elif isinstance(expr, ast.Cast):
            operand = self.emit(expr.operand, depth)
            target = _CAST_IDENTITY.get(expr.type_name)
            if target is not None and operand[1] is target:
                return operand
            if target is float and operand[1] in (int, _NUM):
                return self.strict([operand], f"{self.bind(float)}({{}})".format, float)
        elif isinstance(expr, ast.FuncCall):
            builder, args = _FUNCTIONS[expr.name], [self.emit(arg, depth) for arg in expr.args]
            if builder is _fn_coalesce:
                return self.coalesce(args)
            if builder is not _fn_substring and len(args) == 1:
                return f"{self.bind(builder([lambda value: value]))}({args[0][0]})", _OPAQUE, True
            length = expr.args[-1]
            if builder is _fn_substring and len(args) == 3 and isinstance(length, ast.Literal):
                (text, text_kind, _), (_, start_kind, _), (n, _, _) = args
                if (
                    type(length.value) is int and length.value >= 0
                    and text.isidentifier() and text_kind is str and start_kind is int
                ):
                    top = self.bind(max)

                    def substring(text: str, start: str) -> str:
                        # _fn_substring over a str and an int: a start before
                        # position 1 still counts the length from there.
                        start, at = self.hold(start)
                        return (
                            f"({text}[{at} - 1:{at} - 1 + {n}] if {start} > 0"
                            f" else {text}[:{top}({at} - 1 + {n}, 0)])"
                        )

                    return self.strict(args[:2], substring, str)
        return self.helper(expr, depth)


# ----------------------------------------------------------------------
# probe runs: a Bloom filter's conjuncts as one int64 computation
# ----------------------------------------------------------------------

PROBE_RUN_MIN_ROWS = 32  # keys from which a run is one numpy evaluation


def _probe_term(conjunct: ast.Expr, schema: dict[str, int]) -> tuple | None:
    """``((S, c, column, cast?, P as kernel text), P's int literals)`` of a
    probe conjunct ``SUBSTRING(S, P, 1) = 'c'`` (either side), or ``None``."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
        return None
    char, call = sorted((conjunct.left, conjunct.right), key=lambda e: isinstance(e, ast.FuncCall))
    literals, columns = [], set()
    if (isinstance(call, ast.FuncCall) and _FUNCTIONS.get(call.name) is _fn_substring
            and len(call.args) == 3 and call.args[2] == ast.Literal(1)
            and all(isinstance(e, ast.Literal) and type(e.value) is str for e in (char, call.args[0]))
            and len(char.value) == 1
            and (source := _position(call.args[1], literals, columns)) and len(columns) == 1):
        (cast, name), = columns
        return (call.args[0].value, char.value, schema[name], cast, source), literals
    return None


def _position(node: ast.Expr, literals: list, columns: set) -> str | None:
    """``node`` as kernel text over ``x`` (the column, under ``CAST(… AS INT)``
    or not) and ``c<i>`` (its i-th int literal); ``None`` past ``+ - *`` and
    ``%`` by a non-zero literal, or for a literal past int64."""
    if isinstance(node, ast.Literal) and type(node.value) is int and abs(node.value) < 2**63:
        literals.append(node.value)
        return f"c{len(literals) - 1}"
    cast = isinstance(node, ast.Cast) and node.type_name == "INT"
    if isinstance(column := node.operand if cast else node, ast.Column):
        columns.add((cast, column.name.lower()))
        return "x"
    if isinstance(node, ast.Binary) and (node.op in ("+", "-", "*") or (
            node.op == "%" and isinstance(node.right, ast.Literal) and node.right.value)):
        left = _position(node.left, literals, columns)
        right = left and _position(node.right, literals, columns)
        return right and f"({left} {node.op} {right})"
    return None


class _ProbeChain:
    """A WHERE chain whose last conjuncts are a probe run: the head as a mask
    kernel over every row, the run over its survivors with a non-NULL key —
    or, where it declines, ``mask`` over those survivors."""

    def __init__(self, expr: ast.Expr, schema: dict[str, int], mask: _Fused):
        *head, last = ast.split_conjuncts(expr)
        run, self.mask, self.column = [_probe_term(last, schema)], mask, None
        while run[0] and head and (term := _probe_term(head[-1], schema)) and term[0] == run[0][0]:
            run.append(term)
            head.pop()
        if not run[0]:
            return  # no run: ``mask`` alone
        (text, char, self.column, _, source), _ = run[0]
        # As one conjunct of an AND, a lone non-boolean head is its truthiness.
        self.head = head and _Fused(ast.and_join(head + [ast.Literal(True)]), schema, as_mask=True)
        stacked = list(zip(*[literals for _, literals in run]))  # per literal, its k values
        self.stacked = [np.array(values, np.int64)[:, None] for values in stacked]
        self.magnitudes = [max(1, *map(abs, values)) for values in stacked]
        # Every intermediate's |value| is at most P's value with ``-`` and
        # ``%`` read as ``+``, over magnitudes of at least 1.
        kernel = f"def bind():\n return lambda {''.join(f'c{i}, ' for i in range(len(stacked)))}x: {{}}\n"
        self.position = _kernel_factory(kernel.format(source))()
        self.bound = _kernel_factory(kernel.format(source.replace(" - ", " + ").replace(" % ", " + ")))()
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        self.hit = np.pad(codes == ord(char), 1)  # by 1-based position: 0 and past the end miss

    def __call__(self, batch: Batch) -> list:
        n = len(batch)
        (kind, nullable), = _column_types(batch, [self.column])
        if n < PROBE_RUN_MIN_ROWS or kind is not int:
            return self.mask(batch)
        column = batch.column(self.column)
        rows = list(compress(range(n), self.head(batch))) if self.head else range(n)
        if nullable:  # a NULL key fails its row
            rows = [row for row in rows if column[row] is not None]
        keys = list(map(column.__getitem__, rows))
        passed = self.int64(keys) if len(keys) >= PROBE_RUN_MIN_ROWS else None
        if passed is None:  # the comprehension, on the rows still running
            read = self.mask.columns
            passed = self.mask(Batch([list(map(values.__getitem__, rows)) if i in read else ()
                                      for i, values in enumerate(batch.columns)], len(rows)))
        mask = [False] * n
        for row in compress(rows, passed):
            mask[row] = True
        return mask

    def int64(self, keys: list) -> list | None:
        """Each key's run value, or ``None`` for a key past int64 or a bound at 2^63."""
        try:
            x = np.array(keys, np.int64)
        except OverflowError:
            return None
        if self.bound(*self.magnitudes, max(1, -int(x.min()), int(x.max()))) >= 2**63:
            return None
        positions = np.clip(np.atleast_2d(self.position(*self.stacked, x)), 0, len(self.hit) - 1)
        return self.hit[positions].all(axis=0).tolist()
