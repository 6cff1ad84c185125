"""Expression compilation for the in-memory SQL engine.

Every expression is compiled once per statement execution into a closure
over one row, and an aggregate expression into a closure over one group of
rows.  A row is whatever its *scope* reads: the scope maps each name the
row answers to, in the row's key order, to a getter (an
``operator.itemgetter`` of a tuple position or of a dict key).  Column
names are resolved when the closure is built; a name that does not
resolve compiles to a closure raising the lookup's error, so errors still
come from the first row that reaches them, in evaluation order, and an
expression no row reaches raises nothing.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Star,
    UnaryOp,
)
from repro.sqlengine.errors import SqlExecutionError

#: a row's names, in the row's key order, each to the getter of its value
Scope = Dict[str, Callable[[Any], Any]]
Compiled = Callable[[Any], Any]


def key_scope(keys: Iterable[str]) -> Scope:
    """The scope of dict rows holding *keys*."""
    return {key: operator.itemgetter(key) for key in keys}


def _raiser(message: str) -> Compiled:
    def fail(_row: Any) -> Any:
        raise SqlExecutionError(message)
    return fail


def _column(scope: Scope, ref: ColumnRef) -> Compiled:
    """The getter of a (possibly table-qualified) column reference in rows
    of *scope*, or a closure raising the lookup's error."""
    if ref.table is not None:
        qualified = f"{ref.table}.{ref.name}"
        if qualified in scope:
            return scope[qualified]
        return _raiser(f"unknown column {qualified!r}")
    if ref.name in scope:
        return scope[ref.name]
    # fall back: a single unambiguous qualified match
    matches = [key for key in scope if key.endswith(f".{ref.name}")]
    if len(matches) == 1:
        return scope[matches[0]]
    if len(matches) > 1:
        return _raiser(f"ambiguous column {ref.name!r}: {matches}")
    return _raiser(f"unknown column {ref.name!r}; row has {sorted(scope)}")


def _like_to_regex(pattern: str) -> str:
    pieces = []
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    return "^" + "".join(pieces) + "$"


def _numeric(value: Any, context: str) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    raise SqlExecutionError(f"{context} requires a numeric value, got {value!r}")


# ---------------------------------------------------------------------------
# binary operators over two evaluated operands
# ---------------------------------------------------------------------------
# A predicate is SQL's three-valued logic: true, false, or None for unknown
# (a comparison with NULL).  NOT, AND and OR propagate unknown; WHERE,
# HAVING and ON keep only the rows where it is true.
def _false(value: Any) -> bool:
    return value is not None and not value


def _not(value: Any) -> Any:
    return None if value is None else not value


def _and(left: Any, right: Any) -> Any:
    if _false(left) or _false(right):
        return False
    return None if left is None or right is None else True


def _or(left: Any, right: Any) -> Any:
    if left or right:
        return True
    return None if left is None or right is None else False


def _ordering(compare: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def ordered(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        try:
            return compare(left, right)
        except TypeError as exc:
            raise SqlExecutionError(f"cannot compare {left!r} and {right!r}") from exc
    return ordered


def _like(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    return re.match(_like_to_regex(str(right)), str(left)) is not None


def _concat(left: Any, right: Any) -> Optional[str]:
    if left is None or right is None:          # NULL in, NULL out
        return None
    return f"{left}{right}"


def _arithmetic(symbol: str, apply: Callable[[Any, Any], Any],
                zero_error: str = "") -> Callable[[Any, Any], Any]:
    context = f"operator {symbol}"

    def arithmetic(left: Any, right: Any) -> Any:
        if left is None or right is None:      # NULL in, NULL out
            return None
        left_num = _numeric(left, context)
        right_num = _numeric(right, context)
        if zero_error and right_num == 0:
            raise SqlExecutionError(zero_error)
        return apply(left_num, right_num)
    return arithmetic


_OPERATIONS: Dict[str, Callable[[Any, Any], Any]] = {
    "AND": _and,
    "OR": _or,
    "=": operator.eq,
    "<>": operator.ne,
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
    "LIKE": _like,
    "||": _concat,
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", operator.truediv, "division by zero"),
    "%": _arithmetic("%", operator.mod, "modulo by zero"),
}


def _operation(symbol: str) -> Callable[[Any, Any], Any]:
    operation = _OPERATIONS.get(symbol)
    if operation is None:
        def operation(left: Any, right: Any) -> Any:
            raise SqlExecutionError(f"unknown binary operator {symbol!r}")
    return operation


# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------
def compile_expression(expression: Expression, scope: Scope) -> Compiled:
    """Compile a scalar expression into a closure over one row of *scope*."""
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColumnRef):
        return _column(scope, expression)
    if isinstance(expression, Star):
        return _raiser("'*' is only valid in SELECT lists and COUNT(*)")
    if isinstance(expression, UnaryOp):
        return _compile_unary(expression.operator,
                              compile_expression(expression.operand, scope))
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, scope)
    if isinstance(expression, InList):
        return _compile_in(expression, scope)
    if isinstance(expression, IsNull):
        operand = compile_expression(expression.operand, scope)
        if expression.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expression, Between):
        return _compile_between(expression, scope)
    if isinstance(expression, CaseExpression):
        return _compile_case(expression, lambda part: compile_expression(part, scope))
    if isinstance(expression, FunctionCall):
        return _raiser(f"aggregate function {expression.name} used outside of an "
                       f"aggregation context")
    return _raiser(f"cannot evaluate expression node {type(expression).__name__}")


def _compile_unary(symbol: str, operand: Compiled) -> Compiled:
    """``NOT``, ``-`` or ``+`` of the value *operand* computes (from a row
    or from a group alike)."""
    if symbol == "NOT":
        return lambda row: _not(operand(row))
    if symbol in ("-", "+"):
        apply, context = ((operator.neg, "unary minus") if symbol == "-"
                          else (operator.pos, "unary plus"))

        def signed(row: Any) -> Any:
            value = operand(row)
            if value is None:                  # NULL in, NULL out
                return None
            return apply(_numeric(value, context))
        return signed

    def unknown(row: Any) -> Any:
        operand(row)
        raise SqlExecutionError(f"unknown unary operator {symbol!r}")
    return unknown


def _compile_binary(node: BinaryOp, scope: Scope) -> Compiled:
    symbol = node.operator
    left = compile_expression(node.left, scope)
    right = compile_expression(node.right, scope)
    if symbol == "AND":
        def both(row: Any) -> Any:
            first = left(row)
            return False if _false(first) else _and(first, right(row))
        return both
    if symbol == "OR":
        def either(row: Any) -> Any:
            first = left(row)
            return True if first else _or(first, right(row))
        return either
    if isinstance(node.right, Literal):
        value = node.right.value
        if symbol == "=":
            return lambda row: left(row) == value
        if symbol == "<>":
            return lambda row: left(row) != value
        if symbol == "LIKE" and value is not None:
            pattern = re.compile(_like_to_regex(str(value)))

            def like(row: Any) -> Any:
                subject = left(row)
                return None if subject is None else pattern.match(str(subject)) is not None
            return like
    operation = _operation(symbol)
    return lambda row: operation(left(row), right(row))


def _compile_in(node: InList, scope: Scope) -> Compiled:
    operand = compile_expression(node.operand, scope)
    options = [compile_expression(option, scope) for option in node.options]
    negated = node.negated

    def in_list(row: Any) -> bool:
        value = operand(row)
        result = value in [option(row) for option in options]
        return not result if negated else result
    return in_list


def _compile_between(node: Between, scope: Scope) -> Compiled:
    """``low <= operand AND operand <= high``, with the comparisons of
    ``<=``: a NULL bound or operand is unknown, mixed types an error."""
    operand = compile_expression(node.operand, scope)
    low = compile_expression(node.low, scope)
    high = compile_expression(node.high, scope)
    negated = node.negated
    at_most = _OPERATIONS["<="]

    def between(row: Any) -> Any:
        value = operand(row)
        low_value = low(row)
        high_value = high(row)
        first = at_most(low_value, value)
        result = False if _false(first) else _and(first, at_most(value, high_value))
        return _not(result) if negated else result
    return between


def _compile_case(node: CaseExpression,
                  compile_part: Callable[[Expression], Compiled]) -> Compiled:
    """``CASE`` over branches compiled by *compile_part* (scalar or
    aggregate alike): only the branches up to the first true condition run."""
    branches = [(compile_part(condition), compile_part(value))
                for condition, value in node.branches]
    default = compile_part(node.default) if node.default is not None else None

    def case(row: Any) -> Any:
        for condition, value in branches:
            if condition(row):
                return value(row)
        return default(row) if default is not None else None
    return case


# ---------------------------------------------------------------------------
# aggregation support
# ---------------------------------------------------------------------------
def contains_aggregate(expression: Expression) -> bool:
    """True when the expression tree contains an aggregate function call."""
    if isinstance(expression, FunctionCall):
        return True
    if isinstance(expression, UnaryOp):
        return contains_aggregate(expression.operand)
    if isinstance(expression, BinaryOp):
        return contains_aggregate(expression.left) or contains_aggregate(expression.right)
    if isinstance(expression, InList):
        return contains_aggregate(expression.operand) or any(
            contains_aggregate(option) for option in expression.options)
    if isinstance(expression, (IsNull,)):
        return contains_aggregate(expression.operand)
    if isinstance(expression, Between):
        return any(contains_aggregate(e) for e in (expression.operand, expression.low,
                                                   expression.high))
    if isinstance(expression, CaseExpression):
        parts = [expr for branch in expression.branches for expr in branch]
        if expression.default is not None:
            parts.append(expression.default)
        return any(contains_aggregate(part) for part in parts)
    return False


def compile_aggregate(expression: Expression, scope: Scope) -> Compiled:
    """Compile an expression in aggregate context into a closure over one
    group: a list of rows of *scope*."""
    if isinstance(expression, FunctionCall):
        return _compile_call(expression, scope)
    if isinstance(expression, Literal):
        value = expression.value
        return lambda rows: value
    if isinstance(expression, ColumnRef):
        # per-group constant column (a GROUP BY key): take it from the first row
        getter = compile_expression(expression, scope)
        return lambda rows: getter(rows[0]) if rows else None
    if isinstance(expression, UnaryOp):
        return _compile_unary(expression.operator if expression.operator in ("NOT", "-")
                              else "+", compile_aggregate(expression.operand, scope))
    if isinstance(expression, BinaryOp):
        # both sides are computed before the operator, AND and OR included
        left = compile_aggregate(expression.left, scope)
        right = compile_aggregate(expression.right, scope)
        operation = _operation(expression.operator)
        return lambda rows: operation(left(rows), right(rows))
    if isinstance(expression, CaseExpression):
        return _compile_case(expression, lambda part: compile_aggregate(part, scope))
    return _raiser(
        f"expression {type(expression).__name__} is not valid in aggregate context")


def _compile_call(call: FunctionCall, scope: Scope) -> Compiled:
    name = call.name
    if name == "COUNT" and call.is_star:
        return len
    if not call.arguments:
        if name == "COUNT":
            return len
        return _raiser(f"{name} requires an argument")
    if len(call.arguments) != 1:
        return _raiser(f"{name} takes exactly one argument")
    argument = compile_expression(call.arguments[0], scope)
    distinct = call.distinct

    def aggregate(rows: List[Any]) -> Any:
        values = [value for value in map(argument, rows) if value is not None]
        if distinct:
            deduped: List[Any] = []
            for value in values:
                if value not in deduped:
                    deduped.append(value)
            values = deduped
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(_numeric(v, "SUM") for v in values)
        if name == "AVG":
            numeric = [_numeric(v, "AVG") for v in values]
            return sum(numeric) / len(numeric)
        if name == "MIN":
            return min(values)
        if name == "MAX":
            return max(values)
        raise SqlExecutionError(f"unknown aggregate function {name!r}")
    return aggregate
