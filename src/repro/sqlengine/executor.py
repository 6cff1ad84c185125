"""Statement execution for the in-memory SQL engine."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sqlengine.ast_nodes import (
    ColumnRef,
    DeleteStatement,
    Expression,
    FunctionCall,
    InsertStatement,
    Literal,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    TableRef,
    UpdateStatement,
)
from repro.sqlengine.database import Database, ResultSet, Table
from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.expressions import (
    Compiled,
    Scope,
    compile_aggregate,
    compile_expression,
    contains_aggregate,
    key_scope,
)
from repro.sqlengine.parser import parse_statement

Row = Dict[str, Any]
Values = Tuple[Any, ...]
#: (table alias, column name, getter) of every column of a row, in order
RowColumns = List[Tuple[str, str, Compiled]]


def execute_sql(database: Database, sql: str) -> Optional[ResultSet]:
    """Parse and execute one SQL statement, returning a result set for SELECT."""
    statement = parse_statement(sql)
    return execute_statement(database, statement)


def execute_statement(database: Database, statement: Statement) -> Optional[ResultSet]:
    if isinstance(statement, SelectStatement):
        return _execute_select(database, statement)
    if isinstance(statement, InsertStatement):
        write = _execute_insert
    elif isinstance(statement, UpdateStatement):
        write = _execute_update
    elif isinstance(statement, DeleteStatement):
        write = _execute_delete
    else:
        raise SqlExecutionError(f"unsupported statement type {type(statement).__name__}")
    database.written = True
    write(database, statement)
    return None


# ---------------------------------------------------------------------------
# SELECT
#
# A SELECT is planned once per execution, in locals.  A row is a tuple of
# the values of the FROM table and then of each joined table, and the scope
# maps every name the row answers to (bare and ``alias.column``, a later
# table's column winning a shared name) to the getter of its position.
# WHERE, ON, GROUP BY, HAVING and the select list run as closures over these
# tuples; dicts are built only for the rows the statement returns.  A star
# expands from the row's column list, never from the scope's keys, which
# cannot tell a bare dotted column name from a qualified one.
# ---------------------------------------------------------------------------
def _add_columns(scope: Scope, row_columns: RowColumns, table: Table,
                 ref: TableRef, offset: int) -> None:
    """Add *table*'s columns, at *offset* in the row tuple, to *scope* and
    to *row_columns*."""
    alias = ref.effective_name
    for index, column in enumerate(table.columns, offset):
        getter = itemgetter(index)
        scope[column] = getter
        scope[f"{alias}.{column}"] = getter
        row_columns.append((alias, column, getter))


def _join(rows: Iterable[Values], right_rows: List[Values], condition: Compiled,
          left_join: bool, right_width: int) -> List[Values]:
    """Nested-loop join: every pair passing *condition*, and for a LEFT
    join each unmatched left row padded with NULLs."""
    joined: List[Values] = []
    nulls = (None,) * right_width
    for left in rows:
        matched = False
        for right in right_rows:
            candidate = left + right
            if condition(candidate):
                joined.append(candidate)
                matched = True
        if not matched and left_join:
            joined.append(left + nulls)
    return joined


def _item_output_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        if expression.is_star:
            return f"{expression.name.lower()}_star"
        if expression.arguments and isinstance(expression.arguments[0], ColumnRef):
            return f"{expression.name.lower()}_{expression.arguments[0].name}"
        return expression.name.lower()
    return f"column_{index}"


def _star_columns(row_columns: RowColumns,
                  table_filter: Optional[str]) -> List[Tuple[str, Compiled]]:
    """The distinct column names of a row, or of one table alias, in order:
    a name a later join table shares reads that table's value."""
    getters: Dict[str, Compiled] = {}
    for alias, column, getter in row_columns:
        if table_filter is None or alias == table_filter:
            getters[column] = getter
    return list(getters.items())


def _execute_select(database: Database, statement: SelectStatement) -> ResultSet:
    if statement.table is None:
        # SELECT of pure expressions, e.g. SELECT 1 + 1
        out_row: Row = {}
        columns: List[str] = []
        for index, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                raise SqlExecutionError("SELECT * requires a FROM clause")
            name = _item_output_name(item, index)
            out_row[name] = compile_expression(item.expression, {})({})
            columns.append(name)
        return ResultSet(columns, [out_row])

    base_table = database.table(statement.table.name)
    scope: Scope = {}
    row_columns: RowColumns = []
    _add_columns(scope, row_columns, base_table, statement.table, 0)
    width = len(base_table.columns)
    rows: Iterable[Values] = base_table.row_values()
    for join in statement.joins:
        right_table = database.table(join.table.name)
        _add_columns(scope, row_columns, right_table, join.table, width)
        width += len(right_table.columns)
        rows = _join(rows, list(right_table.row_values()),
                     compile_expression(join.condition, scope),
                     join.join_type == "LEFT", len(right_table.columns))

    if statement.where is not None:
        where = compile_expression(statement.where, scope)
        rows = [row for row in rows if where(row)]
    else:
        rows = list(rows)

    has_aggregate = any(contains_aggregate(item.expression) for item in statement.items)
    if statement.having is not None and not statement.group_by and not has_aggregate:
        raise SqlExecutionError("HAVING requires GROUP BY or aggregate functions")

    # each output row goes with its source row, for ORDER BY; a grouped
    # output row has none
    source_scope: Optional[Scope]
    if statement.group_by or has_aggregate:
        out_rows, columns = _execute_grouped(statement, scope, rows)
        paired: List[Tuple[Row, Optional[Values]]] = [(row, None) for row in out_rows]
        source_scope = None
    else:
        out_rows, columns = _execute_plain(statement, scope, row_columns, rows)
        paired = list(zip(out_rows, rows))
        source_scope = scope

    if statement.distinct:
        deduped: List[Tuple[Row, Optional[Values]]] = []
        seen = set()
        for pair in paired:
            key = tuple(repr(pair[0][c]) for c in columns)
            if key not in seen:
                seen.add(key)
                deduped.append(pair)
        paired = deduped

    if statement.order_by:
        paired = _apply_order_by(statement, paired, columns, source_scope)

    if statement.limit is not None:
        paired = paired[: statement.limit]

    return ResultSet(columns, [row for row, _ in paired])


def _execute_plain(statement: SelectStatement, scope: Scope, row_columns: RowColumns,
                   rows: List[Values]) -> Tuple[List[Row], List[str]]:
    names: List[str] = []
    functions: List[Compiled] = []
    for index, item in enumerate(statement.items):
        if isinstance(item.expression, Star):
            for key, getter in _star_columns(row_columns, item.expression.table):
                names.append(key)
                functions.append(getter)
            continue
        names.append(_item_output_name(item, index))
        functions.append(compile_expression(item.expression, scope))
    if not rows:
        # derive column names from the select list only
        return [], [_item_output_name(item, index)
                    for index, item in enumerate(statement.items)
                    if not isinstance(item.expression, Star)]
    # a repeated name keeps its first position and its last value, as
    # assigning the items into one dict in order would
    out_rows = [dict(zip(names, [function(row) for function in functions]))
                for row in rows]
    return out_rows, names


def _execute_grouped(statement: SelectStatement, scope: Scope,
                     rows: List[Values]) -> Tuple[List[Row], List[str]]:
    groups: Dict[Tuple, List[Values]] = {}
    if statement.group_by:
        keys = [compile_expression(expression, scope) for expression in statement.group_by]
        for row in rows:
            groups.setdefault(tuple([repr(key(row)) for key in keys]), []).append(row)
    else:
        groups[("__all__",)] = rows

    columns = [_item_output_name(item, index) for index, item in enumerate(statement.items)]
    for item in statement.items:
        if isinstance(item.expression, Star):
            raise SqlExecutionError("SELECT * cannot be combined with GROUP BY/aggregates")

    items = [(name, _compile_group_value(item.expression, scope))
             for name, item in zip(columns, statement.items)]
    having = (None if statement.having is None
              else _compile_group_value(statement.having, scope, empty_scope=True))
    out_rows: List[Row] = []
    for group_rows in groups.values():
        out_row: Row = {}
        for name, value in items:
            out_row[name] = value(group_rows)
        if having is not None and not having(group_rows):
            continue
        out_rows.append(out_row)
    return out_rows, columns


def _compile_group_value(expression: Expression, scope: Scope, empty_scope: bool = False) -> Compiled:
    """A closure over one group: an aggregate expression over all of its
    rows, any other over its first row.  Over an empty group that is NULL,
    or with *empty_scope* the expression over an empty row (HAVING)."""
    if contains_aggregate(expression):
        return compile_aggregate(expression, scope)
    first = compile_expression(expression, scope)
    if not empty_scope:
        return lambda rows: first(rows[0]) if rows else None

    def value(rows: List[Values]) -> Any:
        return first(rows[0]) if rows else compile_expression(expression, {})({})
    return value


def _order_sort_key(value: Any) -> Tuple:
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, bool):
        return (1, "", float(value))
    if isinstance(value, (int, float)):
        return (1, "", float(value))
    return (2, str(value), 0.0)


def _apply_order_by(statement: SelectStatement,
                    paired: List[Tuple[Row, Optional[Values]]], columns: List[str],
                    source_scope: Optional[Scope]) -> List[Tuple[Row, Optional[Values]]]:
    """Sort (output row, source row) pairs.  ORDER BY may reference an
    output name, a positional index, or an expression over the output row,
    and then over the source row where the output row does not answer it."""
    output_scope: Scope = {name: (lambda pair, name=name: pair[0][name])
                           for name in dict.fromkeys(columns)}
    ordered = list(paired)
    for order_item in reversed(statement.order_by):
        ordered.sort(key=_order_key(order_item.expression, output_scope, columns,
                                    source_scope),
                     reverse=not order_item.ascending)
    return ordered


def _order_key(expression: Expression, output_scope: Scope, columns: List[str],
               source_scope: Optional[Scope]) -> Callable[[Tuple[Row, Any]], Tuple]:
    if (isinstance(expression, ColumnRef) and expression.table is None
            and expression.name in output_scope):
        getter = output_scope[expression.name]
        return lambda pair: _order_sort_key(getter(pair))
    if isinstance(expression, Literal) and isinstance(expression.value, int):
        index = expression.value - 1
        if 0 <= index < len(columns):
            getter = output_scope[columns[index]]
            return lambda pair: _order_sort_key(getter(pair))
    on_output = compile_expression(expression, output_scope)
    on_source = (None if source_scope is None
                 else compile_expression(expression, source_scope))

    def key(pair: Tuple[Row, Any]) -> Tuple:
        try:
            return _order_sort_key(on_output(pair))
        except SqlExecutionError:
            if on_source is not None:
                try:
                    return _order_sort_key(on_source(pair[1]))
                except SqlExecutionError:
                    pass
            return _order_sort_key(None)
    return key


# ---------------------------------------------------------------------------
# INSERT / UPDATE / DELETE
# ---------------------------------------------------------------------------
def _execute_insert(database: Database, statement: InsertStatement) -> None:
    table = database.table(statement.table)
    columns = statement.columns or list(table.columns)
    for values in statement.rows:
        if len(values) != len(columns):
            raise SqlExecutionError(
                f"INSERT column/value count mismatch: {len(columns)} vs {len(values)}")
        row = {column: compile_expression(value, {})({})
               for column, value in zip(columns, values)}
        table.insert(row)


def _execute_update(database: Database, statement: UpdateStatement) -> None:
    table = database.table(statement.table)
    for column, _ in statement.assignments:
        if column not in table.columns:
            raise SqlExecutionError(
                f"table {table.name!r} has no column {column!r} to update")
    scope = key_scope(table.columns)
    where = None if statement.where is None else compile_expression(statement.where, scope)
    assignments = [(column, compile_expression(expression, scope))
                   for column, expression in statement.assignments]
    for row in table.rows:
        if where is None or where(row):
            for column, value in assignments:
                row[column] = value(row)


def _execute_delete(database: Database, statement: DeleteStatement) -> None:
    table = database.table(statement.table)
    if statement.where is None:
        table.rows.clear()
        return
    where = compile_expression(statement.where, key_scope(table.columns))
    table.rows[:] = [row for row in table.rows if not where(row)]
