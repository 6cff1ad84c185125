"""Statement execution for the in-memory SQL engine."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sqlengine.ast_nodes import (
    ColumnRef,
    DeleteStatement,
    Expression,
    FunctionCall,
    InsertStatement,
    JoinClause,
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
    contains_aggregate,
    evaluate,
    evaluate_aggregate,
)
from repro.sqlengine.parser import parse_statement

Row = Dict[str, Any]


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
# ---------------------------------------------------------------------------
def _rows_for_table(table: Table, ref: TableRef) -> List[Row]:
    """Produce rows keyed both by bare column name and by qualified name."""
    alias = ref.effective_name
    names = [(column, f"{alias}.{column}") for column in table.columns]
    rows = []
    for values in table.row_values():
        row: Row = {}
        for (column, qualified), value in zip(names, values):
            row[column] = value
            row[qualified] = value
        rows.append(row)
    return rows


def _merge_rows(left: Row, right: Row) -> Row:
    merged = dict(left)
    merged.update(right)
    return merged


def _null_row_like(table: Table, ref: TableRef) -> Row:
    alias = ref.effective_name
    row: Row = {}
    for column in table.columns:
        row[column] = None
        row[f"{alias}.{column}"] = None
    return row


def _apply_joins(database: Database, base_rows: List[Row],
                 joins: List[JoinClause]) -> List[Row]:
    rows = base_rows
    for join in joins:
        right_table = database.table(join.table.name)
        right_rows = _rows_for_table(right_table, join.table)
        joined: List[Row] = []
        for left_row in rows:
            matched = False
            for right_row in right_rows:
                candidate = _merge_rows(left_row, right_row)
                if bool(evaluate(join.condition, candidate)):
                    joined.append(candidate)
                    matched = True
            if not matched and join.join_type == "LEFT":
                joined.append(_merge_rows(left_row, _null_row_like(right_table, join.table)))
        rows = joined
    return rows


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


def _expand_star(row: Row, table_filter: Optional[str]) -> List[Tuple[str, Any]]:
    """Return the bare-named columns of a row (optionally for one table alias)."""
    pairs = []
    for key, value in row.items():
        if "." in key:
            continue
        if table_filter is not None and f"{table_filter}.{key}" not in row:
            continue
        pairs.append((key, value))
    return pairs


def _execute_select(database: Database, statement: SelectStatement) -> ResultSet:
    if statement.table is None:
        # SELECT of pure expressions, e.g. SELECT 1 + 1
        row: Row = {}
        out_row: Row = {}
        columns: List[str] = []
        for index, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                raise SqlExecutionError("SELECT * requires a FROM clause")
            name = _item_output_name(item, index)
            out_row[name] = evaluate(item.expression, row)
            columns.append(name)
        return ResultSet(columns, [out_row])

    base_table = database.table(statement.table.name)
    rows = _rows_for_table(base_table, statement.table)
    rows = _apply_joins(database, rows, statement.joins)

    if statement.where is not None:
        rows = [row for row in rows if bool(evaluate(statement.where, row))]

    has_aggregate = any(contains_aggregate(item.expression) for item in statement.items)
    if statement.having is not None and not statement.group_by and not has_aggregate:
        raise SqlExecutionError("HAVING requires GROUP BY or aggregate functions")

    if statement.group_by or has_aggregate:
        result_rows, columns = _execute_grouped(statement, rows)
    else:
        result_rows, columns = _execute_plain(statement, rows)

    if statement.distinct:
        deduped: List[Row] = []
        seen = set()
        for row in result_rows:
            key = tuple(repr(row[c]) for c in columns)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        result_rows = deduped

    if statement.order_by:
        result_rows = _apply_order_by(statement, result_rows, columns)

    if statement.limit is not None:
        result_rows = result_rows[: statement.limit]

    result_rows = [{key: value for key, value in row.items() if key != "__source_row__"}
                   for row in result_rows]
    return ResultSet(columns, result_rows)


def _execute_plain(statement: SelectStatement, rows: List[Row]) -> Tuple[List[Row], List[str]]:
    out_rows: List[Row] = []
    columns: List[str] = []
    for row_index, row in enumerate(rows):
        out_row: Row = {}
        current_columns: List[str] = []
        for index, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                for key, value in _expand_star(row, item.expression.table):
                    out_row[key] = value
                    current_columns.append(key)
                continue
            name = _item_output_name(item, index)
            out_row[name] = evaluate(item.expression, row)
            current_columns.append(name)
        if row_index == 0:
            columns = current_columns
        # keep the source row so ORDER BY may reference columns that were not
        # projected (standard SQL behaviour); it is stripped before returning
        out_row["__source_row__"] = row
        out_rows.append(out_row)
    if not rows:
        # derive column names from the select list only
        for index, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                continue
            columns.append(_item_output_name(item, index))
    return out_rows, columns


def _group_key(row: Row, group_by: List[Expression]) -> Tuple:
    return tuple(repr(evaluate(expression, row)) for expression in group_by)


def _execute_grouped(statement: SelectStatement, rows: List[Row]) -> Tuple[List[Row], List[str]]:
    groups: Dict[Tuple, List[Row]] = {}
    if statement.group_by:
        for row in rows:
            groups.setdefault(_group_key(row, statement.group_by), []).append(row)
    else:
        groups[("__all__",)] = rows

    columns = [_item_output_name(item, index) for index, item in enumerate(statement.items)]
    for item in statement.items:
        if isinstance(item.expression, Star):
            raise SqlExecutionError("SELECT * cannot be combined with GROUP BY/aggregates")

    out_rows: List[Row] = []
    for group_rows in groups.values():
        out_row: Row = {}
        for index, item in enumerate(statement.items):
            name = _item_output_name(item, index)
            if contains_aggregate(item.expression):
                out_row[name] = evaluate_aggregate(item.expression, group_rows)
            else:
                out_row[name] = evaluate(item.expression, group_rows[0]) if group_rows else None
        if statement.having is not None:
            having_value = (evaluate_aggregate(statement.having, group_rows)
                            if contains_aggregate(statement.having)
                            else evaluate(statement.having, group_rows[0] if group_rows else {}))
            if not bool(having_value):
                continue
        out_rows.append(out_row)
    return out_rows, columns


def _order_sort_key(value: Any) -> Tuple:
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, bool):
        return (1, "", float(value))
    if isinstance(value, (int, float)):
        return (1, "", float(value))
    return (2, str(value), 0.0)


def _apply_order_by(statement: SelectStatement, rows: List[Row],
                    columns: List[str]) -> List[Row]:
    ordered = list(rows)
    for order_item in reversed(statement.order_by):
        expression = order_item.expression

        def key_function(row: Row, expr: Expression = expression) -> Tuple:
            # ORDER BY may reference an output alias, a positional index, or a
            # column of the underlying (pre-projection) row.
            if isinstance(expr, ColumnRef) and expr.table is None and expr.name in row:
                return _order_sort_key(row[expr.name])
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if 0 <= index < len(columns):
                    return _order_sort_key(row[columns[index]])
            try:
                return _order_sort_key(evaluate(expr, row))
            except SqlExecutionError:
                source_row = row.get("__source_row__")
                if source_row is not None:
                    try:
                        return _order_sort_key(evaluate(expr, source_row))
                    except SqlExecutionError:
                        return _order_sort_key(None)
                return _order_sort_key(None)

        ordered.sort(key=key_function, reverse=not order_item.ascending)
    return ordered


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
        row = {column: evaluate(value, {}) for column, value in zip(columns, values)}
        table.insert(row)


def _execute_update(database: Database, statement: UpdateStatement) -> None:
    table = database.table(statement.table)
    for column, _ in statement.assignments:
        if column not in table.columns:
            raise SqlExecutionError(
                f"table {table.name!r} has no column {column!r} to update")
    for row in table.rows:
        if statement.where is None or bool(evaluate(statement.where, row)):
            for column, expression in statement.assignments:
                row[column] = evaluate(expression, row)


def _execute_delete(database: Database, statement: DeleteStatement) -> None:
    table = database.table(statement.table)
    if statement.where is None:
        table.rows.clear()
        return
    table.rows[:] = [row for row in table.rows
                     if not bool(evaluate(statement.where, row))]
