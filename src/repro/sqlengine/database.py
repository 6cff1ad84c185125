"""Tables, databases and result sets of the in-memory SQL engine."""

from __future__ import annotations

import copy as _copy
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.sqlengine.errors import SqlExecutionError

Row = Dict[str, Any]


class Table:
    """A named table: an ordered list of rows sharing a column schema."""

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Optional[Iterable[Row]] = None) -> None:
        self.name = name
        self.columns: List[str] = [str(c) for c in columns]
        self.rows: List[Row] = []
        if rows:
            for row in rows:
                self.insert(row)

    @classmethod
    def from_columns(cls, name: str, columns: Mapping[str, Sequence[Any]]) -> "Table":
        """A table of equally long column lists, one row dict per position.

        The column names are the schema, so this skips the per-row
        :meth:`insert` check the row constructor makes.
        """
        table = cls(name, list(columns))
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SqlExecutionError(
                f"table {name!r} columns have differing lengths: {sorted(lengths)}")
        names = table.columns
        table.rows = [dict(zip(names, row)) for row in zip(*columns.values())]
        return table

    def insert(self, row: Row) -> None:
        """Insert a row; unknown columns are rejected, missing ones become NULL."""
        unknown = [key for key in row if key not in self.columns]
        if unknown:
            raise SqlExecutionError(
                f"table {self.name!r} has no columns {unknown!r}; schema is {self.columns}"
            )
        self.rows.append({column: row.get(column) for column in self.columns})

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def copy(self) -> "Table":
        return Table(self.name, list(self.columns), _copy.deepcopy(self.rows))

    def column_values(self, column: str) -> List[Any]:
        if column not in self.columns:
            raise SqlExecutionError(f"table {self.name!r} has no column {column!r}")
        return [row.get(column) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self.rows)}, columns={self.columns})"


class ResultSet:
    """The outcome of a ``SELECT``: ordered column names plus row dictionaries."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Row]) -> None:
        self.columns: List[str] = list(columns)
        self.rows: List[Row] = [dict(row) for row in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    __hash__ = None

    def scalar(self) -> Any:
        """Return the single value of a 1x1 result (e.g. ``SELECT COUNT(*) ...``)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][self.columns[0]]

    def column(self, name: Optional[str] = None) -> List[Any]:
        """Return one column as a list (the first column when *name* is omitted)."""
        if not self.columns:
            return []
        key = name if name is not None else self.columns[0]
        if key not in self.columns:
            raise SqlExecutionError(f"result has no column {key!r}; columns: {self.columns}")
        return [row[key] for row in self.rows]

    def to_records(self) -> List[Row]:
        return [dict(row) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


class Database:
    """A collection of named tables plus the statement entry point."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Sequence[str],
                     rows: Optional[Iterable[Row]] = None) -> Table:
        return self.add_table(Table(name, columns, rows))

    def add_table(self, table: Table) -> Table:
        """Register an already built *table* under its own name."""
        if table.name in self._tables:
            raise SqlExecutionError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SqlExecutionError(f"cannot drop unknown table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise SqlExecutionError(
                f"unknown table {name!r}; available tables: {sorted(self._tables)}"
            )
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def copy(self) -> "Database":
        duplicate = Database(self.name)
        for name, table in self._tables.items():
            duplicate._tables[name] = table.copy()
        return duplicate

    def execute(self, sql: str) -> Optional[ResultSet]:
        """Parse and execute one SQL statement against this database."""
        from repro.sqlengine.executor import execute_sql  # local import avoids cycle

        return execute_sql(self, sql)

    def schema_description(self) -> str:
        """Human-readable schema summary used by the prompt generators."""
        lines = []
        for name in self.table_names():
            table = self._tables[name]
            lines.append(f"TABLE {name} ({', '.join(table.columns)}) -- {len(table)} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={self.table_names()})"
