"""The :class:`DataFrame` table type of the mini dataframe library."""

from __future__ import annotations

import copy as _copy
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from repro.frames.series import Series
from repro.utils.validation import ValidationError


class FrameError(ValidationError):
    """Raised for invalid dataframe operations."""


Record = Dict[str, Any]


class DataFrame:
    """An ordered collection of equally-long named columns.

    Construction accepts either a mapping from column name to values::

        DataFrame({"node": ["a", "b"], "bytes": [10, 20]})

    or a list of record dictionaries via :meth:`from_records`.
    """

    def __init__(self, data: Optional[Mapping[str, Iterable[Any]]] = None,
                 columns: Optional[Sequence[str]] = None) -> None:
        self._columns: Dict[str, List[Any]] = {}
        self._read_only = False
        if data:
            lengths = set()
            for name, values in data.items():
                values = list(values)
                lengths.add(len(values))
                self._columns[str(name)] = values
            if len(lengths) > 1:
                raise FrameError(f"columns have differing lengths: {sorted(lengths)}")
        elif columns:
            for name in columns:
                self._columns[str(name)] = []

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Record],
                     columns: Optional[Sequence[str]] = None) -> "DataFrame":
        """Build a dataframe from a list of dictionaries.

        Missing keys become ``None``; when *columns* is omitted the union of
        keys (in first-seen order) is used.
        """
        records = list(records)
        if columns is None:
            ordered: Dict[str, None] = {}
            for record in records:
                for key in record:
                    ordered.setdefault(str(key), None)
            columns = list(ordered)
        frame = cls(columns=columns)
        for record in records:
            frame._append_record({col: record.get(col) for col in columns})
        return frame

    def freeze(self) -> "DataFrame":
        """Make this frame read-only in place and return it.

        Column assignment on a frozen frame raises :class:`FrameError`, so
        one frame can be shared by many readers; every transformation
        (``assign``, ``copy``, selections) still returns a writable frame.
        """
        self._read_only = True
        return self

    def _append_record(self, record: Record) -> None:
        for column in self._columns:
            self._columns[column].append(record.get(column))

    # ------------------------------------------------------------------
    # shape and basic access
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def shape(self) -> tuple:
        return (len(self), len(self._columns))

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(rows={len(self)}, columns={self.columns})"

    def __getitem__(self, key: Union[str, Sequence[str], Series]) -> Union[Series, "DataFrame"]:
        if isinstance(key, Series):
            return self.mask(key)
        if isinstance(key, str):
            if key not in self._columns:
                raise FrameError(f"unknown column {key!r}; available: {self.columns}")
            return Series(self._columns[key], name=key)
        if isinstance(key, (list, tuple)):
            missing = [c for c in key if c not in self._columns]
            if missing:
                raise FrameError(f"unknown columns {missing!r}; available: {self.columns}")
            return DataFrame({c: list(self._columns[c]) for c in key})
        raise FrameError(f"unsupported selection key: {key!r}")

    def __setitem__(self, column: str, values: Union[Series, Iterable[Any], Any]) -> None:
        if self._read_only:
            raise FrameError(f"cannot assign column {column!r}: the frame is read-only; "
                             f"use assign() for a modified copy")
        if isinstance(values, Series):
            values = list(values.values)
        elif isinstance(values, (list, tuple)):
            values = list(values)
        else:
            values = [values] * max(len(self), 1)
        if self._columns and len(values) != len(self):
            raise FrameError(f"column length {len(values)} does not match frame length {len(self)}")
        self._columns[str(column)] = values

    # ------------------------------------------------------------------
    # row-wise access
    # ------------------------------------------------------------------
    def row(self, index: int) -> Record:
        if index < 0 or index >= len(self):
            raise FrameError(f"row index {index} out of range (0..{len(self) - 1})")
        return {column: values[index] for column, values in self._columns.items()}

    def iterrows(self) -> Iterator[tuple]:
        for index in range(len(self)):
            yield index, self.row(index)

    def to_records(self) -> List[Record]:
        return [self.row(i) for i in range(len(self))]

    to_dict_records = to_records

    # ------------------------------------------------------------------
    # selection / transformation
    # ------------------------------------------------------------------
    def mask(self, predicate: Series) -> "DataFrame":
        """Select rows where the boolean *predicate* series is true."""
        if len(predicate) != len(self):
            raise FrameError("mask length mismatch")
        keep = [bool(v) for v in predicate.values]
        return DataFrame({
            column: [v for v, k in zip(values, keep) if k]
            for column, values in self._columns.items()
        })

    def filter_rows(self, predicate: Callable[[Record], bool]) -> "DataFrame":
        """Select rows for which *predicate(record)* is true."""
        return DataFrame.from_records(
            [record for _, record in self.iterrows() if predicate(record)],
            columns=self.columns,
        )

    def head(self, n: int = 5) -> "DataFrame":
        return DataFrame({column: values[:n] for column, values in self._columns.items()})

    def tail(self, n: int = 5) -> "DataFrame":
        return DataFrame({column: values[-n:] if n else [] for column, values in self._columns.items()})

    def copy(self) -> "DataFrame":
        return DataFrame({column: _copy.deepcopy(values) for column, values in self._columns.items()})

    def drop(self, columns: Union[str, Sequence[str]]) -> "DataFrame":
        if isinstance(columns, str):
            columns = [columns]
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise FrameError(f"cannot drop unknown columns {missing!r}")
        return DataFrame({c: list(v) for c, v in self._columns.items() if c not in set(columns)})

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        return DataFrame({mapping.get(c, c): list(v) for c, v in self._columns.items()})

    def assign(self, **new_columns: Union[Series, Iterable[Any], Callable[["DataFrame"], Any], Any]) -> "DataFrame":
        """Return a copy with additional or replaced columns (pandas-style)."""
        result = self.copy()
        for name, value in new_columns.items():
            if callable(value) and not isinstance(value, Series):
                value = value(result)
            result[name] = value
        return result

    def sort_values(self, by: Union[str, Sequence[str]], ascending: Union[bool, Sequence[bool]] = True) -> "DataFrame":
        if isinstance(by, str):
            by = [by]
        if isinstance(ascending, bool):
            ascending = [ascending] * len(by)
        if len(ascending) != len(by):
            raise FrameError("ascending must match the number of sort keys")
        for column in by:
            if column not in self._columns:
                raise FrameError(f"unknown sort column {column!r}")
        indices = list(range(len(self)))
        # Stable sort applied from the least-significant key to the most.
        for column, asc in reversed(list(zip(by, ascending))):
            values = self._columns[column]
            indices.sort(key=lambda i: _sort_key(values[i]), reverse=not asc)
        return DataFrame({
            column: [values[i] for i in indices]
            for column, values in self._columns.items()
        })

    def drop_duplicates(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        subset = list(subset) if subset else self.columns
        seen = set()
        kept: List[Record] = []
        for _, record in self.iterrows():
            key = tuple(repr(record.get(c)) for c in subset)
            if key not in seen:
                seen.add(key)
                kept.append(record)
        return DataFrame.from_records(kept, columns=self.columns)

    def merge(self, other: "DataFrame", on: Union[str, Sequence[str]],
              how: str = "inner", suffixes: tuple = ("_x", "_y")) -> "DataFrame":
        """Join two frames on equality of the *on* columns (inner/left join)."""
        if how not in ("inner", "left"):
            raise FrameError(f"unsupported join type {how!r}; use 'inner' or 'left'")
        keys = [on] if isinstance(on, str) else list(on)
        for key in keys:
            if key not in self._columns or key not in other._columns:
                raise FrameError(f"join key {key!r} missing from one of the frames")

        other_index: Dict[tuple, List[Record]] = {}
        for _, record in other.iterrows():
            other_index.setdefault(tuple(repr(record[k]) for k in keys), []).append(record)

        overlap = (set(self.columns) & set(other.columns)) - set(keys)
        out_records: List[Record] = []
        for _, left in self.iterrows():
            lookup = tuple(repr(left[k]) for k in keys)
            matches = other_index.get(lookup, [])
            if not matches and how == "left":
                merged = dict(left)
                for column in other.columns:
                    if column in keys:
                        continue
                    name = column + suffixes[1] if column in overlap else column
                    merged[name] = None
                for column in overlap:
                    merged[column + suffixes[0]] = merged.pop(column)
                out_records.append(merged)
                continue
            for right in matches:
                merged = {}
                for column, value in left.items():
                    name = column + suffixes[0] if column in overlap else column
                    merged[name] = value
                for column, value in right.items():
                    if column in keys:
                        continue
                    name = column + suffixes[1] if column in overlap else column
                    merged[name] = value
                out_records.append(merged)
        return DataFrame.from_records(out_records)

    def groupby(self, by: Union[str, Sequence[str]]) -> "GroupBy":
        from repro.frames.groupby import GroupBy  # local import to avoid cycle

        keys = [by] if isinstance(by, str) else list(by)
        for key in keys:
            if key not in self._columns:
                raise FrameError(f"unknown group-by column {key!r}")
        return GroupBy(self, keys)

    def apply_rows(self, func: Callable[[Record], Any], column: str) -> "DataFrame":
        """Return a copy with *column* computed row-wise by *func*."""
        result = self.copy()
        result[column] = [func(record) for _, record in self.iterrows()]
        return result

    # ------------------------------------------------------------------
    # aggregate helpers
    # ------------------------------------------------------------------
    def sum(self) -> Dict[str, float]:
        return {column: Series(values).sum() for column, values in self._columns.items()}

    def nlargest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=False).head(n)

    def nsmallest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=True).head(n)

    def equals(self, other: "DataFrame") -> bool:
        """Order-sensitive equality of columns and values."""
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns or len(self) != len(other):
            return False
        return all(self._columns[c] == other._columns[c] for c in self._columns)


def _sort_key(value: Any) -> tuple:
    """Sort key tolerant of mixed types and ``None`` values."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (1, "", float(value))
    return (2, str(value), 0)


def concat(frames: Sequence[DataFrame]) -> DataFrame:
    """Row-wise concatenation of frames (union of columns, missing -> None)."""
    records: List[Record] = []
    ordered: Dict[str, None] = {}
    for frame in frames:
        for column in frame.columns:
            ordered.setdefault(column, None)
        records.extend(frame.to_records())
    return DataFrame.from_records(records, columns=list(ordered))
