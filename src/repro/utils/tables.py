"""Plain-text table rendering for benchmark reports.

The benchmark harness regenerates the paper's tables; these helpers render
them in the same row/column layout as the paper so a reader can compare them
side by side.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def _stringify(cell: Any, float_format: str = "{:.2f}") -> str:
    if isinstance(cell, float):
        return float_format.format(cell)
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None, float_format: str = "{:.2f}") -> str:
    """Render an aligned plain-text table."""
    str_rows: List[List[str]] = [[_stringify(c, float_format) for c in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cells[i].ljust(widths[i]) if i < len(widths) else cells[i]
                  for i in range(len(cells))]
        return "  ".join(padded).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(str_headers))
    lines.append(render_row(["-" * w for w in widths]))
    for row in str_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_cdf(values: Sequence[float], num_points: int = 20) -> List[tuple]:
    """Return ``(value, cumulative_fraction)`` points of the empirical CDF."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    points = []
    step = max(1, n // num_points)
    for i in range(0, n, step):
        points.append((ordered[i], (i + 1) / n))
    if points[-1][0] != ordered[-1]:
        points.append((ordered[-1], 1.0))
    return points
