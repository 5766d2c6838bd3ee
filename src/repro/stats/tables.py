"""Plain-text rendering for the benchmark harness.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """A fixed-width table with a header rule."""
    rendered_rows: List[List[str]] = [[_render(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line([str(h) for h in headers]))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)
