"""Plain-text table rendering for benchmark output.

Every benchmark prints the rows/series of its paper figure through
:func:`format_table`, so ``pytest benchmarks/ --benchmark-only -s``
regenerates the paper's tables in the terminal and the same strings
land in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.3g}",
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = [
        [
            float_fmt.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
