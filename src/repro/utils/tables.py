"""Plain-text table formatting used by the experiment harnesses.

Every experiment reproduces a table or figure from the paper; the harness
prints the regenerated rows with the same column structure so the output can
be compared side by side with the publication (the regenerated tables are
checked in under ``artifacts/results/``, e.g. ``table_4_large_tile.txt``).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.2f}",
) -> str:
    """Format rows of mixed values as an aligned plain-text table."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in rows]
    columns = [list(col) for col in zip(*([list(headers)] + rendered))] if rows else [[h] for h in headers]
    widths = [max(len(v) for v in col) for col in columns]

    def format_row(values: Sequence[str]) -> str:
        return " | ".join(v.ljust(w) for v, w in zip(values, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(format_row(row))
    return "\n".join(lines)
