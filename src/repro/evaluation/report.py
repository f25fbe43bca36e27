"""Plain-text table rendering for experiment reports.

The benches print paper-style tables to stdout; this module keeps the
formatting in one place (fixed-width columns, numeric rounding, optional
paper-reference columns for side-by-side comparison).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_number(value: object, decimals: int = 2) -> str:
    """Human-friendly rendering of ints, floats and everything else."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        if abs(value) >= 1_000_000:
            return f"{value:.2e}"
        return str(value)
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1_000_000 or abs(value) < 0.01):
            return f"{value:.2e}"
        return f"{value:.{decimals}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    decimals: int = 2,
) -> str:
    """A fixed-width text table.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ----
    1  2.50
    """
    text_rows = [
        [format_number(cell, decimals) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_records(
    records: Sequence[Mapping[str, object]],
    title: str | None = None,
    decimals: int = 2,
) -> str:
    """Render a list of same-keyed dicts as a table (keys become headers)."""
    if not records:
        return title or "(no rows)"
    headers = list(records[0].keys())
    rows = [[record.get(h, "") for h in headers] for record in records]
    return render_table(headers, rows, title=title, decimals=decimals)


def paper_vs_measured(
    label: str, paper_value: float | None, measured: float
) -> dict[str, object]:
    """One row of a paper-vs-measured comparison table."""
    return {
        "metric": label,
        "paper": "-" if paper_value is None else paper_value,
        "measured": round(measured, 2),
    }
