"""Plain-text table rendering for the benches and EXPERIMENTS.md."""

from __future__ import annotations


def format_table(
    headers: list[str],
    rows: list[list],
    title: str | None = None,
    float_fmt: str = "{:.1f}",
) -> str:
    """Fixed-width table with right-aligned numeric columns."""

    def cell(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))

    def render(cells: list[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render(row) for row in str_rows)
    return "\n".join(lines)
