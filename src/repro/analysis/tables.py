"""Plain-text rendering of paper-style tables."""


def render_table(title, headers, rows, note=None):
    """Render an aligned text table with a title banner."""
    columns = len(headers)
    normalized = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in normalized))
        if normalized else len(headers[i])
        for i in range(columns)
    ]

    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    rule = "-" * (sum(widths) + 2 * (columns - 1))
    out = [f"== {title} ==", line(headers), rule]
    out.extend(line(row) for row in normalized)
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)


def fmt_percent(value, digits=2):
    return f"{value:.{digits}f}%"


def fmt_factor(value, digits=1):
    return f"{value:.{digits}f}x"


def render_series(title, series, x_label="x", y_label="y"):
    """Render an (x, y) series as aligned text (for 'figures')."""
    out = [f"== {title} ==", f"{x_label:>14}  {y_label}"]
    for x, y in series:
        out.append(f"{x:>14.4f}  {y:.1f}")
    return "\n".join(out)
