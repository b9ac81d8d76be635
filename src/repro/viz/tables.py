"""Plain-text, Markdown, and CSV table rendering for model outputs.

Reports frequently leave the terminal: Markdown goes into design docs,
CSV into spreadsheets.  These helpers render generic header/rows
tables plus adapters for the library's common result shapes.
"""

from __future__ import annotations

import csv
import io as _io
import math

from ..errors import SpecError


def _check(headers, rows) -> list:
    headers = list(headers)
    if not headers:
        raise SpecError("table needs at least one column")
    normalized = []
    for index, row in enumerate(rows):
        row = list(row)
        if len(row) != len(headers):
            raise SpecError(
                f"row {index} has {len(row)} cells for {len(headers)} "
                "columns"
            )
        normalized.append([str(cell) for cell in row])
    return normalized


def markdown_table(headers, rows) -> str:
    """A GitHub-flavoured Markdown table."""
    body = _check(headers, rows)
    header_line = "| " + " | ".join(str(h) for h in headers) + " |"
    rule = "|" + "|".join(" --- " for _ in headers) + "|"
    lines = [header_line, rule]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def csv_table(headers, rows) -> str:
    """RFC-4180 CSV (proper quoting via the stdlib writer)."""
    body = _check(headers, rows)
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([str(h) for h in headers])
    writer.writerows(body)
    return buffer.getvalue()


def result_table(result, fmt: str = "markdown") -> str:
    """A :class:`~repro.core.result.GablesResult` per-component table."""
    headers = ("component", "f", "I (ops/B)", "time (s/op)",
               "bound (ops/s)", "limiter")
    rows = []
    for term in result.ip_terms:
        rows.append((
            term.name,
            f"{term.fraction:.4g}",
            "idle" if not term.active else f"{term.intensity:.4g}",
            f"{term.time:.4g}",
            "-" if term.perf_bound is None else f"{term.perf_bound:.4g}",
            term.limiter,
        ))
    rows.append((
        "memory", "-", f"{result.average_intensity:.4g}",
        f"{result.memory_time:.4g}",
        f"{result.memory_perf_bound:.4g}", "-",
    ))
    for name, time in result.extra_times.items():
        rows.append((name, "-", "-", f"{time:.4g}",
                     "inf" if time == 0 else f"{1.0 / time:.4g}", "-"))
    return _render(headers, rows, fmt)


def sweep_table(series, fmt: str = "markdown") -> str:
    """A :class:`~repro.explore.sweep.SweepSeries` as a table."""
    headers = (series.parameter, "attainable (ops/s)", "bottleneck")
    rows = [
        (f"{point.value:.6g}", f"{point.attainable:.6g}", point.bottleneck)
        for point in series.points
    ]
    return _render(headers, rows, fmt)


def drift_table(points, fmt: str = "markdown") -> str:
    """A generational-drift projection as a table."""
    headers = ("year", "attainable (ops/s)", "bottleneck", "vs today")
    rows = [
        (f"{p.year:g}", f"{p.attainable:.4g}", p.bottleneck,
         f"{p.speedup_vs_today:.2f}x")
        for p in points
    ]
    return _render(headers, rows, fmt)


def trace_summary_table(nodes, fmt: str = "markdown",
                        width: int | None = None) -> str:
    """A span-tree time breakdown as a table.

    ``nodes`` are the profile roots from
    :func:`repro.obs.profile.summarize_spans`; rows walk the tree
    depth-first, indent span names by depth, and report each path's
    share of the total root-span wall time.

    ``width`` (markdown only) caps the rendered line length for
    terminal display: deeply indented span names that would overflow
    are *wrapped* onto continuation rows — indentation preserved, stat
    cells blank — never truncated.  ``None`` leaves rows unwrapped.
    """
    total = math.fsum(root.total_s for root in nodes)
    headers = ("span", "count", "total (s)", "mean (s)",
               "self (s)", "% of trace")
    rows = []
    for root in nodes:
        for depth, node in root.walk():
            share = 100.0 * node.total_s / total if total > 0 else 0.0
            rows.append((
                "  " * depth + node.name,
                node.count,
                f"{node.total_s:.6f}",
                f"{node.total_s / node.count:.6f}",
                f"{node.self_s:.6f}",
                f"{share:.1f}",
            ))
    if width is not None and fmt == "markdown":
        rows = _wrap_span_rows(rows, width)
    return _render(headers, rows, fmt)


def _wrap_span_rows(rows, width: int) -> list:
    """Wrap over-long span cells onto continuation rows.

    The markdown renderer emits ``| span | c1 | ... |``, so each line
    costs ``4 + len(span) + sum(3 + len(cell))`` characters.  For every
    row whose line would exceed ``width``, the span cell is split at
    the largest budget that fits (floored at 16 characters so a narrow
    terminal still produces usable rows); continuation rows repeat the
    indentation and leave the stat cells empty.
    """
    wrapped = []
    for row in rows:
        span, *stats = (str(cell) for cell in row)
        overhead = 4 + sum(3 + len(cell) for cell in stats)
        budget = max(16, width - overhead)
        if len(span) <= budget:
            wrapped.append(row)
            continue
        indent = span[: len(span) - len(span.lstrip(" "))]
        body = span[len(indent):]
        chunk = max(1, budget - len(indent))
        pieces = [indent + body[i:i + chunk]
                  for i in range(0, len(body), chunk)]
        wrapped.append((pieces[0], *stats))
        for piece in pieces[1:]:
            wrapped.append((piece, *[""] * len(stats)))
    return wrapped


def _render(headers, rows, fmt: str) -> str:
    if fmt == "markdown":
        return markdown_table(headers, rows)
    if fmt == "csv":
        return csv_table(headers, rows)
    raise SpecError(f"unknown table format {fmt!r}; use markdown|csv")
