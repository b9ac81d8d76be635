"""Flamegraph-style SVG rendering of a phase-profile tree.

Renders a profile tree (spans aggregated by
:func:`repro.obs.profile.summarize_spans`) as stacked horizontal bars:
each depth is one row, each span path a rectangle whose width is its
share of the root total, children nested directly below their parent.
Unlike sampling flamegraphs the input is exact — widths are measured
wall time, not sample counts.

The renderer is duck-typed over any node with ``name``, ``count``,
``total_s``, ``self_s``, and ``children`` attributes, so ``viz`` never
imports ``obs`` (the dependency runs the other way: obs -> viz would
create a cycle through core).
"""

from __future__ import annotations

import math

from ..errors import SpecError
from .svg import SERIES_COLORS, SURFACE, TEXT_PRIMARY, TEXT_SECONDARY, SvgCanvas

#: Bar geometry (pixels).
ROW_HEIGHT = 22
ROW_GAP = 2
MARGIN = 12
HEADER = 28

#: Bars narrower than this get no label (the tooltip still carries it).
MIN_LABEL_WIDTH = 48
#: Bars narrower than this are not drawn at all (sub-pixel noise).
MIN_BAR_WIDTH = 0.5


def _tree_depth(node) -> int:
    if not node.children:
        return 1
    return 1 + max(_tree_depth(child) for child in node.children)


def profile_flame_svg(nodes, width: int = 960,
                      title: str = "phase profile") -> str:
    """The profile tree as a flamegraph-style SVG document.

    ``nodes`` are root profile nodes (e.g. ``summarize_spans(spans)``).
    Widths are proportional to cumulative time; each bar carries a
    hover tooltip with name, call count, total, and self time.  Colors
    cycle the categorical palette by depth — depth is an ordering, not
    a category, so reuse is deliberate here.
    """
    nodes = tuple(nodes)
    if not nodes:
        raise SpecError("flamegraph needs at least one profile node")
    total = math.fsum(node.total_s for node in nodes)
    if total <= 0:
        raise SpecError("flamegraph needs a positive total time")
    depth = max(_tree_depth(node) for node in nodes)
    height = HEADER + depth * (ROW_HEIGHT + ROW_GAP) + MARGIN
    canvas = SvgCanvas(width=max(width, 64), height=max(height, 64))
    span = canvas.width - 2 * MARGIN
    canvas.text(MARGIN, HEADER - 10, f"{title} — {total:.4g}s total",
                color=TEXT_PRIMARY, size=13, weight="bold")

    def draw(node, x: float, level: int) -> None:
        bar_w = span * node.total_s / total
        if bar_w < MIN_BAR_WIDTH:
            return
        y = HEADER + level * (ROW_HEIGHT + ROW_GAP)
        share = 100.0 * node.total_s / total
        tooltip = (f"{node.name}: {node.count} call(s), "
                   f"{node.total_s:.6f}s total, {node.self_s:.6f}s self "
                   f"({share:.1f}%)")
        canvas.rect(x, y, bar_w, ROW_HEIGHT,
                    SERIES_COLORS[level % len(SERIES_COLORS)],
                    tooltip=tooltip)
        if bar_w >= MIN_LABEL_WIDTH:
            label = node.name
            # ~7px per character at size 11; elide rather than overflow.
            max_chars = max(1, int((bar_w - 8) / 7))
            if len(label) > max_chars:
                label = label[: max(1, max_chars - 1)] + "…"
            canvas.text(x + 4, y + ROW_HEIGHT - 7, label,
                        color=SURFACE, size=11)
        child_x = x
        for child in node.children:
            draw(child, child_x, level + 1)
            child_x += span * child.total_s / total

    x = float(MARGIN)
    for node in nodes:
        draw(node, x, 0)
        x += span * node.total_s / total
    # Legend line: self time is the unlabelled remainder inside a bar.
    canvas.text(MARGIN, canvas.height - 4,
                "bar width = cumulative time; gaps below a bar = self time",
                color=TEXT_SECONDARY, size=10)
    return canvas.to_string()


def save_profile_flame_svg(path, nodes, width: int = 960,
                           title: str = "phase profile") -> None:
    """Write :func:`profile_flame_svg` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(profile_flame_svg(nodes, width=width, title=title))
