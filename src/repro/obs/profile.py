"""Profiles are aggregated spans.

A profile answers "where did the time go, per pipeline stage?" by
folding tracer spans (:mod:`repro.obs.trace`) by their *name path*,
the span names from a root span down to the span itself.  Repeated
calls under the same path collapse into one tree node with a call
count, a cumulative total and a self time::

    from repro import obs

    obs.enable_tracing()
    ...                          # instrumented library calls
    nodes = obs.summarize_spans(obs.get_tracer().finished_spans())
    print(obs.format_profile(nodes))

:func:`summarize_spans` is the one aggregation behind every profile
view: ``gables profile -- <subcommand>`` (the subcommand runs under
the tracer inside a ``cli.<command>`` root span), ``gables trace
summarize``, the flamegraph, the dashboard and the merged fleet
``profile.json``.  Totals are ``math.fsum`` sums of span durations, so
the profile of a union of span sets is exactly the sum of its parts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ProfileNode:
    """An immutable snapshot of one profile-tree node.

    ``total_s`` is cumulative (includes children); ``self_s`` is the
    time not attributed to any instrumented child, clamped at 0 (a
    child can outlast its parent only through clock jitter).
    """

    name: str
    count: int
    total_s: float
    self_s: float
    children: tuple

    def walk(self, depth: int = 0):
        """Yield ``(depth, node)`` pairs, depth-first, children in
        descending total-time order (the report order)."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict:
        """A JSON-ready mapping of this subtree."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileNode":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            count=int(data["count"]),
            total_s=float(data["total_s"]),
            self_s=float(data["self_s"]),
            children=tuple(
                cls.from_dict(child) for child in data.get("children", ())
            ),
        )


def summarize_spans(spans) -> tuple:
    """Fold span records into a :class:`ProfileNode` forest.

    Open spans (``end_s is None``) are skipped.  A span whose parent is
    not among the closed spans is a root; so is the first span reached
    only through a parent cycle.  Roots and every child tuple come back
    in descending total time, then name.
    """
    closed = [record for record in spans if record.end_s is not None]
    ids = {record.span_id for record in closed}
    children: dict = {}  # parent span id -> indices into closed
    for index, record in enumerate(closed):
        children.setdefault(record.parent_id, []).append(index)
    durations: dict = {}  # name path -> span durations
    seen = [False] * len(closed)

    def visit(root: int) -> None:
        stack = [(root, ())]
        while stack:
            index, prefix = stack.pop()
            if seen[index]:
                continue
            seen[index] = True
            record = closed[index]
            path = prefix + (record.name,)
            durations.setdefault(path, []).append(record.duration_s)
            stack.extend(
                (child, path) for child in children.get(record.span_id, ())
            )

    for index, record in enumerate(closed):
        if record.parent_id not in ids:
            visit(index)
    for index in range(len(closed)):
        visit(index)  # only spans hidden behind a parent cycle remain

    by_parent: dict = {}
    for path in durations:
        by_parent.setdefault(path[:-1], []).append(path)

    def freeze(path) -> ProfileNode:
        kids = _ordered(freeze(child) for child in by_parent.get(path, ()))
        total = math.fsum(durations[path])
        return ProfileNode(
            name=path[-1],
            count=len(durations[path]),
            total_s=total,
            self_s=max(0.0, total - trace_total_seconds(kids)),
            children=kids,
        )

    return _ordered(freeze(path) for path in by_parent.get((), ()))


def _ordered(nodes) -> tuple:
    return tuple(sorted(nodes, key=lambda node: (-node.total_s, node.name)))


def trace_total_seconds(nodes) -> float:
    """Wall time covered by the root nodes of a profile."""
    return math.fsum(node.total_s for node in nodes)


# ---------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------


def format_profile(nodes, total_s: float | None = None) -> str:
    """The self/cumulative timing tree as aligned text.

    ``nodes`` is the output of :func:`summarize_spans`; ``total_s``
    overrides the percentage denominator (defaults to the sum of the
    root totals — pass the end-to-end wall time to report coverage
    against it instead).
    """
    nodes = tuple(nodes)
    if total_s is None:
        total_s = trace_total_seconds(nodes)
    rows = [("phase", "calls", "total (s)", "self (s)", "% total")]
    for root in nodes:
        for depth, node in root.walk():
            share = 100.0 * node.total_s / total_s if total_s > 0 else 0.0
            rows.append((
                "  " * depth + node.name,
                str(node.count),
                f"{node.total_s:.6f}",
                f"{node.self_s:.6f}",
                f"{share:.1f}",
            ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append(
            row[0].ljust(widths[0])
            + "".join(
                "  " + cell.rjust(widths[i])
                for i, cell in enumerate(row[1:], start=1)
            )
        )
    return "\n".join(lines)


def profile_to_dict(nodes) -> dict:
    """The whole report as one JSON-ready document."""
    nodes = tuple(nodes)
    return {
        "schema": 1,
        "total_s": trace_total_seconds(nodes),
        "tree": [node.to_dict() for node in nodes],
    }


def write_profile_json(path, nodes) -> dict:
    """Write a profile report as JSON; returns the document written."""
    document = profile_to_dict(nodes)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
