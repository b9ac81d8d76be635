"""Declarative SLOs with multi-window error-budget burn-rate alerts.

An SLO turns "the service feels slow" into an engineering contract:
*99.9% of requests succeed* (availability) or *p99 latency stays under
250 ms* (latency).  The error budget is the tolerated failure fraction
(``1 - objective``); the **burn rate** is how fast the service is
spending it — an error rate equal to the budget burns at rate 1.0 and
exhausts the budget exactly at the window's end.

Alerting follows the multi-window rule from the SRE workbook: an
objective *breaches* a :class:`BurnWindow` only when **both** the long
window (is the burn sustained?) and the short window (is it still
happening?) exceed ``max_burn``.  That keeps one transient spike from
paging while a sustained regression pages within minutes.

Two event sources feed the engine:

- the **live window** — a bounded process-global :class:`RequestWindow`
  the HTTP server feeds one event per request (outcome + latency), the
  basis of ``GET /slo``;
- **bench history** — rolling ``serve.loadgen.p99`` records in
  ``BENCH_HISTORY.jsonl`` (:func:`history_events`), the basis of
  ``gables slo check --history``.

Breaches become structured alert records appended to ``ALERTS.jsonl``
(:func:`append_alerts`); page-severity burns make ``gables slo check``
exit nonzero via :class:`~repro.errors.ObservabilityError` with code
``SLO_BURN_RATE_EXCEEDED``.  See ``docs/monitoring.md``.
"""

from __future__ import annotations

import calendar
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..errors import ObservabilityError

__all__ = [
    "DEFAULT_BURN_WINDOWS",
    "SEVERITIES",
    "BurnWindow",
    "SLObjective",
    "SLOEvent",
    "RequestWindow",
    "request_window",
    "observe_request",
    "reset_slo",
    "default_objectives",
    "evaluate_objective",
    "evaluate_slos",
    "history_events",
    "alert_records",
    "append_alerts",
    "read_alerts",
    "format_slo_report",
]

#: Alert severities, least to most urgent (the escalation order).
SEVERITIES = ("ticket", "page")


def _bad_objective(message: str) -> ObservabilityError:
    return ObservabilityError(message, code="SLO_BAD_OBJECTIVE")


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alert rule.

    ``long_s`` asks "is the burn sustained?", ``short_s`` asks "is it
    still happening right now?"; the rule fires only when both windows
    burn at ``max_burn`` or faster.
    """

    long_s: float
    short_s: float
    max_burn: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.short_s > 0 or not self.long_s >= self.short_s:
            raise _bad_objective(
                f"burn window needs long_s >= short_s > 0, got "
                f"long_s={self.long_s!r} short_s={self.short_s!r}"
            )
        if not self.max_burn > 0:
            raise _bad_objective(
                f"burn window needs max_burn > 0, got {self.max_burn!r}"
            )
        if self.severity not in SEVERITIES:
            raise _bad_objective(
                f"severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def to_dict(self) -> dict:
        return {
            "long_s": self.long_s,
            "short_s": self.short_s,
            "max_burn": self.max_burn,
            "severity": self.severity,
        }


#: The classic fast-burn/slow-burn pair: page on a burn that would
#: spend a day's budget in ~100 minutes, ticket on a slow leak.
DEFAULT_BURN_WINDOWS = (
    BurnWindow(long_s=3600.0, short_s=300.0, max_burn=14.4,
               severity="page"),
    BurnWindow(long_s=6 * 3600.0, short_s=1800.0, max_burn=6.0,
               severity="ticket"),
)


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over the request stream.

    ``kind`` is ``"availability"`` (an event is good when the request
    succeeded) or ``"latency"`` (good when it completed within
    ``threshold_s``).  ``objective`` is the target good fraction; the
    error budget is its complement.
    """

    name: str
    kind: str
    objective: float
    threshold_s: float | None = None
    windows: tuple = DEFAULT_BURN_WINDOWS

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise _bad_objective(
                f"objective kind must be availability or latency, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise _bad_objective(
                f"objective must be in (0, 1), got {self.objective!r}"
            )
        if self.kind == "latency":
            if self.threshold_s is None or not self.threshold_s > 0:
                raise _bad_objective(
                    f"latency objective {self.name!r} needs threshold_s > 0"
                )
        if not self.windows:
            raise _bad_objective(
                f"objective {self.name!r} needs at least one burn window"
            )
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction."""
        return 1.0 - self.objective

    def is_good(self, event: "SLOEvent") -> bool:
        """Whether ``event`` counts against this objective's budget."""
        if self.kind == "availability":
            return event.ok
        return event.ok and event.latency_s <= self.threshold_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "threshold_s": self.threshold_s,
            "windows": [window.to_dict() for window in self.windows],
        }


@dataclass(frozen=True)
class SLOEvent:
    """One observation: a request (weight 1) or a weighted aggregate."""

    ts: float
    ok: bool
    latency_s: float = 0.0
    weight: float = 1.0


def default_objectives(*, availability: float = 0.999,
                       latency_objective: float = 0.99,
                       threshold_s: float = 0.25,
                       windows=None) -> tuple:
    """The serve stack's standard objective pair.

    The ``threshold_s`` default is the served p99 latency target:
    ``GET /slo`` evaluates these defaults.
    """
    windows = tuple(windows) if windows else DEFAULT_BURN_WINDOWS
    return (
        SLObjective(name="availability", kind="availability",
                    objective=availability, windows=windows),
        SLObjective(name="latency_p99", kind="latency",
                    objective=latency_objective, threshold_s=threshold_s,
                    windows=windows),
    )


class RequestWindow:
    """A bounded, thread-safe buffer of recent request observations.

    The live half of the engine: the HTTP server appends one event per
    request; ``GET /slo`` evaluates objectives over whatever the
    window still holds.  Bounded so a long-lived server cannot grow
    without limit — old events age out of every burn window anyway.
    """

    def __init__(self, max_events: int = 65536) -> None:
        if max_events < 1:
            raise ObservabilityError(
                f"request window needs max_events >= 1, got {max_events}"
            )
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=max_events)

    def observe(self, *, ok: bool, latency_s: float, ts=None) -> SLOEvent:
        """Record one request outcome."""
        event = SLOEvent(
            ts=time.time() if ts is None else float(ts),
            ok=bool(ok),
            latency_s=float(latency_s),
        )
        with self._lock:
            self._events.append(event)
        return event

    def events(self) -> tuple:
        """All retained events, oldest first."""
        with self._lock:
            return tuple(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def reset(self) -> None:
        with self._lock:
            self._events.clear()


#: The process-global live window the server feeds.
_WINDOW = RequestWindow()


def request_window() -> RequestWindow:
    """The process-global live request window."""
    return _WINDOW


def observe_request(*, ok: bool, latency_s: float, ts=None) -> SLOEvent:
    """Record one request into the global window (the server hook)."""
    return _WINDOW.observe(ok=ok, latency_s=latency_s, ts=ts)


def reset_slo() -> None:
    """Clear the global request window (test-suite hook)."""
    _WINDOW.reset()


# ---------------------------------------------------------------------
# Burn-rate evaluation
# ---------------------------------------------------------------------


def _window_burn(objective: SLObjective, events, window_s: float,
                 now: float):
    """The burn rate over the trailing ``window_s``, or ``None`` (no data)."""
    cutoff = now - window_s
    total = 0.0
    bad = 0.0
    for event in events:
        if event.ts < cutoff or event.ts > now:
            continue
        total += event.weight
        if not objective.is_good(event):
            bad += event.weight
    if total <= 0:
        return None
    return (bad / total) / objective.budget


def evaluate_objective(objective: SLObjective, events, *,
                       now=None) -> dict:
    """Evaluate one objective's burn windows over ``events``.

    Returns a JSON-ready verdict: per-window long/short burns (``None``
    where the window held no data), which windows breached (both burns
    present and >= ``max_burn``), and the worst breached severity
    (``""`` when the objective is healthy).
    """
    if now is None:
        now = time.time()
    events = tuple(events)
    windows = []
    worst = ""
    for window in objective.windows:
        long_burn = _window_burn(objective, events, window.long_s, now)
        short_burn = _window_burn(objective, events, window.short_s, now)
        breached = (
            long_burn is not None and short_burn is not None
            and long_burn >= window.max_burn
            and short_burn >= window.max_burn
        )
        windows.append({
            **window.to_dict(),
            "long_burn": long_burn,
            "short_burn": short_burn,
            "breached": breached,
        })
        if breached and (not worst or SEVERITIES.index(window.severity)
                         > SEVERITIES.index(worst)):
            worst = window.severity
    return {
        "name": objective.name,
        "kind": objective.kind,
        "objective": objective.objective,
        "budget": objective.budget,
        "threshold_s": objective.threshold_s,
        "events": sum(e.weight for e in events),
        "windows": windows,
        "breached": bool(worst),
        "severity": worst,
    }


def evaluate_slos(objectives, events, *, now=None) -> dict:
    """Evaluate every objective over one event stream.

    The report ``GET /slo`` serves: per-objective verdicts plus the
    overall worst severity, ready for :func:`alert_records`.
    """
    if now is None:
        now = time.time()
    verdicts = [
        evaluate_objective(objective, events, now=now)
        for objective in objectives
    ]
    worst = ""
    for verdict in verdicts:
        severity = verdict["severity"]
        if severity and (not worst or SEVERITIES.index(severity)
                         > SEVERITIES.index(worst)):
            worst = severity
    return {
        "now": now,
        "objectives": verdicts,
        "breached": bool(worst),
        "severity": worst,
    }


# ---------------------------------------------------------------------
# Bench-history events (the offline half)
# ---------------------------------------------------------------------


def _record_ts(raw) -> float:
    """A bench record timestamp as epoch seconds; 0.0 when unparsable.

    History records carry ISO-8601 UTC strings
    (``2026-08-09T12:34:56Z``); numeric strings pass through.  A zero
    timestamp lands outside every burn window, so unparsable records
    simply never contribute to a breach.
    """
    if not raw:
        return 0.0
    try:
        return float(raw)
    except (TypeError, ValueError):
        pass
    try:
        return float(calendar.timegm(
            time.strptime(str(raw), "%Y-%m-%dT%H:%M:%SZ")
        ))
    except ValueError:
        return 0.0


def history_events(records, *, metric: str = "serve.loadgen.p99",
                   threshold_s: float) -> tuple:
    """Turn loadgen SLO bench records into weighted latency events.

    Each ``serve.loadgen.p99`` record summarizes one load run: it
    becomes a single event that is *good* when the recorded p99 stayed
    within ``threshold_s``, weighted by the run's sample count (the
    ``samples`` meta field the loadgen stamps) so a 1000-request run
    outweighs a 10-request smoke test.
    """
    if not threshold_s > 0:
        raise _bad_objective(
            f"history events need threshold_s > 0, got {threshold_s!r}"
        )
    events = []
    for record in records:
        if record.name != metric:
            continue
        meta = record.meta or {}
        weight = meta.get("samples", meta.get("clean_requests", 1))
        events.append(SLOEvent(
            ts=_record_ts(record.timestamp),
            ok=True,
            latency_s=float(record.value),
            weight=max(1.0, float(weight)),
        ))
    return tuple(events)


# ---------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------


def alert_records(report: dict, *, source: str = "") -> list:
    """Structured alert documents for every breached objective."""
    alerts = []
    for verdict in report.get("objectives", ()):
        if not verdict.get("breached"):
            continue
        breached = [w for w in verdict["windows"] if w["breached"]]
        alerts.append({
            "kind": "slo_alert",
            "ts": report.get("now", 0.0),
            "source": source,
            "objective": verdict["name"],
            "severity": verdict["severity"],
            "budget": verdict["budget"],
            "windows": breached,
        })
    return alerts


def append_alerts(path, alerts) -> list:
    """Append alert documents to ``path`` (ALERTS.jsonl); returns them."""
    from ..io.jsonl import append_jsonl

    for alert in alerts:
        append_jsonl(path, alert)
    return list(alerts)


def read_alerts(path) -> tuple:
    """Read alert documents back, tolerating a torn final line."""
    from ..io.jsonl import read_jsonl_tolerant

    return read_jsonl_tolerant(
        path, error=ObservabilityError, label="alert record"
    )


def format_slo_report(report: dict) -> str:
    """The :func:`evaluate_slos` report as aligned, human-scannable text."""
    lines = []
    for verdict in report.get("objectives", ()):
        threshold = (
            f" <= {verdict['threshold_s']:g}s"
            if verdict.get("threshold_s") else ""
        )
        state = (
            f"BREACH ({verdict['severity']})"
            if verdict["breached"] else "ok"
        )
        lines.append(
            f"{verdict['name']:<16} {verdict['kind']}{threshold} "
            f"objective={verdict['objective']:g} "
            f"events={verdict['events']:g}  {state}"
        )
        for window in verdict["windows"]:
            def fmt(burn):
                return "n/a" if burn is None else f"{burn:.2f}"
            lines.append(
                f"  {window['severity']:<7} "
                f"long {window['long_s']:g}s burn {fmt(window['long_burn'])} "
                f"/ short {window['short_s']:g}s "
                f"burn {fmt(window['short_burn'])} "
                f"(max {window['max_burn']:g})"
                + ("  BREACHED" if window["breached"] else "")
            )
    overall = (
        f"SLO BREACH: severity {report['severity']}"
        if report.get("breached") else "all objectives within budget"
    )
    lines.append(overall)
    return "\n".join(lines)
