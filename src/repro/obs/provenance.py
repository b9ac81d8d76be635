"""Evaluation provenance: an auditable *explain record* per bound.

Gables reports a single number — the attainable performance — produced
by a max over component times (equivalently, a min over performance
bounds).  When that number surprises, the question is always "which
term won, and by how much?".  An :class:`ExplainRecord` captures the
full derivation for one ``core.gables.evaluate()`` call:

- the inputs (SoC name, ``Bpeak``, per-IP ``Ai``/``Bi``; workload
  fractions and intensities);
- every per-IP term (compute time, transfer time, which of the two the
  ``max()`` picked);
- the shared-memory term and the work-averaged intensity;
- the winning ``min()`` branch — the bottleneck — and every component
  that ties it.

The record is self-auditing: :meth:`ExplainRecord.to_system` lowers it
onto the generic series/parallel substrate of
:mod:`repro.analysis.bottleneck`, and :meth:`ExplainRecord.audit`
checks that *independent* attribution names the same bottleneck the
model reported — the same cross-check the test suite runs.

Records are built on demand and never on the model's hot path:
:func:`explain` evaluates and explains any (SoC, workload) pair, and
:func:`from_result` explains a result already in hand (what
``gables eval --explain`` prints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.bottleneck import Stage, bottleneck_of, series


@dataclass(frozen=True)
class TermExplain:
    """Provenance for one IP's term (one branch of the outer min)."""

    name: str
    fraction: float
    intensity: float
    compute_time: float
    transfer_time: float
    data_bytes: float
    time: float
    limiter: str  # "compute" | "bandwidth" | "idle"

    @property
    def perf_bound(self) -> float:
        """The performance-domain dual of this term's time."""
        if self.time == 0:
            return math.inf
        return 1.0 / self.time


@dataclass(frozen=True)
class ExplainRecord:
    """The full derivation of one attainable-performance bound."""

    soc: str
    workload: str
    memory_bandwidth: float
    ip_peaks: tuple  # Ai * Ppeak per IP, ops/s
    ip_bandwidths: tuple  # Bi per IP, bytes/s
    fractions: tuple
    intensities: tuple
    terms: tuple  # TermExplain per IP
    memory_time: float
    memory_perf_bound: float
    average_intensity: float
    attainable: float
    bottleneck: str
    binding_components: tuple
    #: Extension components (bus times, coordination), as (name, time)
    #: pairs in presentation order — populated by variant evaluations.
    extra_times: tuple = ()

    # -- audit ---------------------------------------------------------

    def component_times(self) -> dict:
        """Every min()-branch as a name -> seconds-per-op mapping."""
        times = {term.name: term.time for term in self.terms}
        times["memory"] = self.memory_time
        times.update(self.extra_times)
        return times

    def to_system(self):
        """Lower onto the bottleneck-analysis series composition.

        Per unit of work every component must "pass" the usecase, so
        the components compose in *series* with throughput ``1/time``
        (``inf`` for components taking no time — they can never bind).
        """
        stages = [
            Stage(name, math.inf if t == 0 else 1.0 / t)
            for name, t in self.component_times().items()
        ]
        return series(*stages)

    def audit(self) -> bool:
        """Re-derive the bottleneck via :mod:`repro.analysis.bottleneck`.

        Returns True when the independent series-composition attribution
        agrees with this record on both the binding component and the
        attainable throughput.
        """
        report = bottleneck_of(self.to_system())
        return (
            report.stage.name == self.bottleneck
            and math.isclose(report.throughput, self.attainable,
                             rel_tol=1e-9)
        )

    # -- presentation --------------------------------------------------

    def narrative(self) -> str:
        """A human-readable walk through the winning min() branch."""
        lines = [
            f"evaluate({self.soc!r}, {self.workload!r}) -> "
            f"{self.attainable:.6g} ops/s, bound by {self.bottleneck!r}"
        ]
        for term in self.terms:
            if term.limiter == "idle":
                lines.append(f"  {term.name}: idle (f=0), cannot bind")
                continue
            winner = ("link transfer" if term.limiter == "bandwidth"
                      else "compute")
            lines.append(
                f"  {term.name}: max(compute {term.compute_time:.4g}s, "
                f"transfer {term.transfer_time:.4g}s) -> {winner} "
                f"({term.time:.4g}s/op, bound {term.perf_bound:.6g} ops/s)"
            )
        lines.append(
            f"  memory: {self.memory_time:.4g}s/op moving "
            f"{math.fsum(t.data_bytes for t in self.terms):.4g} B/op "
            f"at Iavg {self.average_intensity:.4g}"
        )
        for name, t in self.extra_times:
            lines.append(f"  {name}: {t:.4g}s/op shared-resource term")
        binding = ", ".join(self.binding_components)
        lines.append(
            f"  slowest component wins the max(): {binding}"
            + (" (balanced tie)" if len(self.binding_components) > 1 else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-ready mapping of the whole record."""
        return {
            "soc": self.soc,
            "workload": self.workload,
            "memory_bandwidth": self.memory_bandwidth,
            "ip_peaks": list(self.ip_peaks),
            "ip_bandwidths": list(self.ip_bandwidths),
            "fractions": list(self.fractions),
            "intensities": [
                ("inf" if math.isinf(i) else i) for i in self.intensities
            ],
            "terms": [
                {
                    "name": t.name,
                    "fraction": t.fraction,
                    "intensity": "inf" if math.isinf(t.intensity) else t.intensity,
                    "compute_time": t.compute_time,
                    "transfer_time": t.transfer_time,
                    "data_bytes": t.data_bytes,
                    "time": t.time,
                    "limiter": t.limiter,
                }
                for t in self.terms
            ],
            "memory_time": self.memory_time,
            "memory_perf_bound": (
                "inf" if math.isinf(self.memory_perf_bound)
                else self.memory_perf_bound
            ),
            "average_intensity": (
                "inf" if math.isinf(self.average_intensity)
                else self.average_intensity
            ),
            "attainable": self.attainable,
            "bottleneck": self.bottleneck,
            "binding_components": list(self.binding_components),
            "extra_times": {name: t for name, t in self.extra_times},
        }


def from_result(soc, workload, result) -> ExplainRecord:
    """Build an :class:`ExplainRecord` from an evaluated result.

    ``soc``/``workload`` are the inputs ``result`` came from (duck
    typed; any :class:`~repro.core.params.SoCSpec`-shaped pair works).
    """
    terms = tuple(
        TermExplain(
            name=term.name,
            fraction=term.fraction,
            intensity=term.intensity,
            compute_time=term.compute_time,
            transfer_time=term.transfer_time,
            data_bytes=term.data_bytes,
            time=term.time,
            limiter=term.limiter,
        )
        for term in result.ip_terms
    )
    return ExplainRecord(
        soc=getattr(soc, "name", "?"),
        workload=getattr(workload, "name", "?"),
        memory_bandwidth=soc.memory_bandwidth,
        ip_peaks=tuple(soc.ip_peak(i) for i in range(soc.n_ips)),
        ip_bandwidths=tuple(ip.bandwidth for ip in soc.ips),
        fractions=tuple(workload.fractions),
        intensities=tuple(workload.intensities),
        terms=terms,
        memory_time=result.memory_time,
        memory_perf_bound=result.memory_perf_bound,
        average_intensity=result.average_intensity,
        attainable=result.attainable,
        bottleneck=result.bottleneck,
        binding_components=tuple(result.binding_components),
        extra_times=tuple(getattr(result, "extra_times", {}).items()),
    )


def explain(soc, workload) -> ExplainRecord:
    """Evaluate ``workload`` on ``soc`` and explain the result."""
    from ..core.gables import evaluate

    return from_result(soc, workload, evaluate(soc, workload))

