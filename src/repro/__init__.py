"""repro — a complete reproduction of *Gables: A Roofline Model for
Mobile SoCs* (Hill & Reddi, HPCA 2019).

Quickstart::

    from repro.core import SoCSpec, Workload, evaluate

    soc = SoCSpec.two_ip(peak_perf=40e9, memory_bandwidth=10e9,
                         acceleration=5, cpu_bandwidth=6e9,
                         acc_bandwidth=15e9)
    result = evaluate(soc, Workload.two_ip(f=0.75, i0=8, i1=0.1))
    print(result.summary())

Subpackages
-----------
``repro.core``
    The Gables model (base + extensions), classic Roofline, curves.
``repro.analysis``
    Generic bottleneck analysis substrate.
``repro.baselines``
    Amdahl, Gustafson, Hill-Marty, MultiAmdahl, LogCA-lite.
``repro.soc`` / ``repro.usecases``
    SoC/IP descriptions and dataflow usecases (paper Sections II, IV).
``repro.sim`` / ``repro.ert``
    Simulated Snapdragon-like hardware and the empirical roofline
    toolkit driver that measures it (paper Section IV).
``repro.market``
    Synthetic SoC market dataset (paper Figure 2).
``repro.explore``
    Sweeps, sensitivity, balanced-design search, SoC ranking.
``repro.viz``
    Dependency-free SVG/ASCII scaled-roofline plots (Section III-C).
``repro.obs``
    Observability: tracing spans and a metrics registry threaded
    through every hot path, and on-demand evaluation provenance (see
    docs/observability.md).
``repro.resilience``
    Fault injection, retry policies, sweep checkpoints, and the
    partial-failure (``on_error``) vocabulary (see
    docs/robustness.md).
"""

__version__ = "1.0.0"

from . import core, obs, resilience

__all__ = ["core", "obs", "resilience", "__version__"]
