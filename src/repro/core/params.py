"""Hardware and software parameter objects for the Gables model.

The paper's Table II glossary maps onto two frozen dataclasses:

========== =========================================== ==================
Paper      Meaning                                     Here
========== =========================================== ==================
``Ppeak``  peak performance of IP[0] (the CPU), ops/s  ``SoCSpec.peak_perf``
``Bpeak``  peak off-chip DRAM bandwidth, bytes/s       ``SoCSpec.memory_bandwidth``
``Ai``     acceleration of IP[i] relative to Ppeak     ``IPBlock.acceleration``
``Bi``     bandwidth to/from IP[i], bytes/s            ``IPBlock.bandwidth``
``fi``     fraction of usecase work at IP[i]           ``Workload.fractions[i]``
``Ii``     operational intensity at IP[i], ops/byte    ``Workload.intensities[i]``
========== =========================================== ==================

Work is normalized: a usecase is one unit of work (1 op) split into
non-negative fractions summing to one.  Attainable performance is then
in ops/s and a concrete runtime for ``W`` total operations is simply
``W / P_attainable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .._validation import (
    as_float_tuple,
    require_finite_positive,
    require_fractions_sum_to_one,
    require_positive,
    require_same_length,
)
from ..errors import SpecError, WorkloadError
from .result import MEMORY


@dataclass(frozen=True)
class IPBlock:
    """One IP block (CPU complex, GPU, DSP, ISP, ...) on the SoC.

    Parameters
    ----------
    name:
        Label used in reports and plots (e.g. ``"CPU"``, ``"GPU"``).
    acceleration:
        ``Ai`` — peak performance of this IP as a multiple of the SoC's
        ``Ppeak``.  IP[0] must have ``acceleration == 1`` (it *defines*
        ``Ppeak``); other IPs may be faster (``A > 1``, an accelerator)
        or slower (``A < 1``, e.g. a low-power scalar DSP).
    bandwidth:
        ``Bi`` — peak bandwidth in and out of the IP to the on-chip
        interconnect, in bytes/s.  ``math.inf`` models an IP whose link
        can never bind.
    """

    name: str
    acceleration: float
    bandwidth: float

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("IPBlock name must be non-empty")
        require_finite_positive(self.acceleration, f"IP {self.name!r} acceleration")
        require_positive(self.bandwidth, f"IP {self.name!r} bandwidth")

    def peak_performance(self, soc_peak: float) -> float:
        """Absolute peak ops/s of this IP given the SoC's ``Ppeak``."""
        return self.acceleration * soc_peak


@dataclass(frozen=True)
class SoCSpec:
    """Hardware side of the Gables model: an N-IP SoC (paper Fig. 5).

    Parameters
    ----------
    peak_perf:
        ``Ppeak`` — peak performance of IP[0], in ops/s.
    memory_bandwidth:
        ``Bpeak`` — peak off-chip DRAM bandwidth, in bytes/s.
    ips:
        The IP blocks.  ``ips[0]`` is the reference processor and must
        have ``acceleration == 1``.  Names must be unique, and
        ``"memory"`` is reserved: results name the DRAM interface so.
    name:
        Optional label for reports.
    """

    peak_perf: float
    memory_bandwidth: float
    ips: tuple
    name: str = "soc"

    def __post_init__(self) -> None:
        require_finite_positive(self.peak_perf, "peak_perf (Ppeak)")
        require_finite_positive(self.memory_bandwidth, "memory_bandwidth (Bpeak)")
        if not isinstance(self.ips, tuple):
            object.__setattr__(self, "ips", tuple(self.ips))
        if not self.ips:
            raise SpecError("SoCSpec needs at least one IP block")
        for ip in self.ips:
            if not isinstance(ip, IPBlock):
                raise SpecError(f"ips must contain IPBlock, got {type(ip).__name__}")
        if self.ips[0].acceleration != 1.0:
            raise SpecError(
                "IP[0] defines Ppeak and must have acceleration A0 == 1, "
                f"got {self.ips[0].acceleration!r}"
            )
        names = [ip.name for ip in self.ips]
        if len(set(names)) != len(names):
            raise SpecError(f"IP names must be unique, got {names!r}")
        if MEMORY in names:
            # Results key component times by name, so an IP called
            # "memory" would be read as the DRAM interface.
            raise SpecError(
                f"IP name {MEMORY!r} is reserved for the DRAM interface"
            )

    @property
    def n_ips(self) -> int:
        """Number of IP blocks N."""
        return len(self.ips)

    @property
    def ip_names(self) -> tuple:
        """Names of the IPs, in index order."""
        return tuple(ip.name for ip in self.ips)

    def ip_index(self, name: str) -> int:
        """Index of the IP named ``name`` (raises :class:`SpecError`)."""
        for index, ip in enumerate(self.ips):
            if ip.name == name:
                return index
        raise SpecError(f"SoC {self.name!r} has no IP named {name!r}")

    def ip_peak(self, index: int) -> float:
        """Absolute peak performance ``Ai * Ppeak`` of IP ``index``."""
        return self.ips[index].peak_performance(self.peak_perf)

    def with_memory_bandwidth(self, bpeak: float) -> "SoCSpec":
        """A copy of this SoC with a different ``Bpeak`` (design what-if)."""
        return replace(self, memory_bandwidth=bpeak)

    def with_ip(self, index: int, **changes) -> "SoCSpec":
        """A copy of this SoC with ``ips[index]`` fields replaced."""
        if not 0 <= index < self.n_ips:
            raise SpecError(f"IP index {index} out of range for N={self.n_ips}")
        ips = list(self.ips)
        ips[index] = replace(ips[index], **changes)
        return replace(self, ips=tuple(ips))

    @classmethod
    def two_ip(
        cls,
        peak_perf: float,
        memory_bandwidth: float,
        acceleration: float,
        cpu_bandwidth: float,
        acc_bandwidth: float,
        cpu_name: str = "IP[0]",
        acc_name: str = "IP[1]",
        name: str = "two-ip-soc",
    ) -> "SoCSpec":
        """Build the paper's two-IP SoC (Section III-B) in one call."""
        return cls(
            peak_perf=peak_perf,
            memory_bandwidth=memory_bandwidth,
            ips=(
                IPBlock(cpu_name, 1.0, cpu_bandwidth),
                IPBlock(acc_name, acceleration, acc_bandwidth),
            ),
            name=name,
        )


@dataclass(frozen=True)
class Workload:
    """Software side of the Gables model: one usecase.

    A usecase divides one unit of work into concurrent non-negative
    fractions ``fi`` (summing to 1) executed at each IP with operational
    intensity ``Ii`` (ops per off-chip byte).  An intensity of
    ``math.inf`` models perfect reuse: the IP moves no off-chip data.

    Parameters
    ----------
    fractions:
        ``fi`` per IP; must be non-negative and sum to one.
    intensities:
        ``Ii`` per IP; must be positive (possibly ``inf``).  The value
        at an IP with ``fi == 0`` is ignored by the model.
    name:
        Optional label for reports.
    """

    fractions: tuple
    intensities: tuple
    name: str = "usecase"

    def __post_init__(self) -> None:
        fractions = as_float_tuple(self.fractions, "fractions", WorkloadError)
        intensities = as_float_tuple(self.intensities, "intensities", WorkloadError)
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "intensities", intensities)
        require_same_length(
            fractions, intensities, "fractions", "intensities", WorkloadError
        )
        if not fractions:
            raise WorkloadError("Workload needs at least one IP entry")
        require_fractions_sum_to_one(fractions, "fractions")
        for index, intensity in enumerate(intensities):
            # ``> 0.0`` is require_positive's rule on a float (false for
            # NaN, true for inf); the helper runs to raise its error.
            if not intensity > 0.0:
                require_positive(intensity, f"intensities[{index}]", WorkloadError)

    @property
    def n_ips(self) -> int:
        """Number of IP entries (must match the SoC evaluated against)."""
        return len(self.fractions)

    @property
    def active_ips(self) -> tuple:
        """Indices of IPs with non-zero work."""
        return tuple(i for i, f in enumerate(self.fractions) if f > 0)

    def average_intensity(self) -> float:
        """``Iavg`` — harmonic mean of intensities weighted by work.

        ``Iavg = 1 / sum(fi / Ii)``, the usecase's overall ops per
        off-chip byte.  Returns ``inf`` when no IP moves data.
        """
        demand = math.fsum(
            f / i for f, i in zip(self.fractions, self.intensities) if f > 0
        )
        if demand == 0:
            return math.inf
        return 1.0 / demand

    def with_fraction_at(self, index: int, fraction: float) -> "Workload":
        """Move work so IP ``index`` gets ``fraction`` of the total.

        The remaining ``1 - fraction`` is distributed among the other
        IPs proportionally to their current fractions (or entirely to
        IP[0] if all other fractions are zero).  This is the operation
        behind the paper's f-sweeps (Figs. 6 and 8).
        """
        if not 0 <= index < self.n_ips:
            raise WorkloadError(f"IP index {index} out of range for N={self.n_ips}")
        fraction = float(fraction)
        if not 0 <= fraction <= 1:
            raise WorkloadError(f"fraction must lie in [0, 1], got {fraction!r}")
        others = [f for i, f in enumerate(self.fractions) if i != index]
        other_total = math.fsum(others)
        new = []
        for i, f in enumerate(self.fractions):
            if i == index:
                new.append(fraction)
            elif other_total > 0:
                new.append((1.0 - fraction) * f / other_total)
            else:
                new.append(1.0 - fraction if i == 0 else 0.0)
        # Guard against the degenerate case where index == 0 absorbed all
        # work above but the sum drifted; renormalise exactly.
        total = math.fsum(new)
        if total > 0 and abs(total - 1.0) > 0:
            new = [f / total for f in new]
        return replace(self, fractions=tuple(new))

    @classmethod
    def two_ip(
        cls,
        f: float,
        i0: float,
        i1: float,
        name: str = "two-ip-usecase",
    ) -> "Workload":
        """The paper's two-IP usecase: ``(1-f)`` work at IP[0] with
        intensity ``I0`` and ``f`` work at IP[1] with intensity ``I1``.
        """
        f = float(f)
        if not 0 <= f <= 1:
            raise WorkloadError(f"f must lie in [0, 1], got {f!r}")
        return cls(fractions=(1.0 - f, f), intensities=(i0, i1), name=name)

    @classmethod
    def single_ip(cls, n_ips: int, index: int, intensity: float, **kwargs) -> "Workload":
        """All work on one IP; other intensities default to 1 (unused)."""
        if not 0 <= index < n_ips:
            raise WorkloadError(f"IP index {index} out of range for N={n_ips}")
        fractions = tuple(1.0 if i == index else 0.0 for i in range(n_ips))
        intensities = tuple(intensity if i == index else 1.0 for i in range(n_ips))
        return cls(fractions=fractions, intensities=intensities, **kwargs)
