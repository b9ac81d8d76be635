"""On-chip interconnect extension (paper Section V-B, Figure 11).

Base Gables abstracts the interconnect away, assuming it never binds.
This extension models it as ``Q`` buses (fabrics), each contributing a
slanted-only roofline: bus ``j`` has bandwidth ``B_bus[j]`` and carries
the traffic of every IP routed over it.  With ``Use(i, j) = 1`` when
IP[i]'s one path to memory crosses Bus[j]:

    T_bus[j] = sum_i(Di * Use(i, j)) / B_bus[j]        (Equation 16)

and the attainable performance adds one max() term per bus:

    P_attainable = 1 / max(T_memory, T_IP[0..N-1], T_bus[0..Q-1])
                                                        (Equation 17)

The :class:`InterconnectSpec` can be written down directly as a usage
matrix or derived from a fabric-hierarchy graph (each IP attached to
one fabric, fabrics chained toward the memory controller), matching the
clustered topologies of real SoCs (paper Figure 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from ..._validation import require_positive
from ...errors import SpecError, WorkloadError
from ..gables import ip_terms
from ..lowering import BusConstraint, LoweredModel, LoweredPhase
from ..params import SoCSpec, Workload
from ..result import MEMORY


@dataclass(frozen=True)
class Bus:
    """One interconnection network (fabric) with a bandwidth bound.

    Frozen: the multi-path route-split memo
    (:mod:`~repro.core.extensions.multipath`) is solved for these
    bandwidths, so a different bandwidth is a different ``Bus``.
    """

    name: str
    bandwidth: float

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("Bus name must be non-empty")
        object.__setattr__(self, "bandwidth", require_positive(
            self.bandwidth, f"bus {self.name!r} bandwidth"
        ))

    def __repr__(self) -> str:
        return f"Bus({self.name!r}, bandwidth={self.bandwidth!r})"


class InterconnectSpec:
    """Q buses plus the IP -> bus usage matrix ``Use(i, j)``.

    Parameters
    ----------
    buses:
        The fabrics, in index order ``j = 0 .. Q-1``.
    usage:
        ``usage[i]`` is the set/sequence of bus indices (or bus names)
        IP[i]'s memory path crosses.  Every IP must be routable (an
        empty set means the IP bypasses all modeled buses, which is
        allowed — e.g. a CPU port directly on the memory controller).
    """

    def __init__(self, buses, usage) -> None:
        self.buses = tuple(buses)
        if not self.buses:
            raise SpecError("InterconnectSpec needs at least one bus")
        for bus in self.buses:
            if not isinstance(bus, Bus):
                raise SpecError(f"buses must contain Bus, got {type(bus).__name__}")
        names = [bus.name for bus in self.buses]
        if len(set(names)) != len(names):
            raise SpecError(f"bus names must be unique, got {names!r}")
        self._name_to_index = {bus.name: j for j, bus in enumerate(self.buses)}
        self.usage = tuple(self._resolve_row(row, i) for i, row in enumerate(usage))

    def _resolve_row(self, row, ip_index: int):
        resolved = []
        for entry in row:
            if isinstance(entry, str):
                if entry not in self._name_to_index:
                    raise SpecError(
                        f"usage[{ip_index}] names unknown bus {entry!r}"
                    )
                resolved.append(self._name_to_index[entry])
            else:
                j = int(entry)
                if not 0 <= j < len(self.buses):
                    raise SpecError(
                        f"usage[{ip_index}] bus index {j} out of range "
                        f"for Q={len(self.buses)}"
                    )
                resolved.append(j)
        return tuple(sorted(set(resolved)))

    @property
    def n_buses(self) -> int:
        """Q, the number of modeled fabrics."""
        return len(self.buses)

    @property
    def n_ips(self) -> int:
        """Number of IPs the usage matrix covers."""
        return len(self.usage)

    def uses(self, ip_index: int, bus_index: int) -> bool:
        """``Use(i, j)`` from the paper."""
        return bus_index in self.usage[ip_index]

    @classmethod
    def from_fabric_graph(
        cls, graph: nx.DiGraph, ip_names, memory_node: str = "memory"
    ) -> "InterconnectSpec":
        """Derive buses and usage from a fabric-hierarchy graph.

        ``graph`` nodes are IP names, fabric names, and ``memory_node``;
        edges point toward memory.  Fabric nodes must carry a
        ``bandwidth`` attribute (bytes/s).  Each IP must have exactly
        one simple path to ``memory_node`` (the paper's "one bus path
        to/from memory" assumption); every fabric node on that path is
        marked used by the IP.
        """
        if memory_node not in graph:
            raise SpecError(f"graph has no memory node {memory_node!r}")
        fabric_nodes = [
            node
            for node, data in graph.nodes(data=True)
            if "bandwidth" in data and node != memory_node
        ]
        buses = [Bus(node, graph.nodes[node]["bandwidth"]) for node in fabric_nodes]
        index_of = {node: j for j, node in enumerate(fabric_nodes)}
        usage = []
        for ip_name in ip_names:
            if ip_name not in graph:
                raise SpecError(f"graph has no node for IP {ip_name!r}")
            paths = list(nx.all_simple_paths(graph, ip_name, memory_node))
            if len(paths) != 1:
                raise SpecError(
                    f"IP {ip_name!r} must have exactly one path to memory, "
                    f"found {len(paths)}"
                )
            usage.append(
                tuple(index_of[node] for node in paths[0] if node in index_of)
            )
        return cls(buses, usage)


def bus_times(soc: SoCSpec, workload: Workload, interconnect: InterconnectSpec) -> dict:
    """Per-bus times ``T_bus[j]`` (Equation 16), keyed by bus name."""
    if interconnect.n_ips != soc.n_ips:
        raise WorkloadError(
            f"interconnect usage covers {interconnect.n_ips} IPs "
            f"but SoC has {soc.n_ips}"
        )
    terms = ip_terms(soc, workload)
    times = {}
    for j, bus in enumerate(interconnect.buses):
        carried = math.fsum(
            term.data_bytes for term in terms if interconnect.uses(term.index, j)
        )
        times[bus.name] = carried / bus.bandwidth
    return times


def lower_interconnect(
    soc: SoCSpec, interconnect: InterconnectSpec
) -> LoweredModel:
    """Lower Equation 17 onto the shared engine.

    Each bus becomes a fixed :class:`~repro.core.lowering.BusConstraint`
    whose traffic weights encode the ``Use(i, j)`` matrix; the lowering
    is workload-independent, so one lowering serves a whole sweep.
    """
    if interconnect.n_ips != soc.n_ips:
        raise WorkloadError(
            f"interconnect usage covers {interconnect.n_ips} IPs "
            f"but SoC has {soc.n_ips}"
        )
    overlap = (set(soc.ip_names) | {MEMORY}) & {
        bus.name for bus in interconnect.buses
    }
    if overlap:
        raise SpecError(
            f"bus names collide with IP/memory names: {sorted(overlap)!r}"
        )
    buses = tuple(
        BusConstraint(
            name=bus.name,
            bandwidth=bus.bandwidth,
            traffic_weights=tuple(
                1.0 if interconnect.uses(i, j) else 0.0
                for i in range(interconnect.n_ips)
            ),
        )
        for j, bus in enumerate(interconnect.buses)
    )
    return LoweredModel(
        kind="interconnect", phases=(LoweredPhase(buses=buses),)
    )
