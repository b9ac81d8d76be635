"""Gables model extensions (paper Section V).

Three published extensions plus one composition layer:

- :mod:`.memory_side` — a memory-side SRAM/scratchpad/cache that
  filters DRAM traffic with per-IP miss probabilities ``mi`` (Eq. 15);
- :mod:`.interconnect` — explicit bus/fabric topology with per-bus
  bandwidth bounds (Eqs. 16-17);
- :mod:`.serialized` — exclusive (one-IP-at-a-time) work, the
  MultiAmdahl-style regime with data movement added (Eqs. 18-19);
- :mod:`.phases` — usecases as sequences of concurrent phases, the
  "more complex combinations of parallel and serialized work" the
  paper sketches at the end of Section V-C;
- :mod:`.multipath` — multiple alternative bus paths per IP with
  LP-optimal traffic splitting, the "richer topologies" Section V-B
  defers;
- :mod:`.coordination` — host-routed IP dispatch overhead, the third
  usecase bottleneck of Section II-B, in the LogCA spirit the paper
  cites for future work.
"""

from ..lowering import COORDINATION
from .coordination import (
    CoordinationModel,
    coordination_break_even_items,
    lower_coordination,
    max_item_rate_with_coordination,
)
from .interconnect import Bus, InterconnectSpec, lower_interconnect
from .memory_side import MemorySideCache, lower_memory_side
from .multipath import (
    MultiPathInterconnect,
    lower_multipath,
    optimal_route_split,
)
from .phases import Phase, PhasedResult, PhasedUsecase, lower_phases
from .serialized import lower_serialized

__all__ = [
    "COORDINATION",
    "Bus",
    "CoordinationModel",
    "InterconnectSpec",
    "MemorySideCache",
    "MultiPathInterconnect",
    "Phase",
    "PhasedResult",
    "PhasedUsecase",
    "coordination_break_even_items",
    "max_item_rate_with_coordination",
    "lower_coordination",
    "lower_interconnect",
    "lower_memory_side",
    "lower_multipath",
    "lower_phases",
    "lower_serialized",
    "optimal_route_split",
]
