"""Multi-path interconnect: the richer topologies Section V-B defers.

The paper's interconnect extension assumes "each IP[i] has one bus
path to/from memory" and notes that "further extensions to richer
topologies (e.g., multiple alternative bus paths) ... are
straightforward at the cost of more assumptions".  This module writes
that extension down: an IP may have *several* alternative routes to
memory, each route a set of buses, and its traffic may split across
routes.  The natural question becomes an optimization:

    choose per-IP route splits x[i][r] >= 0, sum_r x[i][r] = 1
    minimizing the worst bus time
        T_bus[j] = sum_{i,r: j in route} x[i][r] * Di / B_bus[j]

which is a linear program (min t s.t. per-bus load <= t); we solve it
with ``scipy.optimize.linprog``.  Single-route IPs reduce exactly to
the paper's Use(i, j) formulation, which the tests verify.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from ...errors import EvaluationError, SpecError, WorkloadError
from ..lowering import LoweredModel, LoweredPhase, RouteSolver
from ..params import SoCSpec
from .interconnect import Bus

#: Bound on per-instance memoized route splits (see
#: :func:`optimal_route_split`); old entries are evicted FIFO.
_SPLIT_CACHE_LIMIT = 256


class MultiPathInterconnect:
    """Buses plus per-IP *alternative* routes.

    Parameters
    ----------
    buses:
        The fabrics, as in :class:`~.interconnect.InterconnectSpec`.
    routes:
        ``routes[i]`` is a non-empty sequence of alternatives for
        IP[i]; each alternative is a set/sequence of bus indices or
        names (possibly empty: a direct memory port).
    """

    def __init__(self, buses, routes) -> None:
        self.buses = tuple(buses)
        if not self.buses:
            raise SpecError("MultiPathInterconnect needs at least one bus")
        for bus in self.buses:
            if not isinstance(bus, Bus):
                raise SpecError(f"buses must contain Bus, got {type(bus).__name__}")
        names = [bus.name for bus in self.buses]
        if len(set(names)) != len(names):
            raise SpecError(f"bus names must be unique, got {names!r}")
        self._name_to_index = {bus.name: j for j, bus in enumerate(self.buses)}

        resolved = []
        for i, alternatives in enumerate(routes):
            alternatives = tuple(alternatives)
            if not alternatives:
                raise SpecError(f"routes[{i}] must offer at least one route")
            resolved.append(
                tuple(self._resolve(route, i) for route in alternatives)
            )
        self.routes = tuple(resolved)
        # Memoized LP solutions keyed by traffic *ratios*: the optimal
        # splits are scale-invariant in the byte volumes, so a sweep
        # that only rescales traffic re-solves nothing.  The key holds
        # no bandwidth or route: ``buses`` and ``routes`` cannot be
        # rebound (below) and ``Bus`` is frozen.
        self._split_cache: dict = {}

    def __setattr__(self, name: str, value) -> None:
        # A guard on writes, not a property: the LP and the per-point
        # bus times read ``buses`` and ``routes`` in their inner loops
        # (``hasattr``, not ``self.__dict__``, which would slow them).
        if name in ("buses", "routes") and hasattr(self, name):
            raise AttributeError(
                f"MultiPathInterconnect.{name} cannot be rebound: the "
                f"memoized route splits were solved for it"
            )
        super().__setattr__(name, value)

    def _resolve(self, route, ip_index: int) -> tuple:
        indices = []
        for entry in route:
            if isinstance(entry, str):
                if entry not in self._name_to_index:
                    raise SpecError(
                        f"routes[{ip_index}] names unknown bus {entry!r}"
                    )
                indices.append(self._name_to_index[entry])
            else:
                j = int(entry)
                if not 0 <= j < len(self.buses):
                    raise SpecError(
                        f"routes[{ip_index}] bus index {j} out of range"
                    )
                indices.append(j)
        return tuple(sorted(set(indices)))

    @property
    def n_buses(self) -> int:
        """Number of fabrics Q."""
        return len(self.buses)

    @property
    def n_ips(self) -> int:
        """Number of IPs routed."""
        return len(self.routes)


def optimal_route_split(
    interconnect: MultiPathInterconnect, data_bytes
) -> tuple:
    """Traffic splits minimizing the worst per-bus time.

    The LP is scale-invariant in the traffic vector, so solutions are
    memoized per interconnect instance keyed on the traffic *ratios*
    ``Di / max(D)``: a bandwidth or fraction sweep that rescales all
    traffic uniformly solves the LP once and reuses the splits (the
    per-bus times are always recomputed from the actual volumes).

    Parameters
    ----------
    interconnect:
        The topology.
    data_bytes:
        Per-IP bytes to move (the Gables ``Di`` values).

    Returns
    -------
    (splits, bus_times):
        ``splits[i][r]`` is IP[i]'s share on its route ``r``;
        ``bus_times`` maps bus name to its loaded time.
    """
    data_bytes = [float(d) for d in data_bytes]
    if len(data_bytes) != interconnect.n_ips:
        raise WorkloadError(
            f"got {len(data_bytes)} data volumes for "
            f"{interconnect.n_ips} routed IPs"
        )
    key = _cache_key(data_bytes)
    cache = interconnect._split_cache
    if key is not None and key in cache:
        splits = cache[key]
    else:
        splits = _solve_route_split(interconnect, data_bytes)
        if key is not None:
            if len(cache) >= _SPLIT_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[key] = splits
    return splits, _bus_times_for_splits(interconnect, splits, data_bytes)


def _cache_key(data_bytes) -> tuple | None:
    """Scale-invariant memoization key, or ``None`` (don't cache)."""
    if not all(math.isfinite(d) for d in data_bytes):
        return None
    peak = max(data_bytes, default=0.0)
    if peak <= 0:
        return ("all-zero",)
    return tuple(d / peak for d in data_bytes)


def _solve_route_split(
    interconnect: MultiPathInterconnect, data_bytes
) -> tuple:
    """Solve the min-max-bus-time LP; returns only the splits."""
    # Decision variables: one split per (ip, route) pair, plus t.
    pairs = [
        (i, r)
        for i in range(interconnect.n_ips)
        for r in range(len(interconnect.routes[i]))
    ]
    n_vars = len(pairs) + 1
    t_index = len(pairs)

    # Objective: minimize t.
    c = np.zeros(n_vars)
    c[t_index] = 1.0

    # Seconds-scale coefficients can sit below the solver's feasibility
    # tolerances (nanosecond bus times on gigabyte links); normalize
    # rows to O(1) and scale t back afterwards.
    scale_candidates = [
        data_bytes[i] / bus.bandwidth
        for j, bus in enumerate(interconnect.buses)
        for i in range(interconnect.n_ips)
        if any(j in route for route in interconnect.routes[i])
        and data_bytes[i] > 0 and math.isfinite(bus.bandwidth)
    ]
    time_scale = max(scale_candidates) if scale_candidates else 1.0
    if time_scale <= 0:
        time_scale = 1.0

    # Per-bus load <= t  ->  sum(load) - t <= 0.
    a_ub = []
    b_ub = []
    for j, bus in enumerate(interconnect.buses):
        row = np.zeros(n_vars)
        for k, (i, r) in enumerate(pairs):
            if j in interconnect.routes[i][r]:
                row[k] = data_bytes[i] / bus.bandwidth / time_scale
        row[t_index] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)

    # Per-IP splits sum to 1.
    a_eq = []
    b_eq = []
    for i in range(interconnect.n_ips):
        row = np.zeros(n_vars)
        for k, (ip, _) in enumerate(pairs):
            if ip == i:
                row[k] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)

    bounds = [(0.0, 1.0)] * len(pairs) + [(0.0, None)]
    result = optimize.linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=np.array(a_eq), b_eq=np.array(b_eq),
        bounds=bounds, method="highs",
    )
    if not result.success:
        raise EvaluationError(f"route-split LP failed: {result.message}")

    splits = []
    for i in range(interconnect.n_ips):
        shares = tuple(
            float(result.x[k]) for k, (ip, _) in enumerate(pairs) if ip == i
        )
        splits.append(shares)
    return tuple(splits)


def _bus_times_for_splits(
    interconnect: MultiPathInterconnect, splits, data_bytes
) -> dict:
    """Loaded per-bus times for given splits, in legacy pair order."""
    bus_times = {}
    for j, bus in enumerate(interconnect.buses):
        load = math.fsum(
            splits[i][r] * data_bytes[i] / bus.bandwidth
            for i in range(interconnect.n_ips)
            for r in range(len(interconnect.routes[i]))
            if j in interconnect.routes[i][r]
        )
        bus_times[bus.name] = load
    return bus_times


def lower_multipath(
    soc: SoCSpec, interconnect: MultiPathInterconnect
) -> LoweredModel:
    """Lower multi-path routing onto the shared engine.

    The LP becomes a :class:`~repro.core.lowering.RouteSolver`: the
    engine hands it each evaluation point's per-IP byte volumes and
    receives the optimally-loaded per-bus times (Equation 17 with the
    LP in place of the fixed Use matrix), memoized across points with
    identical traffic ratios.
    """
    if interconnect.n_ips != soc.n_ips:
        raise WorkloadError(
            f"interconnect routes {interconnect.n_ips} IPs but SoC has "
            f"{soc.n_ips}"
        )

    def solve(data_bytes) -> dict:
        return optimal_route_split(interconnect, data_bytes)[1]

    solver = RouteSolver(
        bus_names=tuple(bus.name for bus in interconnect.buses),
        solve=solve,
    )
    return LoweredModel(
        kind="multipath", phases=(LoweredPhase(route_solver=solver),)
    )
