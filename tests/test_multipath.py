"""Tests for the multi-path interconnect extension."""

from __future__ import annotations

import pytest

from repro.core import (
    FIGURE_6B,
    InterconnectVariant,
    MultipathVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import (
    Bus,
    InterconnectSpec,
    MultiPathInterconnect,
    optimal_route_split,
)
from repro.errors import SpecError, WorkloadError
from repro.units import GIGA


@pytest.fixture()
def soc():
    return FIGURE_6B.soc()


@pytest.fixture()
def workload():
    return FIGURE_6B.workload()


class TestSingleRouteEquivalence:
    def test_reduces_to_use_matrix(self, soc, workload):
        """With one route per IP, the LP must reproduce Equation 16."""
        buses = (Bus("a", 20 * GIGA), Bus("b", 5 * GIGA))
        multi = MultiPathInterconnect(buses, routes=(((0,),), ((0, 1),)))
        single = InterconnectSpec(buses, usage=((0,), (0, 1)))
        r_multi = evaluate_variant(soc, workload, MultipathVariant(multi))
        r_single = evaluate_variant(soc, workload, InterconnectVariant(single))
        assert r_multi.attainable == pytest.approx(r_single.attainable)
        assert r_multi.bottleneck == r_single.bottleneck
        for name in ("a", "b"):
            assert r_multi.extra_times[name] == pytest.approx(
                r_single.extra_times[name]
            )

    def test_empty_route_is_direct_port(self, soc, workload):
        """An empty route models a dedicated memory port: no bus binds."""
        multi = MultiPathInterconnect(
            (Bus("slow", 0.1 * GIGA),), routes=(((),), ((),))
        )
        result = evaluate_variant(soc, workload, MultipathVariant(multi))
        assert result.attainable == pytest.approx(
            evaluate(soc, workload).attainable
        )
        assert result.extra_times["slow"] == 0.0


class TestLoadBalancing:
    def test_splits_across_equal_alternatives(self, soc, workload):
        """Two equal fabrics: the LP halves the traffic, doubling
        effective capacity — back to the base model's memory bound."""
        multi = MultiPathInterconnect(
            buses=(Bus("a", 20 * GIGA), Bus("b", 5 * GIGA),
                   Bus("c", 5 * GIGA)),
            routes=(((0,),), ((0, "b"), (0, "c"))),
        )
        splits, times = optimal_route_split(multi, [0.25 / 8, 0.75 / 0.1])
        assert splits[1][0] == pytest.approx(0.5, abs=1e-6)
        assert splits[1][1] == pytest.approx(0.5, abs=1e-6)
        assert times["b"] == pytest.approx(times["c"])
        result = evaluate_variant(soc, workload, MultipathVariant(multi))
        # Fabric relieved: memory binds again at the Fig. 6b value.
        assert result.bottleneck == "memory"
        assert result.attainable == pytest.approx(1.3278 * GIGA, rel=1e-3)

    def test_prefers_wider_alternative(self):
        multi = MultiPathInterconnect(
            buses=(Bus("narrow", 1 * GIGA), Bus("wide", 10 * GIGA)),
            routes=((("narrow",), ("wide",)),),
        )
        splits, times = optimal_route_split(multi, [10.0])
        # Optimal min-max load: shares proportional to bandwidth.
        assert splits[0][1] == pytest.approx(10 / 11, rel=1e-3)
        assert times["narrow"] == pytest.approx(times["wide"], rel=1e-3)

    def test_split_shares_sum_to_one(self):
        multi = MultiPathInterconnect(
            buses=(Bus("a", 1e9), Bus("b", 3e9), Bus("c", 2e9)),
            routes=((("a",), ("b",), ("c",)), (("b",),)),
        )
        splits, _ = optimal_route_split(multi, [5.0, 2.0])
        for shares in splits:
            assert sum(shares) == pytest.approx(1.0)
            assert all(share >= -1e-9 for share in shares)

    def test_multipath_never_worse_than_any_single_route(self, soc,
                                                         workload):
        """Optimal splitting dominates every fixed single-route choice."""
        buses = (Bus("x", 3 * GIGA), Bus("y", 4 * GIGA))
        multi = MultiPathInterconnect(
            buses, routes=(((),), (("x",), ("y",)))
        )
        best = evaluate_variant(
            soc, workload, MultipathVariant(multi)
        ).attainable
        for forced in ("x", "y"):
            single = InterconnectSpec(buses, usage=((), (forced,)))
            fixed = evaluate_variant(
                soc, workload, InterconnectVariant(single)
            ).attainable
            assert best >= fixed * (1 - 1e-9)


class TestSplitMemo:
    def test_memoized_splits_cannot_outlive_their_bandwidths(self):
        """The split memo keys on traffic ratios only, so the buses and
        routes it was solved for cannot change under it: a wider bus
        is a new ``Bus`` in a new interconnect, solved afresh."""
        soc = SoCSpec.two_ip(40e9, 10e9, acceleration=5,
                             cpu_bandwidth=6e9, acc_bandwidth=15e9)
        workload = Workload.two_ip(f=0.75, i0=0.5, i1=0.1)
        routes = (((0,), (1,)),) * 2
        buses = (Bus("fabric0", 2e9), Bus("fabric1", 2e9))
        multi = MultiPathInterconnect(buses, routes)
        narrow = evaluate_variant(soc, workload, MultipathVariant(multi))
        assert narrow.bottleneck == "fabric0"
        assert narrow.attainable == pytest.approx(5.0e8)
        with pytest.raises(AttributeError):
            buses[1].bandwidth = 20e9
        with pytest.raises(AttributeError):
            multi.buses = (buses[0], Bus("fabric1", 20e9))
        with pytest.raises(AttributeError):
            multi.routes = (((0,),),) * 2
        assert evaluate_variant(
            soc, workload, MultipathVariant(multi)
        ).attainable == narrow.attainable
        wide = MultiPathInterconnect(
            (Bus("fabric0", 2e9), Bus("fabric1", 20e9)), routes
        )
        relieved = evaluate_variant(soc, workload, MultipathVariant(wide))
        assert relieved.bottleneck == "memory"
        assert relieved.attainable == pytest.approx(1.25e9)

    def test_bus_validates_and_keeps_its_repr(self):
        assert repr(Bus("noc", 20)) == "Bus('noc', bandwidth=20.0)"
        with pytest.raises(SpecError):
            Bus("", 1e9)
        with pytest.raises(SpecError):
            Bus("noc", 0.0)


class TestValidation:
    def test_unknown_bus_rejected(self):
        with pytest.raises(SpecError):
            MultiPathInterconnect((Bus("a", 1e9),), routes=((("ghost",),),))

    def test_empty_alternatives_rejected(self):
        with pytest.raises(SpecError):
            MultiPathInterconnect((Bus("a", 1e9),), routes=((),))

    def test_ip_count_mismatch_rejected(self, soc, workload):
        multi = MultiPathInterconnect((Bus("a", 1e9),), routes=(((0,),),))
        with pytest.raises(WorkloadError):
            evaluate_variant(soc, workload, MultipathVariant(multi))

    def test_name_collision_rejected(self, soc, workload):
        multi = MultiPathInterconnect(
            (Bus("CPU", 1e9),), routes=(((0,),), ((0,),))
        )
        with pytest.raises(SpecError, match="collide"):
            evaluate_variant(soc, workload, MultipathVariant(multi))

    def test_duplicate_bus_names_rejected(self):
        with pytest.raises(SpecError):
            MultiPathInterconnect(
                (Bus("a", 1e9), Bus("a", 2e9)), routes=(((0,),),)
            )
