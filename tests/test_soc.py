"""Unit tests for the SoC description substrate and presets."""

from __future__ import annotations

import pytest

from repro.soc import (
    ALL_KINDS,
    PRESETS,
    FabricTier,
    IPInstance,
    SoCDescription,
    catalog,
    is_programmable,
    kind_info,
    snapdragon_821,
    snapdragon_835,
)
from repro.errors import SpecError
from repro.units import GIGA


class TestCatalog:
    def test_all_kinds_have_info(self):
        for kind in ALL_KINDS:
            info = kind_info(kind)
            assert info.kind == kind
            assert info.description

    def test_programmable_engines(self):
        assert is_programmable(catalog.AP)
        assert is_programmable(catalog.GPU)
        assert is_programmable(catalog.DSP)
        assert is_programmable(catalog.IPU)
        assert not is_programmable(catalog.VDEC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            kind_info("FPGA")


class TestSoCDescription:
    @pytest.fixture()
    def minimal(self):
        return SoCDescription(
            name="mini",
            memory_bandwidth=10 * GIGA,
            fabrics=(FabricTier("bus", 20 * GIGA),),
            ips=(
                IPInstance("cpu", catalog.AP, 10 * GIGA, 5 * GIGA,
                           fabric="bus"),
                IPInstance("gpu", catalog.GPU, 50 * GIGA, 8 * GIGA,
                           fabric="bus"),
            ),
        )

    def test_lowering_to_gables(self, minimal):
        spec = minimal.to_gables_spec()
        assert spec.peak_perf == 10 * GIGA
        assert spec.ips[1].acceleration == pytest.approx(5.0)
        assert spec.ips[1].bandwidth == 8 * GIGA
        assert spec.memory_bandwidth == 10 * GIGA

    def test_interconnect_lowering(self, minimal):
        spec = minimal.interconnect_spec()
        assert [bus.name for bus in spec.buses] == ["bus"]
        assert spec.usage == ((0,), (0,))

    def test_ip_lookup(self, minimal):
        assert minimal.ip("gpu").kind == catalog.GPU
        with pytest.raises(SpecError):
            minimal.ip("npu")

    def test_ips_of_kind(self, minimal):
        assert [ip.name for ip in minimal.ips_of_kind(catalog.AP)] == ["cpu"]

    def test_total_ip_peak(self, minimal):
        assert minimal.total_ip_peak() == 60 * GIGA

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError):
            SoCDescription(
                name="dup", memory_bandwidth=1e9,
                ips=(
                    IPInstance("x", catalog.AP, 1e9, 1e9),
                    IPInstance("x", catalog.GPU, 1e9, 1e9),
                ),
            )

    def test_unknown_fabric_rejected(self):
        with pytest.raises(SpecError):
            SoCDescription(
                name="bad", memory_bandwidth=1e9,
                ips=(IPInstance("x", catalog.AP, 1e9, 1e9,
                                fabric="missing"),),
            )

    def test_fabric_cycle_rejected(self):
        with pytest.raises(SpecError, match="cycle"):
            SoCDescription(
                name="cyclic", memory_bandwidth=1e9,
                fabrics=(
                    FabricTier("a", 1e9, parent="b"),
                    FabricTier("b", 1e9, parent="a"),
                ),
                ips=(IPInstance("x", catalog.AP, 1e9, 1e9, fabric="a"),),
            )

    def test_reserved_memory_name_rejected(self):
        with pytest.raises(SpecError, match="reserved"):
            SoCDescription(
                name="bad", memory_bandwidth=1e9,
                ips=(IPInstance("memory", catalog.AP, 1e9, 1e9),),
            )

    def test_no_fabrics_means_no_interconnect_spec(self):
        flat = SoCDescription(
            name="flat", memory_bandwidth=1e9,
            ips=(IPInstance("cpu", catalog.AP, 1e9, 1e9),),
        )
        with pytest.raises(SpecError):
            flat.interconnect_spec()

    def test_fabric_graph_edges_point_to_memory(self, minimal):
        graph = minimal.fabric_graph()
        assert graph.has_edge("bus", "memory")
        assert graph.has_edge("cpu", "bus")


class TestPresets:
    def test_sd835_matches_paper_numbers(self):
        soc = snapdragon_835()
        cpu = soc.ip("CPU")
        gpu = soc.ip("GPU")
        dsp = soc.ip("DSP")
        assert cpu.peak_perf == 7.5 * GIGA
        assert cpu.bandwidth == pytest.approx(15.1 * GIGA)
        assert gpu.peak_perf == pytest.approx(349.6 * GIGA)
        assert gpu.bandwidth == pytest.approx(24.4 * GIGA)
        assert dsp.peak_perf == 3.0 * GIGA
        assert dsp.bandwidth == pytest.approx(5.4 * GIGA)
        assert soc.memory_bandwidth == 30 * GIGA

    def test_sd835_gpu_acceleration_is_47x(self):
        spec = snapdragon_835().to_gables_spec()
        assert spec.ips[1].acceleration == pytest.approx(46.6, rel=1e-2)

    def test_sd821_older_and_slower(self):
        new = snapdragon_835()
        old = snapdragon_821()
        assert old.ip("CPU").peak_perf < new.ip("CPU").peak_perf
        assert old.ip("GPU").peak_perf < new.ip("GPU").peak_perf

    def test_generic_soc_is_figure_3(self, generic_description):
        names = set(generic_description.ip_names)
        # The block diagram's engines are all present.
        for expected in ("AP", "GPU", "DSP", "ISP", "VDEC", "VENC",
                         "Display", "Modem", "USB"):
            assert expected in names
        fabric_names = {f.name for f in generic_description.fabrics}
        assert fabric_names == {
            "high-bandwidth", "multimedia", "system", "peripheral"
        }

    def test_generic_soc_ap_area_story(self, generic_description):
        """The AP complex is a minority of total compute (paper: 15-30%
        of area goes to the AP; everything else is accelerators)."""
        ap = generic_description.ip("AP").peak_perf
        total = generic_description.total_ip_peak()
        assert ap / total < 0.3

    def test_presets_registry(self):
        assert set(PRESETS) == {"snapdragon-835", "snapdragon-821", "generic"}
        for factory in PRESETS.values():
            description = factory()
            spec = description.to_gables_spec()
            assert spec.n_ips >= 3

    def test_all_presets_lower_to_valid_interconnect(self):
        for factoryory in PRESETS.values():
            description = factoryory()
            spec = description.interconnect_spec()
            assert spec.n_ips == description.n_ips
