"""Tests for JSON serialization round-trips."""

from __future__ import annotations

import json
import math

import pytest

from repro.core import FIGURE_6B, SoCSpec, Workload, evaluate
from repro.errors import SerializationError
from repro.io import dumps, encode_result, load, loads, save


class TestRoundTrips:
    def test_soc_round_trip(self):
        soc = FIGURE_6B.soc()
        restored = loads(dumps(soc))
        assert restored == soc

    def test_workload_round_trip(self):
        workload = FIGURE_6B.workload()
        restored = loads(dumps(workload))
        assert restored == workload

    def test_infinite_intensity_round_trip(self):
        workload = Workload(fractions=(1.0,), intensities=(math.inf,))
        restored = loads(dumps(workload))
        assert math.isinf(restored.intensities[0])

    def test_infinite_bandwidth_round_trip(self):
        from repro.core import IPBlock

        soc = SoCSpec(1e9, 1e9, (IPBlock("wide", 1.0, math.inf),))
        restored = loads(dumps(soc))
        assert math.isinf(restored.ips[0].bandwidth)

    def test_file_round_trip(self, tmp_path):
        soc = FIGURE_6B.soc()
        path = tmp_path / "soc.json"
        save(soc, path)
        assert load(path) == soc

    def test_restored_soc_evaluates_identically(self):
        soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
        restored_soc = loads(dumps(soc))
        restored_wl = loads(dumps(workload))
        assert evaluate(restored_soc, restored_wl).attainable == \
            evaluate(soc, workload).attainable


class TestResultExport:
    def test_result_exports_key_fields(self):
        result = FIGURE_6B.evaluate()
        document = encode_result(result)
        assert document["kind"] == "result"
        assert document["bottleneck"] == "memory"
        assert document["attainable"] == result.attainable
        assert len(document["ip_terms"]) == 2

    def test_result_dumps_is_json(self):
        text = dumps(FIGURE_6B.evaluate())
        parsed = json.loads(text)
        assert parsed["kind"] == "result"

    def test_overflowed_attainable_dumps_as_inf_string(self):
        from repro.core import IPBlock

        # Every byte is reused, so each IP takes 0.5 / 1e308 s, whose
        # reciprocal overflows.
        soc = SoCSpec(1e308, 10e9, (IPBlock("a", 1.0, 10e9),
                                    IPBlock("b", 1.0, 10e9)))
        result = evaluate(soc, Workload((0.5, 0.5), (math.inf, math.inf)))
        assert math.isinf(result.attainable)
        parsed = json.loads(dumps(result))
        assert parsed["attainable"] == "inf"
        assert parsed["memory_time"] == 0.0


class TestDescriptionRoundTrip:
    def test_full_description_round_trips(self, tmp_path,
                                          generic_description):
        from repro.io import load_description, save_description

        path = tmp_path / "soc.json"
        save_description(generic_description, path)
        restored = load_description(path)
        assert restored == generic_description

    def test_restored_description_lowers_identically(self, tmp_path,
                                                     sd835_description):
        from repro.io import load_description, save_description

        path = tmp_path / "sd835.json"
        save_description(sd835_description, path)
        restored = load_description(path)
        assert restored.to_gables_spec() == sd835_description.to_gables_spec()
        original_ic = sd835_description.interconnect_spec()
        restored_ic = restored.interconnect_spec()
        assert restored_ic.usage == original_ic.usage

    def test_wrong_kind_rejected(self):
        from repro.io import decode_description

        with pytest.raises(SerializationError, match="soc-description"):
            decode_description({"kind": "soc", "schema": 1})

    def test_malformed_rejected(self):
        from repro.io import decode_description

        with pytest.raises(SerializationError):
            decode_description(
                {"kind": "soc-description", "schema": 1, "ips": [{}]}
            )

    def test_invalid_json_file_rejected(self, tmp_path):
        from repro.io import load_description

        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError, match="invalid JSON"):
            load_description(path)


class TestErrors:
    def test_results_are_not_loadable(self):
        text = dumps(FIGURE_6B.evaluate())
        with pytest.raises(SerializationError, match="non-loadable"):
            loads(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError, match="invalid JSON"):
            loads("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError):
            loads("[1, 2, 3]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            loads('{"kind": "mystery", "schema": 1}')

    def test_wrong_schema_rejected(self):
        document = json.loads(dumps(FIGURE_6B.soc()))
        document["schema"] = 99
        with pytest.raises(SerializationError, match="schema"):
            loads(json.dumps(document))

    def test_malformed_soc_rejected(self):
        with pytest.raises(SerializationError):
            loads('{"kind": "soc", "schema": 1, "peak_perf": 1e9}')

    def test_bad_number_rejected(self):
        document = json.loads(dumps(FIGURE_6B.workload()))
        document["intensities"][0] = "fast"
        with pytest.raises(SerializationError):
            loads(json.dumps(document))

    def test_unserializable_object_rejected(self):
        with pytest.raises(SerializationError):
            dumps({"plain": "dict"})

    def test_validation_still_applies_on_load(self):
        document = json.loads(dumps(FIGURE_6B.workload()))
        document["fractions"] = [0.9, 0.9]  # does not sum to 1
        with pytest.raises(Exception):
            loads(json.dumps(document))
