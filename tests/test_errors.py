"""Tests for the exception hierarchy and error ergonomics."""

from __future__ import annotations

import re

import pytest

from repro.errors import (
    FINE_GRAINED_CODES,
    EvaluationError,
    FittingError,
    MeasurementError,
    ReproError,
    SerializationError,
    ServeError,
    SimulationError,
    SpecError,
    WorkloadError,
    error_classes,
    exit_code_for,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        SpecError, WorkloadError, EvaluationError, SimulationError,
        FittingError, SerializationError,
    ])
    def test_everything_derives_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_config_errors_are_value_errors(self):
        """Spec/workload/serialization problems are bad *values*, so
        generic ValueError handlers also catch them."""
        for exc in (SpecError, WorkloadError, SerializationError):
            assert issubclass(exc, ValueError)

    def test_runtime_errors_are_runtime_errors(self):
        for exc in (EvaluationError, SimulationError, FittingError,
                    MeasurementError, ServeError):
            assert issubclass(exc, RuntimeError)

    def test_one_except_clause_catches_the_library(self):
        from repro.core import SoCSpec

        with pytest.raises(ReproError):
            SoCSpec(peak_perf=-1, memory_bandwidth=1, ips=())


class TestMessagesNameTheField:
    """A mis-specified model must say *which* input is wrong."""

    def test_soc_field_named(self):
        from repro.core import IPBlock

        with pytest.raises(SpecError, match="acceleration"):
            IPBlock("GPU", acceleration=-5, bandwidth=1e9)

    def test_workload_index_named(self):
        from repro.core import Workload

        with pytest.raises(WorkloadError, match=r"intensities\[1\]"):
            Workload(fractions=(0.5, 0.5), intensities=(1.0, -2.0))

    def test_cli_surfaces_errors_cleanly(self, capsys):
        """Library errors reach the CLI user as one line, not a
        traceback."""
        from repro.cli import main

        code = main(["eval", "--figure", "9z"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestErrorCatalog:
    """The machine-readable code/exit-code contract stays coherent.

    ``error_classes()`` walks ``__subclasses__`` at call time, so a
    future subclass added without a code or with a colliding exit code
    fails here instead of silently aliasing an existing one.
    """

    def test_every_class_has_an_upper_snake_code(self):
        for cls in error_classes():
            assert re.fullmatch(r"[A-Z][A-Z0-9_]*", cls.code), cls

    def test_class_codes_are_unique(self):
        codes = [cls.code for cls in error_classes()]
        assert len(codes) == len(set(codes))

    def test_exit_codes_are_distinct_and_leave_unix_space(self):
        """One exit status per class, none colliding with 0/1 (success
        and the interpreter's own failure status)."""
        exit_codes = [cls.exit_code for cls in error_classes()]
        assert len(exit_codes) == len(set(exit_codes))
        assert all(2 <= value < 126 for value in exit_codes)

    def test_fine_grained_codes_map_to_repro_classes(self):
        for code, cls in FINE_GRAINED_CODES.items():
            assert re.fullmatch(r"[A-Z][A-Z0-9_]*", code)
            assert issubclass(cls, ReproError)

    def test_fine_grained_codes_do_not_shadow_class_defaults(self):
        defaults = {cls.code for cls in error_classes()}
        assert not defaults & set(FINE_GRAINED_CODES)

    def test_instance_code_override(self):
        err = SerializationError("bad field", code="SERIALIZATION_NONFINITE")
        assert err.code == "SERIALIZATION_NONFINITE"
        assert SerializationError.code == "SERIALIZATION_FAILED"
        assert err.exit_code == SerializationError.exit_code

    def test_exit_code_for_falls_back_to_two(self):
        assert exit_code_for(ReproError("x")) == 2
        assert exit_code_for(ValueError("not ours")) == 2
        assert exit_code_for(SerializationError("x")) == 8
        assert exit_code_for(MeasurementError("x")) == 10


class TestHttpStatusMapping:
    """Every catalogued code must map onto exactly one HTTP status.

    The service promises a structured JSON error with a meaningful
    status for *any* library failure; a new error class or
    fine-grained code that forgets its HTTP mapping would silently
    fall back to 500 and break that promise.
    """

    def test_every_class_code_has_a_status(self):
        from repro.serve import HTTP_STATUS_BY_CODE

        for cls in error_classes():
            assert cls.code in HTTP_STATUS_BY_CODE, cls

    def test_every_fine_grained_code_has_a_status(self):
        from repro.serve import HTTP_STATUS_BY_CODE

        for code in FINE_GRAINED_CODES:
            assert code in HTTP_STATUS_BY_CODE, code

    def test_statuses_are_plausible_http(self):
        from repro.serve import HTTP_STATUS_BY_CODE

        for code, status in HTTP_STATUS_BY_CODE.items():
            assert 400 <= status <= 599, (code, status)

    def test_mapping_has_no_orphan_codes(self):
        """The mapping names only codes the catalog defines, so a
        renamed code cannot leave a stale mapping entry behind."""
        from repro.serve import HTTP_STATUS_BY_CODE

        known = {cls.code for cls in error_classes()}
        known |= set(FINE_GRAINED_CODES)
        assert set(HTTP_STATUS_BY_CODE) <= known

    def test_http_status_for_prefers_instance_code(self):
        from repro.serve import http_status_for

        assert http_status_for(ServeError("x")) == 500
        assert http_status_for(
            ServeError("x", code="SERVE_OVERLOADED")
        ) == 429
        assert http_status_for(ValueError("not ours")) == 500


#: The full machine-readable error contract, frozen.  A rename, a
#: removed code, or a changed exit code / HTTP status is a *breaking*
#: change for scripts and service clients — updating this table is the
#: deliberate act that acknowledges one.
FROZEN_CLASS_CATALOG = (
    ("REPRO_ERROR", "ReproError", 2, 500),
    ("SPEC_INVALID", "SpecError", 3, 400),
    ("WORKLOAD_INVALID", "WorkloadError", 4, 400),
    ("EVALUATION_FAILED", "EvaluationError", 5, 422),
    ("SIMULATION_FAILED", "SimulationError", 6, 500),
    ("FITTING_FAILED", "FittingError", 7, 500),
    ("SERIALIZATION_FAILED", "SerializationError", 8, 400),
    ("OBSERVABILITY_FAILED", "ObservabilityError", 9, 500),
    ("MEASUREMENT_FAILED", "MeasurementError", 10, 500),
    ("SERVE_FAILED", "ServeError", 11, 500),
)

FROZEN_FINE_GRAINED_CATALOG = (
    ("EVAL_DEGENERATE_POINT", "EvaluationError", 422),
    ("MEASUREMENT_DROPOUT", "MeasurementError", 500),
    ("MEASUREMENT_RETRIES_EXHAUSTED", "MeasurementError", 500),
    ("OBS_EXPOSITION_MALFORMED", "ObservabilityError", 500),
    ("SERIALIZATION_NONFINITE", "SerializationError", 400),
    ("SERVE_BAD_REQUEST", "ServeError", 400),
    ("SERVE_DEADLINE_EXCEEDED", "ServeError", 504),
    ("SERVE_METHOD_NOT_ALLOWED", "ServeError", 405),
    ("SERVE_OVERLOADED", "ServeError", 429),
    ("SERVE_PAYLOAD_TOO_LARGE", "ServeError", 413),
    ("SERVE_SHUTTING_DOWN", "ServeError", 503),
    ("SERVE_UNKNOWN_ENDPOINT", "ServeError", 404),
    ("SERVE_WORKER_CRASHED", "ServeError", 500),
    ("SLO_BAD_OBJECTIVE", "ObservabilityError", 400),
    ("SLO_BURN_RATE_EXCEEDED", "ObservabilityError", 503),
    ("SPEC_NEGATIVE_BANDWIDTH", "SpecError", 400),
    ("SPEC_NONPOSITIVE_PEAK", "SpecError", 400),
    ("WORKLOAD_FRACTION_RANGE", "WorkloadError", 400),
    ("WORKLOAD_FRACTION_SUM", "WorkloadError", 400),
    ("WORKLOAD_INTENSITY_NONPOSITIVE", "WorkloadError", 400),
)


class TestFrozenCatalog:
    """The shipped catalog matches the frozen table, entry for entry."""

    def test_class_catalog_is_frozen(self):
        from repro.serve import HTTP_STATUS_BY_CODE

        actual = tuple(sorted(
            (
                (cls.code, cls.__name__, cls.exit_code,
                 HTTP_STATUS_BY_CODE[cls.code])
                for cls in error_classes()
            ),
            key=lambda entry: entry[2],
        ))
        assert actual == FROZEN_CLASS_CATALOG

    def test_fine_grained_catalog_is_frozen(self):
        from repro.serve import HTTP_STATUS_BY_CODE

        actual = tuple(sorted(
            (code, cls.__name__, HTTP_STATUS_BY_CODE[code])
            for code, cls in FINE_GRAINED_CODES.items()
        ))
        assert actual == FROZEN_FINE_GRAINED_CATALOG


class TestCliExitCodes:
    """The CLI exits with the failing class's status, not a blanket 2."""

    def test_spec_error_exits_three(self, tmp_path, capsys):
        from repro.cli import main

        soc = tmp_path / "soc.json"
        soc.write_text(
            '{"kind": "soc", "schema": 1, "peak_perf": -1,'
            ' "memory_bandwidth": 1, "ips": []}'
        )
        workload = tmp_path / "usecase.json"
        workload.write_text(
            '{"kind": "workload", "schema": 1,'
            ' "fractions": [1.0], "intensities": [1.0]}'
        )
        code = main(["eval", "--soc", str(soc), "--workload", str(workload)])
        assert code == SpecError.exit_code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_serialization_error_exits_eight(self, tmp_path, capsys):
        from repro.cli import main

        soc = tmp_path / "soc.json"
        soc.write_text(
            '{"kind": "soc", "schema": 1, "peak_perf": NaN,'
            ' "memory_bandwidth": 1, "ips": []}'
        )
        code = main(["eval", "--soc", str(soc), "--workload", str(soc)])
        assert code == SerializationError.exit_code == 8
        err = capsys.readouterr().err
        assert "peak_perf" in err
        assert str(soc) in err
