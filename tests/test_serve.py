"""Tests for the evaluation service: protocol, isolation, chaos.

Layered like the package: pure protocol checks first, then the
transport-free :class:`~repro.serve.EvaluationService` fault paths,
then the HTTP surface, and finally the acceptance chaos load test —
eight concurrent clients against a live server under the
``chaos-default`` fault plan, where every clean request must succeed
and every injected fault must come back as a structured ``SERVE_*`` /
``WORKLOAD_*`` JSON error, plus a subprocess SIGTERM drain test.

The served ``/eval`` contract: the service evaluates each request with
the scalar :func:`repro.core.gables.evaluate` on the handler thread,
so a response is **bitwise identical** to the offline result on every
SoC.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.core import FIGURE_6_SEQUENCE, IPBlock, SoCSpec, Workload
from repro.core.gables import evaluate
from repro.errors import (
    EvaluationError,
    MeasurementError,
    ReproError,
    ServeError,
    WorkloadError,
)
from repro.io.json_codec import encode_result, encode_soc, encode_workload
from repro.serve import (
    EvaluationService,
    GablesServer,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    canonical_request_key,
    error_body,
    error_from_payload,
    parse_eval_request,
    parse_sweep_request,
    parse_variants_request,
    run_load,
)
from repro.serve import service as service_module
from repro.serve.loadgen import record_slo
from repro.serve.protocol import MAX_SWEEP_POINTS
from repro.units import GIGA

SCENARIO = FIGURE_6_SEQUENCE[1]


def eval_document(scenario=SCENARIO, **extra) -> dict:
    document = {
        "soc": encode_soc(scenario.soc()),
        "workload": encode_workload(scenario.workload()),
    }
    document.update(extra)
    return document


def offline_result(scenario=SCENARIO) -> dict:
    return encode_result(evaluate(scenario.soc(), scenario.workload()))


class Call(threading.Thread):
    """Run one call on its own thread and keep its outcome."""

    def __init__(self, function, *args) -> None:
        super().__init__(daemon=True)
        self._call = (function, args)
        self.value = None
        self.error = None
        self.start()

    def run(self) -> None:
        function, args = self._call
        try:
            self.value = function(*args)
        except Exception as err:  # re-raised by result()
            self.error = err

    def result(self, timeout_s: float = 10.0):
        self.join(timeout_s)
        assert not self.is_alive(), "call did not finish"
        if self.error is not None:
            raise self.error
        return self.value


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


@pytest.fixture()
def held_eval(monkeypatch):
    """Hold the first served evaluation inside ``evaluate``.

    Yields ``(entered, release)``: ``entered`` is set once a handler
    is busy with the held evaluation, setting ``release`` lets it
    finish.
    """
    entered, release = threading.Event(), threading.Event()
    evaluate_scalar = service_module.evaluate

    def held(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            release.wait(10.0)
        return evaluate_scalar(*args, **kwargs)

    monkeypatch.setattr(service_module, "evaluate", held)
    yield entered, release
    release.set()


@pytest.fixture()
def service():
    """A chaos-enabled service instance, drained at teardown."""
    instance = EvaluationService(ServiceConfig(allow_fault_injection=True))
    yield instance
    instance.drain(timeout_s=5.0)


class TestProtocol:
    def test_missing_soc_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            parse_eval_request({"workload": {}})
        assert excinfo.value.code == "SERVE_BAD_REQUEST"

    def test_unknown_key_rejected(self):
        with pytest.raises(ServeError, match="frobnicate"):
            parse_eval_request(eval_document(frobnicate=1))

    def test_phases_variant_not_servable(self):
        with pytest.raises(ServeError, match="phases"):
            parse_variants_request(eval_document(variant="phases"))

    def test_unknown_fault_rejected(self):
        with pytest.raises(ServeError, match="fault"):
            parse_eval_request(eval_document(fault="meteor-strike"))

    def test_nonpositive_deadline_rejected(self):
        for bad in (0, -1, float("inf")):
            with pytest.raises(ServeError):
                parse_eval_request(eval_document(deadline_s=bad))

    def test_cache_key_ignores_deadline_and_matches_identical(self):
        plain = parse_eval_request(eval_document())
        with_deadline = parse_eval_request(eval_document(deadline_s=5.0))
        other = parse_eval_request(eval_document(FIGURE_6_SEQUENCE[3]))
        assert plain.cache_key == with_deadline.cache_key
        assert plain.cache_key != other.cache_key

    def test_canonical_key_is_order_insensitive(self):
        assert canonical_request_key({"a": 1, "b": 2}) == \
            canonical_request_key({"b": 2, "a": 1})

    def test_sweep_too_many_points_is_413(self):
        document = eval_document(param="f", ip_index=0,
                                 values=[0.1] * (MAX_SWEEP_POINTS + 1))
        with pytest.raises(ServeError) as excinfo:
            parse_sweep_request(document)
        assert excinfo.value.code == "SERVE_PAYLOAD_TOO_LARGE"

    def test_sweep_requires_known_param(self):
        document = eval_document(param="voltage", values=[1.0])
        with pytest.raises(ServeError, match="param"):
            parse_sweep_request(document)

    def test_error_body_round_trips_the_class(self):
        body = error_body(
            WorkloadError("fractions must sum to one"), request_id="r1"
        )
        err = error_from_payload(body)
        assert isinstance(err, WorkloadError)
        assert err.code == "WORKLOAD_INVALID"
        assert err.request_id == "r1"
        assert "sum to one" in str(err)

    def test_error_body_round_trips_fine_grained_code(self):
        body = error_body(
            MeasurementError("gave up", code="MEASUREMENT_RETRIES_EXHAUSTED")
        )
        err = error_from_payload(body)
        assert isinstance(err, MeasurementError)
        assert err.code == "MEASUREMENT_RETRIES_EXHAUSTED"

    def test_unknown_payload_degrades_to_serve_error(self):
        err = error_from_payload({"nonsense": True})
        assert isinstance(err, ServeError)


class TestResultCache:
    def test_lru_eviction(self, tmp_path):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_crash_only_restart_recovers_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(capacity=8, path=path)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        # Simulate a crash mid-append: torn tail on disk.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "payl')
        reborn = ResultCache(capacity=8, path=path)
        assert reborn.get("a") == {"v": 1}
        assert reborn.get("b") == {"v": 2}
        assert reborn.get("c") is None

    def test_restart_keeps_only_newest_capacity(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(capacity=16, path=path)
        for index in range(6):
            cache.put(f"k{index}", {"v": index})
        reborn = ResultCache(capacity=2, path=path)
        assert len(reborn) == 2
        assert reborn.get("k5") == {"v": 5}
        assert reborn.get("k0") is None


class TestServiceEval:
    def test_bitwise_identical_to_offline(self, service):
        payload = service.handle_eval(eval_document())
        assert payload["result"] == offline_result()
        assert payload["meta"]["cached"] is False

    def test_cache_hit_marks_meta(self, service):
        service.handle_eval(eval_document())
        payload = service.handle_eval(eval_document())
        assert payload["meta"]["cached"] is True
        assert payload["result"] == offline_result()

    def test_coalesced_batch_is_bitwise_and_isolates_bad_rows(
            self, service):
        """Concurrent good and poisoned evals: the poisoned one fails
        alone, as a structured error from the protocol, while the good
        ones match offline evaluation bit for bit."""
        barrier = threading.Barrier(5)
        outcomes = [None] * 5

        def run(slot: int, document: dict) -> None:
            barrier.wait()
            try:
                outcomes[slot] = ("ok", service.handle_eval(document))
            except ReproError as err:
                outcomes[slot] = ("err", err)

        bad = eval_document()
        bad["workload"] = {
            **bad["workload"],
            "fractions": [f + 0.5 for f in bad["workload"]["fractions"]],
        }
        documents = [eval_document(FIGURE_6_SEQUENCE[i]) for i in range(4)]
        documents.append(bad)
        threads = [
            threading.Thread(target=run, args=(slot, document))
            for slot, document in enumerate(documents)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in range(4):
            kind, payload = outcomes[slot]
            assert kind == "ok"
            assert payload["result"] == offline_result(
                FIGURE_6_SEQUENCE[slot]
            )
        kind, err = outcomes[4]
        assert kind == "err"
        assert isinstance(err, WorkloadError)

    def test_fsum_accepted_workload_matches_offline(self, service):
        """Fractions that ``Workload`` accepts by ``math.fsum`` are
        served, although numpy sums them past the tolerance, and the
        response equals offline evaluation bit for bit."""
        soc = SoCSpec(
            peak_perf=40e9,
            memory_bandwidth=10e9,
            ips=(IPBlock("cpu", 1.0, 30e9), IPBlock("gpu", 8.0, 60e9),
                 IPBlock("dsp", 4.0, 20e9)),
        )
        workload = Workload(
            (0.5027467353042799, 0.49725326569571987, 1.566476002112645e-16),
            (4.0, 8.0, 2.0),
        )
        payload = service.handle_eval({
            "soc": encode_soc(soc), "workload": encode_workload(workload),
        })
        assert payload["result"] == encode_result(evaluate(soc, workload))

    def test_wide_soc_eval_is_bitwise_offline(self, service):
        """Three to eight IPs: every response equals offline
        ``evaluate`` bit for bit, memory bytes summed with ``fsum``
        on both sides."""
        for ips in range(3, 9):
            soc, workloads = wide_soc(seed=ips, ips=ips, rows=6)
            for workload in workloads:
                payload = service.handle_eval({
                    "soc": encode_soc(soc),
                    "workload": encode_workload(workload),
                })
                assert payload["result"] == encode_result(
                    evaluate(soc, workload)
                ), (ips, workload)

    def test_overflowed_ip_peak_is_evaluated(self, service):
        """An IP whose ``Ai * Ppeak`` overflows to inf is served as the
        scalar model evaluates it, and a usecase it leaves degenerate
        fails with the model's own code."""
        soc = SoCSpec(
            peak_perf=1e10,
            memory_bandwidth=10e9,
            ips=(IPBlock("cpu", 1.0, 10e9), IPBlock("acc", 1e300, 10e9)),
        )
        workload = Workload((0.5, 0.5), (4.0, 4.0))
        payload = service.handle_eval({
            "soc": encode_soc(soc), "workload": encode_workload(workload),
        })
        assert payload["result"]["attainable"] == 2e10
        assert payload["result"] == encode_result(evaluate(soc, workload))
        degenerate = Workload((0.0, 1.0), (float("inf"), float("inf")))
        with pytest.raises(EvaluationError) as excinfo:
            service.handle_eval({
                "soc": encode_soc(soc),
                "workload": encode_workload(degenerate),
            })
        assert excinfo.value.code == "EVALUATION_FAILED"

    def test_cache_written_under_the_old_key_goes_cold(self, tmp_path):
        """Entries keyed with the former null ``variant``/``config``
        fields held batch-path numbers; a restart does not serve
        them."""
        document = eval_document()
        old_key = canonical_request_key({
            "kind": "eval",
            "soc": document["soc"],
            "workload": document["workload"],
            "variant": None,
            "config": None,
        })
        path = tmp_path / "cache.jsonl"
        ResultCache(capacity=8, path=path).put(
            old_key, {"kind": "eval", "result": {}, "meta": {}}
        )
        service = EvaluationService(ServiceConfig(cache_path=str(path)))
        try:
            payload = service.handle_eval(document)
        finally:
            service.drain(timeout_s=2.0)
        assert payload["meta"]["cached"] is False
        assert payload["result"] == offline_result()

    def test_tiny_deadline_is_structured_504(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.handle_eval(eval_document(deadline_s=1e-9))
        assert excinfo.value.code == "SERVE_DEADLINE_EXCEEDED"

    def test_crash_fault_is_isolated(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.handle_eval(eval_document(fault="crash"))
        assert excinfo.value.code == "SERVE_WORKER_CRASHED"
        payload = service.handle_eval(eval_document())
        assert payload["result"] == offline_result()

    def test_fault_hook_refused_without_chaos(self):
        plain = EvaluationService(ServiceConfig())
        try:
            with pytest.raises(ServeError) as excinfo:
                plain.handle_eval(eval_document(fault="crash"))
            assert excinfo.value.code == "SERVE_BAD_REQUEST"
        finally:
            plain.drain(timeout_s=2.0)

    def test_service_starts_no_thread(self):
        before = set(threading.enumerate())
        instance = EvaluationService(ServiceConfig())
        try:
            assert set(threading.enumerate()) <= before
        finally:
            instance.drain(timeout_s=2.0)


def wide_soc(seed: int, ips: int, rows: int) -> tuple:
    """A seeded SoC with ``ips`` IPs and ``rows`` Dirichlet workloads."""
    rng = np.random.default_rng(seed)
    accelerations = [1.0] + rng.uniform(0.2, 40.0, ips - 1).tolist()
    soc = SoCSpec(
        peak_perf=float(rng.uniform(5.0, 50.0)) * GIGA,
        memory_bandwidth=float(rng.uniform(10.0, 60.0)) * GIGA,
        ips=tuple(
            IPBlock(f"IP{i}", accelerations[i],
                    float(rng.uniform(2.0, 40.0)) * GIGA)
            for i in range(ips)
        ),
        name="wide",
    )
    workloads = [
        Workload(
            fractions=tuple(rng.dirichlet(np.ones(ips)).tolist()),
            intensities=tuple(rng.uniform(0.1, 64.0, ips).tolist()),
        )
        for _ in range(rows)
    ]
    return soc, workloads


class TestServiceSweep:
    """Served ``/sweep`` runs the offline drivers on the one batch path."""

    def test_default_mode_sweep_is_bitwise_offline(self):
        """The default ``"record"`` mode over a 3-IP SoC returns the
        offline ``"raise"`` sweep's numbers bit for bit."""
        from repro.explore.sweep import sweep_fraction

        soc, (workload,) = wide_soc(0, 3, 1)
        values = [k / 999 for k in range(1000)]
        service = EvaluationService(ServiceConfig())
        try:
            payload = service.handle_sweep({
                "soc": encode_soc(soc),
                "workload": encode_workload(workload),
                "param": "f",
                "ip_index": 1,
                "values": values,
            })
        finally:
            service.drain(timeout_s=2.0)
        offline = sweep_fraction(soc, workload, 1, values)
        assert payload["errors"] == []
        assert [a.hex() for a in payload["attainables"]] == [
            a.hex() for a in offline.attainables()
        ]
        assert payload["bottlenecks"] == [
            p.bottleneck for p in offline.points
        ]

    def test_client_errors_keep_the_configured_engine(self):
        """Rejected sweeps are client errors: they do not move later
        requests off the configured engine."""
        from repro.explore.sweep import sweep_fraction

        service = EvaluationService(ServiceConfig(engine="compiled"))
        document = {
            "soc": encode_soc(SCENARIO.soc()),
            "workload": encode_workload(SCENARIO.workload()),
            "param": "f",
            "ip_index": 1,
            "values": [0.5, 1.5],
            "on_error": "raise",
        }
        try:
            for _ in range(3):
                with pytest.raises(WorkloadError) as excinfo:
                    service.handle_sweep(document)
                assert excinfo.value.code == "WORKLOAD_INVALID"
            payload = service.handle_sweep({**document, "values": [0.25, 0.5]})
        finally:
            service.drain(timeout_s=2.0)
        assert payload["meta"]["engine"] == "compiled"
        assert payload["attainables"] == list(sweep_fraction(
            SCENARIO.soc(), SCENARIO.workload(), 1, [0.25, 0.5]
        ).attainables())


class TestLateResults:
    """Every endpoint evaluates inside one budget step: a result that
    comes back after its deadline is a 504, counted once and never
    cached, and a failure outside the model's catalog is a crash."""

    #: Handler and request fields per endpoint; the sweep and variant
    #: requests evaluate through ``sweep_fraction`` and
    #: ``evaluate_variant``.
    ENDPOINTS = {
        "eval": ("handle_eval", {}),
        "sweep": ("handle_sweep",
                  {"param": "f", "ip_index": 1, "values": [0.25, 0.5]}),
        "variants": ("handle_variants", {"variant": "base"}),
    }

    @pytest.fixture()
    def slow(self, monkeypatch):
        """A service on a fake clock whose evaluations take 11 s, past
        the 10 s default budget."""
        now = [0.0]
        instance = EvaluationService(ServiceConfig(), clock=lambda: now[0])

        def slowed(function):
            def call(*args, **kwargs):
                now[0] += 11.0
                return function(*args, **kwargs)
            return call

        for name in ("evaluate", "sweep_fraction", "evaluate_variant"):
            monkeypatch.setattr(
                service_module, name, slowed(getattr(service_module, name))
            )
        yield instance
        instance.drain(timeout_s=2.0)

    @pytest.mark.parametrize("endpoint", sorted(ENDPOINTS))
    def test_late_result_is_504(self, slow, endpoint):
        handler, fields = self.ENDPOINTS[endpoint]
        before = slow.health()["metrics"]["deadline_exceeded"]
        with pytest.raises(ServeError) as excinfo:
            getattr(slow, handler)(eval_document(**fields))
        assert excinfo.value.code == "SERVE_DEADLINE_EXCEEDED"
        assert slow.health()["metrics"]["deadline_exceeded"] == before + 1

    def test_late_eval_result_is_not_cached(self, slow):
        with pytest.raises(ServeError):
            slow.handle_eval(eval_document())
        payload = slow.handle_eval(eval_document(deadline_s=60.0))
        assert payload["meta"]["cached"] is False
        assert payload["result"] == offline_result()

    def test_sweep_crash_is_isolated(self, service, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("sweep driver fell over")

        monkeypatch.setattr(service_module, "sweep_fraction", crash)
        with pytest.raises(ServeError) as excinfo:
            service.handle_sweep(
                eval_document(**self.ENDPOINTS["sweep"][1])
            )
        assert excinfo.value.code == "SERVE_WORKER_CRASHED"
        assert "sweep driver fell over" in str(excinfo.value)


class TestOverloadAndWatchdog:
    def test_overload_sheds_with_429_code(self, held_eval):
        entered, release = held_eval
        service = EvaluationService(ServiceConfig(queue_limit=1))
        try:
            occupant = Call(service.handle_eval, eval_document())
            assert entered.wait(10.0)
            with pytest.raises(ServeError) as excinfo:
                service.handle_eval(eval_document())
            assert excinfo.value.code == "SERVE_OVERLOADED"
            release.set()
            # The occupant's request completes normally.
            assert occupant.result()["result"] == offline_result()
        finally:
            service.drain(timeout_s=5.0)


class TestDrain:
    def test_drain_refuses_new_work_and_finishes_inflight(self, held_eval):
        entered, release = held_eval
        service = EvaluationService(ServiceConfig())
        inflight = Call(service.handle_eval, eval_document())
        assert entered.wait(10.0)
        drain = Call(service.drain, 5.0)
        wait_until(lambda: service.health()["status"] == "draining")
        with pytest.raises(ServeError) as excinfo:
            service.handle_eval(eval_document())
        assert excinfo.value.code == "SERVE_SHUTTING_DOWN"
        # The drain waits for the request already in flight.
        release.set()
        assert drain.result()["drained"] is True
        assert inflight.result()["result"] == offline_result()

    def test_drain_is_idempotent(self, service):
        assert service.drain(timeout_s=2.0)["drained"] is True
        assert service.drain(timeout_s=2.0)["drained"] is True


@pytest.fixture()
def server():
    instance = GablesServer(
        ServiceConfig(max_body_bytes=20_000, allow_fault_injection=True),
        port=0,
    ).start()
    yield instance
    instance.shutdown_gracefully()


class TestHttpSurface:
    def test_unreachable_server_raises_catalogued_error(self):
        # Port 9 (discard) is never listening; the transport failure
        # must surface as a ServeError, not a raw OSError traceback.
        with ServiceClient("http://127.0.0.1:9", timeout_s=0.5) as client:
            with pytest.raises(ServeError) as excinfo:
                client.health()
        assert excinfo.value.code == "SERVE_FAILED"
        assert "cannot reach" in str(excinfo.value)

    def test_eval_round_trip_with_request_id(self, server):
        with ServiceClient(server.url) as client:
            payload = client.evaluate(SCENARIO.soc(), SCENARIO.workload())
            assert payload["result"] == offline_result()
            assert client.last_request_id

    def test_error_classes_cross_the_wire(self, server):
        workload = encode_workload(SCENARIO.workload())
        workload["fractions"] = [0.9] * len(workload["fractions"])
        with ServiceClient(server.url) as client:
            with pytest.raises(WorkloadError):
                client.evaluate(encode_soc(SCENARIO.soc()), workload)

    def test_eval_with_a_variant_names_the_unknown_field(self, server):
        document = eval_document(variant="serialized")
        with ServiceClient(server.url) as client:
            status, payload = client.raw("POST", "/eval", document)
        assert status == 400
        assert payload["error"]["code"] == "SERVE_BAD_REQUEST"
        assert "unknown field(s): variant" in payload["error"]["message"]

    def test_wedge_fault_is_a_bad_request(self, server):
        # The chaos server honours "crash" only; a stuck shared worker
        # has nothing left to simulate.
        with ServiceClient(server.url) as client:
            status, payload = client.raw(
                "POST", "/eval", eval_document(fault="wedge")
            )
        assert status == 400
        assert payload["error"]["code"] == "SERVE_BAD_REQUEST"

    def test_eval_with_an_ip_named_memory_is_spec_invalid(self, server):
        # The name results give DRAM; such an IP's time was read as
        # DRAM's.
        document = eval_document()
        document["soc"]["ips"][1]["name"] = "memory"
        with ServiceClient(server.url) as client:
            status, payload = client.raw("POST", "/eval", document)
        assert status == 400
        assert payload["error"]["code"] == "SPEC_INVALID"
        assert "'memory' is reserved" in payload["error"]["message"]

    def test_unknown_endpoint_404(self, server):
        with ServiceClient(server.url) as client:
            status, payload = client.raw("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "SERVE_UNKNOWN_ENDPOINT"

    def test_wrong_method_405(self, server):
        with ServiceClient(server.url) as client:
            status, payload = client.raw("POST", "/healthz", {})
        assert status == 405
        assert payload["error"]["code"] == "SERVE_METHOD_NOT_ALLOWED"

    def test_oversized_body_413(self, server):
        document = eval_document(SCENARIO)
        document["workload"] = dict(document["workload"])
        document["padding"] = "x" * 30_000
        with ServiceClient(server.url) as client:
            status, payload = client.raw("POST", "/eval", document)
        assert status == 413
        assert payload["error"]["code"] == "SERVE_PAYLOAD_TOO_LARGE"

    def test_malformed_json_400(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/eval", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "SERVE_BAD_REQUEST"

    def test_early_errors_close_the_keep_alive_connection(self, server):
        # A POST answered before its body is read leaves that body in
        # the stream, where it would parse as the next request line.
        import http.client

        body = json.dumps(eval_document()).encode("utf-8")
        padded = json.dumps({"padding": "x" * 30_000}).encode("utf-8")
        cases = (
            ("/nope", body, str(len(body)), 404, "SERVE_UNKNOWN_ENDPOINT"),
            ("/healthz", body, str(len(body)), 405,
             "SERVE_METHOD_NOT_ALLOWED"),
            ("/eval", padded, str(len(padded)), 413,
             "SERVE_PAYLOAD_TOO_LARGE"),
            ("/eval", body, None, 400, "SERVE_BAD_REQUEST"),
            ("/eval", body, "many", 400, "SERVE_BAD_REQUEST"),
        )
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for path, data, length, status, code in cases:
                conn.putrequest("POST", path)
                conn.putheader("Content-Type", "application/json")
                if length is not None:
                    conn.putheader("Content-Length", length)
                conn.endheaders(data)
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == status, (path, length)
                assert payload["error"]["code"] == code
                assert response.getheader("Connection") == "close"
                conn.request("GET", "/healthz")
                health = conn.getresponse()
                assert health.status == 200, (path, length)
                assert json.loads(health.read())["status"] == "ok"
        finally:
            conn.close()

    def test_errors_after_the_body_is_read_keep_the_connection(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/eval", body=b"{not json")
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("Connection") is None
            sock = conn.sock
            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
            assert conn.sock is sock
        finally:
            conn.close()

    def test_healthz_and_readyz(self, server):
        with ServiceClient(server.url) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert "metrics" in health
            assert client.ready() is True

    def test_variants_catalog_excludes_phases(self, server):
        with ServiceClient(server.url) as client:
            names = client.variant_names()
        assert "base" in names
        assert "phases" not in names

    def test_sweep_round_trip(self, server):
        with ServiceClient(server.url) as client:
            payload = client.sweep(
                SCENARIO.soc(), SCENARIO.workload(),
                param="f", ip_index=1,
                values=[0.0, 0.25, 0.5, 0.75, 1.0],
            )
        assert payload["parameter"] == "f[1]"
        assert len(payload["values"]) == 5
        from repro.explore.sweep import sweep_fraction

        series = sweep_fraction(
            SCENARIO.soc(), SCENARIO.workload(), 1,
            [0.0, 0.25, 0.5, 0.75, 1.0],
        )
        assert tuple(payload["attainables"]) == series.attainables()

    def test_variant_eval_round_trip(self, server):
        from repro.core import evaluate_variant, variant_from_config

        soc, workload = SCENARIO.soc(), SCENARIO.workload()
        with ServiceClient(server.url) as client:
            payload = client.evaluate_variant(soc, workload, "serialized")
        offline = evaluate_variant(
            soc, workload, variant_from_config("serialized", soc)
        )
        assert payload["result"] == encode_result(offline)


class TestChaosLoad:
    """The acceptance criterion: concurrent chaos, zero contamination."""

    def test_chaos_load_isolates_faults_bitwise(self, server, tmp_path):
        # Warm the engine tiers so latency percentiles measure steady
        # state, not one-time compilation.
        with ServiceClient(server.url) as client:
            for scenario in FIGURE_6_SEQUENCE:
                client.evaluate(scenario.soc(), scenario.workload())

        report = run_load(
            server.url, clients=8, requests_per_client=12,
            fault_plan="chaos-default", seed=42,
        )
        # Clean requests: zero failures, bitwise-identical results.
        assert report.clean_requests > 0
        assert report.clean_failures == ()
        for index, payload in report.clean_samples:
            scenario = FIGURE_6_SEQUENCE[index]
            assert payload["result"] == encode_result(
                evaluate(scenario.soc(), scenario.workload())
            ), f"cross-request contamination on scenario {index}"
        # Injected faults: every one surfaced as a structured,
        # catalogued error (and at least one was actually injected).
        assert report.injected_requests > 0
        assert report.fault_misses == ()
        codes = {code for *_, code in report.fault_outcomes}
        assert codes & {"SERVE_WORKER_CRASHED", "SERVE_DEADLINE_EXCEEDED"}
        # Latency SLO: generous bound (shared CI boxes), but p99 must
        # exist and be finite.
        assert report.p99_s < 5.0
        assert report.p50_s <= report.p99_s
        # SLO records land in a bench history and read back.
        history = tmp_path / "BENCH_HISTORY.jsonl"
        written = record_slo(report, history)
        assert written == 3
        from repro.obs.bench import read_history

        names = [record.name for record in read_history(history)]
        assert names == [
            "serve.loadgen.p50", "serve.loadgen.p99", "serve.loadgen.rps",
        ]

    def test_loadgen_is_deterministic_per_seed(self, server):
        kwargs = dict(clients=2, requests_per_client=6,
                      fault_plan="chaos-default", seed=9)
        first = run_load(server.url, **kwargs)
        second = run_load(server.url, **kwargs)
        # Thread interleaving may reorder the global log, but each
        # (worker, sequence) slot draws the same injection every run.
        assert sorted(
            (w, s, kind) for w, s, kind, _ in first.fault_outcomes
        ) == sorted(
            (w, s, kind) for w, s, kind, _ in second.fault_outcomes
        )
        assert first.clean_requests == second.clean_requests


class TestCachePersistenceOverHttp:
    def test_crash_only_restart_serves_warm_cache(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        config = ServiceConfig(cache_path=str(cache_path))
        first = GablesServer(config, port=0).start()
        try:
            with ServiceClient(first.url) as client:
                cold = client.evaluate(SCENARIO.soc(), SCENARIO.workload())
                assert cold["meta"]["cached"] is False
        finally:
            first.shutdown_gracefully()
        # "Crash": no handshake, just a new process-equivalent server
        # pointed at the same cache file.
        second = GablesServer(config, port=0).start()
        try:
            with ServiceClient(second.url) as client:
                warm = client.evaluate(SCENARIO.soc(), SCENARIO.workload())
            assert warm["meta"]["cached"] is True
            assert warm["result"] == cold["result"]
        finally:
            second.shutdown_gracefully()


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token!r} in the body")


def _strict_loads(body):
    """Parse ``body`` as strict JSON (a bare ``Infinity`` or ``NaN``
    token fails)."""
    return json.loads(body, parse_constant=_reject_constant)


def _post_raw(url: str, path: str, body: str) -> tuple:
    """POST the JSON text ``body``; ``(status, response bytes)``."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                            timeout=10)
    try:
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _post_strict(url: str, path: str, document: dict) -> tuple:
    """POST ``document``; ``(status, payload)`` from a body parsed as
    strict JSON."""
    status, body = _post_raw(url, path, json.dumps(document))
    return status, _strict_loads(body)


class TestNonFiniteResultsOverHttp:
    """Every byte reused on a 1e308 ops/s SoC: each IP takes
    0.5 / 1e308 s, and the attainable overflows to inf."""

    SOC = SoCSpec(
        peak_perf=1e308,
        memory_bandwidth=10 * GIGA,
        ips=(IPBlock("CPU", 1.0, 10 * GIGA), IPBlock("GPU", 1.0, 10 * GIGA)),
    )
    WORKLOAD = Workload((0.5, 0.5), (float("inf"), float("inf")))

    @pytest.mark.parametrize("persistent", [False, True])
    def test_inf_attainable_is_served_as_strict_json(self, tmp_path,
                                                     persistent):
        cache_path = str(tmp_path / "cache.jsonl") if persistent else None
        server = GablesServer(
            ServiceConfig(cache_path=cache_path), port=0
        ).start()
        document = {
            "soc": encode_soc(self.SOC),
            "workload": encode_workload(self.WORKLOAD),
        }
        try:
            status, cold = _post_strict(server.url, "/eval", document)
            again_status, again = _post_strict(server.url, "/eval", document)
            finite_status, finite = _post_strict(
                server.url, "/eval", eval_document()
            )
        finally:
            server.shutdown_gracefully()
        assert (status, again_status, finite_status) == (200, 200, 200)
        assert cold["result"]["attainable"] == "inf"
        assert cold["result"] == encode_result(
            evaluate(self.SOC, self.WORKLOAD)
        )
        assert cold["meta"]["cached"] is False
        assert again["meta"]["cached"] is True
        assert again["result"] == cold["result"]
        # Finite numbers stay bare JSON numbers, bitwise the scalar
        # result's, so those responses keep their bytes.
        offline = evaluate(SCENARIO.soc(), SCENARIO.workload())
        result = finite["result"]
        assert result["attainable"] == offline.attainable
        assert result["memory_time"] == offline.memory_time
        assert [term["time"] for term in result["ip_terms"]] == [
            term.time for term in offline.ip_terms
        ]


#: ``/sweep`` documents whose responses carry infinite numbers, as JSON
#: text: an ``f`` sweep whose attainable overflows to inf on the 1e308
#: ops/s SoC, and an intensity sweep of Fig. 6b over ``1e400`` (inf)
#: with a finite value between, so both transitions carry an inf end.
#: ``json.dumps`` would write inf as ``Infinity``, so the strict-JSON
#: literal ``1e400`` is spliced into the text.
INF_SWEEPS = {
    "attainable": json.dumps({
        "soc": encode_soc(TestNonFiniteResultsOverHttp.SOC),
        "workload": encode_workload(TestNonFiniteResultsOverHttp.WORKLOAD),
        "param": "f",
        "ip_index": 1,
        "values": [0.5],
    }),
    "value": json.dumps({
        "soc": encode_soc(SCENARIO.soc()),
        "workload": encode_workload(SCENARIO.workload()),
        "param": "intensity",
        "ip_index": 1,
        "values": [1.0, 1.0, 1.0],
    }).replace("[1.0, 1.0, 1.0]", "[1e400, 1.0, 1e400]"),
}


def _expected_inf_sweep(case: str, payload: dict) -> None:
    if case == "attainable":
        assert payload["values"] == [0.5]
        assert payload["attainables"] == ["inf"]
        return
    assert payload["values"] == ["inf", 1.0, "inf"]
    assert [(t["previous_value"], t["value"])
            for t in payload["transitions"]] == [("inf", 1.0), (1.0, "inf")]
    assert all(isinstance(a, float) for a in payload["attainables"])


class TestNonFiniteSweepsAsStrictJson:
    """Served ``/sweep`` writes an infinite value, attainable or
    transition end as ``"inf"``, as :func:`encode_result` does, so its
    body is strict JSON; finite sweeps keep their bytes."""

    @pytest.mark.parametrize("case", sorted(INF_SWEEPS))
    def test_in_process_payload_is_strict_json(self, case):
        service = EvaluationService(ServiceConfig())
        try:
            payload = service.handle_sweep(json.loads(INF_SWEEPS[case]))
        finally:
            service.drain(timeout_s=2.0)
        _expected_inf_sweep(case, payload)
        body = json.dumps(payload, sort_keys=True)
        assert _strict_loads(body) == payload

    @pytest.mark.parametrize("case", sorted(INF_SWEEPS))
    def test_over_http_body_is_strict_json(self, case):
        server = GablesServer(ServiceConfig(), port=0).start()
        try:
            status, body = _post_raw(server.url, "/sweep", INF_SWEEPS[case])
        finally:
            server.shutdown_gracefully()
        assert status == 200
        _expected_inf_sweep(case, _strict_loads(body))

    def test_finite_sweep_keeps_its_bytes(self):
        from repro.explore.sweep import sweep_intensity

        values = [0.25 * 2 ** k for k in range(12)]
        document = eval_document(param="intensity", ip_index=1,
                                 values=values)
        server = GablesServer(ServiceConfig(), port=0).start()
        try:
            status, body = _post_raw(server.url, "/sweep",
                                     json.dumps(document))
        finally:
            server.shutdown_gracefully()
        series = sweep_intensity(SCENARIO.soc(), SCENARIO.workload(), 1,
                                 values)
        transitions = series.bottleneck_transitions()
        assert transitions
        want = {
            "kind": "sweep",
            "parameter": series.parameter,
            "values": list(series.values()),
            "attainables": list(series.attainables()),
            "bottlenecks": list(series.bottlenecks()),
            "transitions": [
                {
                    "value": t.value,
                    "previous_value": t.previous_value,
                    "from": t.from_component,
                    "to": t.to_component,
                    "index": t.index,
                }
                for t in transitions
            ],
            "errors": [],
            "meta": {"engine": "auto", "points": len(series)},
        }
        assert status == 200
        assert body == json.dumps(want, sort_keys=True).encode("utf-8")


class TestSigtermDrain:
    """A real process, a real signal: in-flight work must finish."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (os.path.join(os.getcwd(), "src"),)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            url = line.split("listening on ")[1].split()[0]

            outcomes = []

            def hammer() -> None:
                with ServiceClient(url, timeout_s=30.0) as client:
                    payload = client.sweep(
                        SCENARIO.soc(), SCENARIO.workload(),
                        param="f", ip_index=1,
                        values=[i / 7999 for i in range(8000)],
                    )
                    outcomes.append(len(payload["values"]))

            with ServiceClient(url, timeout_s=10.0) as probe:
                base = probe.health()["metrics"]["requests"]
                thread = threading.Thread(target=hammer)
                thread.start()
                # Signal only once the sweep has been *admitted* (or
                # already finished): the drain must let admitted work
                # complete rather than cut the socket.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    health = probe.health()
                    if (health["inflight"] >= 1
                            or health["metrics"]["requests"] > base):
                        break
                    time.sleep(0.005)
            process.send_signal(signal.SIGTERM)
            thread.join()
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert outcomes == [8000]
        assert process.returncode == 0, stdout
        assert "drained cleanly: True" in stdout
