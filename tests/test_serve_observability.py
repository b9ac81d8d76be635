"""The live telemetry plane on the HTTP surface.

End-to-end checks for the tentpole contracts: ``GET /metrics``
exposition the CI scrape job relies on, ``GET /slo`` burn-rate
reports, wire-level trace propagation (the client span becomes the
server span's parent, one trace id across the hop), request ids in
structured logs, and the ``gables slo check`` CLI exit-code contract.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro import obs
from repro.cli import main
from repro.core import FIGURE_6_SEQUENCE
from repro.io.json_codec import encode_soc, encode_workload
from repro.obs.bench import append_history, make_record
from repro.obs.expo import parse_exposition
from repro.serve import GablesServer, ServiceClient, ServiceConfig

SCENARIO = FIGURE_6_SEQUENCE[1]


@pytest.fixture()
def server():
    instance = GablesServer(
        ServiceConfig(allow_fault_injection=True),
        port=0,
    ).start()
    yield instance
    instance.shutdown_gracefully()


def _get_raw(url: str, path: str) -> tuple:
    """(status, content-type, body-text) without any client JSON-ery."""
    host, _, port = url[len("http://"):].partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))
    finally:
        conn.close()


def _eval_document(**extra) -> dict:
    document = {
        "soc": encode_soc(SCENARIO.soc()),
        "workload": encode_workload(SCENARIO.workload()),
    }
    document.update(extra)
    return document


class TestMetricsEndpoint:
    def test_exposition_parses_and_counts_requests(self, server):
        with ServiceClient(server.url) as client:
            client.evaluate(SCENARIO.soc(), SCENARIO.workload())
            client.health()
        status, content_type, text = _get_raw(server.url, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        snapshot = parse_exposition(text)
        eval_key = "serve_http_requests{endpoint=/eval,outcome=ok}"
        health_key = "serve_http_requests{endpoint=/healthz,outcome=ok}"
        assert snapshot[eval_key]["value"] >= 1
        assert snapshot[health_key]["value"] >= 1
        latency = snapshot["serve_request_seconds"
                           "{endpoint=/eval,outcome=ok}"]
        assert latency["type"] == "bucket_histogram"
        assert latency["count"] >= 1
        assert snapshot["serve_inflight"]["type"] == "gauge"

    def test_error_outcomes_get_their_own_series(self, server):
        with ServiceClient(server.url) as client:
            status, _ = client.raw("GET", "/no-such-endpoint")
        assert status == 404
        _, _, text = _get_raw(server.url, "/metrics")
        snapshot = parse_exposition(text)
        key = ("serve_http_requests"
               "{endpoint=other,outcome=SERVE_UNKNOWN_ENDPOINT}")
        assert snapshot[key]["value"] >= 1

    def test_scrapes_do_not_enter_the_slo_window(self, server):
        with ServiceClient(server.url) as client:
            client.health()
        for _ in range(3):
            _get_raw(server.url, "/metrics")
        _, _, body = _get_raw(server.url, "/slo")
        report = json.loads(body)
        # Only the /healthz request counts; the scrapes observe.
        assert report["window_events"] == 1

    def test_fault_injected_requests_do_not_burn_the_budget(self, server):
        with ServiceClient(server.url) as client:
            status, payload = client.raw(
                "POST", "/eval", _eval_document(fault="crash")
            )
        assert status >= 400
        _, _, body = _get_raw(server.url, "/slo")
        assert json.loads(body)["window_events"] == 0
        # ... but the exposition series still shows the outcome.
        _, _, text = _get_raw(server.url, "/metrics")
        outcomes = [
            key for key in parse_exposition(text)
            if key.startswith("serve_http_requests{endpoint=/eval")
        ]
        assert outcomes


class TestSloEndpoint:
    def test_report_shape_and_objectives(self, server):
        with ServiceClient(server.url) as client:
            client.health()
        _, content_type, body = _get_raw(server.url, "/slo")
        assert content_type.startswith("application/json")
        report = json.loads(body)
        names = [o["name"] for o in report["objectives"]]
        assert names == ["availability", "latency_p99"]
        assert report["window_events"] == 1
        # One fast, successful request: nothing burns.
        assert report["breached"] is False
        threshold = [o for o in report["objectives"]
                     if o["name"] == "latency_p99"][0]["threshold_s"]
        assert threshold == [o.threshold_s for o in obs.default_objectives()
                             if o.name == "latency_p99"][0]


class TestTracePropagation:
    def test_client_and_server_spans_join_into_one_trace(self, server):
        obs.enable_tracing()
        with ServiceClient(server.url) as client:
            client.evaluate(SCENARIO.soc(), SCENARIO.workload())
        # The handler thread ends its span just after writing the
        # response, so the client can get here first.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not any(
            s.name == "serve.request"
            for s in obs.get_tracer().finished_spans()
        ):
            time.sleep(0.001)
        spans = obs.get_tracer().finished_spans()
        client_spans = [s for s in spans
                        if s.name == "serve.client.request"
                        and s.attributes.get("endpoint") == "/eval"]
        server_spans = [s for s in spans if s.name == "serve.request"
                        and s.attributes.get("endpoint") == "/eval"]
        assert len(client_spans) == 1 and len(server_spans) == 1
        client_span, server_span = client_spans[0], server_spans[0]
        assert server_span.parent_id == client_span.span_id
        assert (server_span.attributes["trace_id"]
                == client_span.attributes["trace_id"])
        assert server_span.attributes["request_id"]
        assert client_span.attributes["request_id"] == \
            server_span.attributes["request_id"]
        # The evaluation runs on the handler thread, inside the request.
        (evaluation,) = [s for s in spans if s.name == "core.evaluate"]
        by_id = {s.span_id: s for s in spans}
        ancestor = by_id.get(evaluation.parent_id)
        while ancestor is not None and ancestor is not server_span:
            ancestor = by_id.get(ancestor.parent_id)
        assert ancestor is server_span

    def test_server_span_is_root_without_a_propagating_client(self, server):
        obs.enable_tracing()
        _get_raw(server.url, "/healthz")
        spans = [s for s in obs.get_tracer().finished_spans()
                 if s.name == "serve.request"]
        # No headers came in: the server starts its own trace.
        # (The server thread shares this process's tracer in-test.)
        assert spans == [] or spans[0].parent_id is None

    def test_malformed_trace_headers_do_not_fail_the_request(self, server):
        host, _, port = server.url[len("http://"):].partition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        try:
            conn.request("GET", "/healthz", headers={
                "X-Gables-Trace-Id": "t-123",
                "X-Gables-Parent-Span": "not-an-int",
            })
            assert conn.getresponse().status == 200
        finally:
            conn.close()


class TestRequestIdLogging:
    def test_server_log_lines_carry_request_ids(self, server, tmp_path):
        log_path = tmp_path / "serve.jsonl"
        obs.configure_logging(log_path)
        with ServiceClient(server.url) as client:
            client.raw("GET", "/no-such-endpoint")
            client.raw("GET", "/also-missing")
        obs.reset_logging()
        records = obs.read_log_jsonl(log_path)
        errors = [r for r in records if r.event == "serve.request.error"]
        assert len(errors) == 2
        assert all(r.request_id for r in errors)
        assert errors[0].request_id != errors[1].request_id
        summary = obs.summarize_logs(records)
        assert len(summary["requests"]) == 2
        assert "distinct (X-Gables-Request-Id)" in \
            obs.format_log_summary(summary)


class TestLoadgenSamples:
    def test_slo_records_carry_the_sample_count(self, server):
        from repro.serve import run_load, slo_records

        report = run_load(server.url, clients=2, requests_per_client=3)
        records = slo_records(report, run_id="r-test")
        assert [r.name for r in records] == [
            "serve.loadgen.p50", "serve.loadgen.p99", "serve.loadgen.rps",
        ]
        for record in records:
            assert record.meta["samples"] == len(report.clean_latencies_s)
        assert records[0].meta["samples"] == 6


class TestSloCheckCli:
    def _seed_history(self, path, p99_s, *, samples=100):
        append_history(path, [make_record(
            "serve.loadgen.p99", p99_s, "s", run_id="r-seed",
            meta={"samples": samples},
        )])

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        alerts = tmp_path / "ALERTS.jsonl"
        self._seed_history(history, 0.015)
        rc = main(["slo", "check", "--history", str(history),
                   "--alerts", str(alerts)])
        assert rc == 0
        assert "slo check: ok" in capsys.readouterr().out
        assert not alerts.exists()

    def test_latency_regression_pages_and_writes_alerts(self, tmp_path,
                                                        capsys):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        alerts = tmp_path / "ALERTS.jsonl"
        self._seed_history(history, 0.9)  # p99 blew through 250 ms
        rc = main(["slo", "check", "--history", str(history),
                   "--alerts", str(alerts)])
        assert rc != 0
        out = capsys.readouterr()
        assert "BREACH" in out.out
        stored = obs.read_alerts(alerts)
        assert stored
        assert stored[0]["objective"] == "latency_p99"
        assert stored[0]["severity"] == "page"

    def test_live_healthy_server_exits_zero(self, server, tmp_path,
                                            capsys):
        with ServiceClient(server.url) as client:
            client.health()
        rc = main(["slo", "check", "--url", server.url,
                   "--alerts", str(tmp_path / "ALERTS.jsonl")])
        assert rc == 0

    def test_no_sources_is_an_error(self, tmp_path):
        assert main(["slo", "check",
                     "--alerts", str(tmp_path / "a.jsonl")]) != 0

    def test_slo_dashboard_cli_writes_live_page(self, server, tmp_path,
                                                capsys):
        out = tmp_path / "serve.html"
        with ServiceClient(server.url) as client:
            client.health()
        rc = main(["slo", "dashboard", "--url", server.url,
                   "--out", str(out), "--refresh-s", "3"])
        assert rc == 0
        html = out.read_text()
        assert 'http-equiv="refresh" content="3"' in html
        assert "<script" not in html.lower()
        assert "serve_http_requests" in html


class TestHistoryFreshness:
    def test_old_history_records_age_out_of_the_windows(self, tmp_path):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        stale = make_record("serve.loadgen.p99", 5.0, "s", run_id="r-old",
                            meta={"samples": 100})
        # Rewrite the timestamp a week into the past.
        stale = type(stale)(**{**stale.__dict__, "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() - 7 * 86400)
        )})
        append_history(history, [stale])
        rc = main(["slo", "check", "--history", str(history),
                   "--alerts", str(tmp_path / "ALERTS.jsonl")])
        # A week-old regression is history, not a live page.
        assert rc == 0
