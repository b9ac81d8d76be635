"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, metrics, oracle, run, tracing  # noqa: E402


# -- generator ---------------------------------------------------------


def _bodies(stream, count):
    return [next(stream).body for _ in range(count)]


def test_generator_is_deterministic_per_seed():
    socs = gen.soc_documents(7)
    assert socs == gen.soc_documents(7)
    assert socs != gen.soc_documents(8)
    for make in (gen.unique_eval_stream, gen.mixed_stream):
        first = _bodies(make(7, socs, "open"), 60)
        assert first == _bodies(make(7, socs, "open"), 60)
        assert first != _bodies(make(8, gen.soc_documents(8), "open"), 60)
    assert gen.arrival_offsets(7, 18.0, 5.0) == gen.arrival_offsets(
        7, 18.0, 5.0)
    one, two = gen.offline_plan(7), gen.offline_plan(7)
    for a, b in zip(one, two):
        for key, value in a.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, b[key])
            else:
                assert value == b[key]


def test_generated_inputs_cover_the_issue_ranges():
    socs = gen.soc_documents(3)
    assert [len(s["ips"]) for s in socs] == list(range(2, 9))
    requests = _bodies(gen.unique_eval_stream(3, socs, "x"), 200)
    assert len(set(requests)) == 200  # distinct: the cache never hits
    mixed = [next(gen.mixed_stream(3, socs, "y")) for _ in range(1)]
    stream = gen.mixed_stream(3, socs, "y")
    kinds = {next(stream).kind for _ in range(400)}
    assert kinds == {"eval", "sweep", "variants", "poison"}
    assert mixed[0].kind in kinds


# -- tracing -----------------------------------------------------------


def _originals(targets):
    import importlib

    found = {}
    for owner_path, attr, _ in targets:
        module_path, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name)
            found[(owner_path, attr)] = owner.__dict__[attr]
        else:
            found[(owner_path, attr)] = getattr(owner, attr)
    return found


def _sweep_and_eval():
    from repro.core import FIGURE_6_SEQUENCE
    from repro.explore.sweep import sweep_fraction
    from repro.io.json_codec import encode_soc, encode_workload
    from repro.serve.service import EvaluationService, ServiceConfig

    scenario = FIGURE_6_SEQUENCE[3]
    series = sweep_fraction(scenario.soc(), scenario.workload(), 1,
                            np.linspace(0.0, 1.0, 257))
    service = EvaluationService(ServiceConfig(engine="interpreted"))
    try:
        payload = service.handle_eval({
            "soc": encode_soc(scenario.soc()),
            "workload": encode_workload(scenario.workload()),
        })
    finally:
        service.drain(timeout_s=5.0)
    return oracle.digest(series), oracle.canonical(payload["result"])


def test_wrappers_restore_originals_and_leave_outputs_unchanged():
    targets = tracing.SERVE_TARGETS
    before = _originals(targets)
    plain = _sweep_and_eval()
    tracer = tracing.Tracer()
    assert tracer.install(targets) == len(targets)
    try:
        traced = _sweep_and_eval()
    finally:
        tracer.restore()
    assert traced == plain
    assert _originals(targets) == before
    names = {span.name for span in tracer.spans}
    assert "repro.explore.sweep.evaluate_batch" in names
    assert "repro.serve.service.EvaluationService.handle_eval" in names


def test_missing_target_is_skipped():
    tracer = tracing.Tracer()
    assert tracer.install((("repro.core.batch", "no_such_fn", "x"),)) == 0


def test_self_time_sums_to_the_window():
    spans = [("root", 0, 100, 0), ("child", 10, 40, 1), ("leaf", 20, 30, 2),
             ("other", 60, 90, 1)]
    totals = tracing.attribute(0, 100, spans)
    assert totals == {"root": 40, "child": 20, "leaf": 10, "other": 30}
    assert sum(tracing.attribute(-5, 100, spans).values()) == 105


# -- oracle ------------------------------------------------------------


def test_oracle_catches_a_wrong_result():
    socs = gen.soc_documents(1)
    request = next(gen.unique_eval_stream(1, socs, "t"))
    check = oracle.ServeOracle()
    right = json.loads(check.expected(request))
    body = json.dumps({"kind": "eval", "result": right}).encode()
    assert check.check(request, 200, body) is None
    wrong = dict(right, attainable=right["attainable"] * (1 + 1e-9))
    body = json.dumps({"kind": "eval", "result": wrong}).encode()
    assert check.check(request, 200, body) is not None
    swapped = dict(right, bottleneck="nonsense")
    body = json.dumps({"kind": "eval", "result": swapped}).encode()
    assert check.check(request, 200, body) is not None


def test_oracle_checks_poison_codes():
    stream = gen.mixed_stream(1, gen.soc_documents(1), "p")
    poison = next(r for r in stream if r.kind == "poison")
    check = oracle.ServeOracle()
    good = json.dumps({"error": {"code": poison.expect}}).encode()
    bad = json.dumps({"error": {"code": "SERVE_WORKER_CRASHED"}}).encode()
    assert check.check(poison, 400, good) is None
    assert check.check(poison, 400, bad) is not None
    assert check.check(poison, 200, b"{}") is not None


def test_engine_and_report_checks_catch_errors():
    from repro.core import FIGURE_6_SEQUENCE
    from repro.core.batch import evaluate_batch
    from repro.reports import report_fig6

    scenario = FIGURE_6_SEQUENCE[1]
    grid = np.tile(scenario.workload().fractions, (4, 1))
    intensities = np.tile(scenario.workload().intensities, (4, 1))
    good = evaluate_batch(scenario.soc(), grid, intensities)
    assert oracle.compare_engines(good, good) is None

    class Skewed:
        component_names = good.component_names
        attainables = good.attainables * (1 + 1e-9)
        bottleneck_codes = good.bottleneck_codes

    assert oracle.compare_engines(Skewed, good) is not None
    text = report_fig6()
    assert oracle.check_report(text) is None
    assert oracle.check_report(text.replace(" 40 ", " 41 ")) is not None


# -- host speed probe --------------------------------------------------


def test_probe_scales_by_the_mean_reference_time():
    from perfbench import speed

    probe = speed.Probe()
    probe.seconds = [speed.NOMINAL_S, 3 * speed.NOMINAL_S]
    assert probe.scale() == pytest.approx(0.5)
    probe.sample(3)
    assert len(probe.seconds) == 5
    assert all(s > 0 for s in probe.seconds)


def test_probe_runs_none_of_the_program():
    code = ("import sys; sys.path[:0] = [sys.argv[1]]\n"
            "from perfbench import speed\n"
            "speed.Probe().sample(2)\n"
            "assert not [m for m in sys.modules\n"
            "            if m.split('.')[0] == 'repro']\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- names and contract ------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metrics.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    shares = set(metrics.SHARE_OF_LAYER.values())
    assert shares <= set(metrics.PER_LAYER)


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail(list(range(100)))[0] == 90.0
    assert metrics.tail(list(range(99)))[0] == 75.0
    assert metrics.tail(list(range(1000)))[0] == 99.0
    assert metrics.tail(list(range(15)))[0] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
