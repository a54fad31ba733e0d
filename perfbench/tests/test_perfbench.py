"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, summarize  # noqa: E402

TINY = {
    "plan-scalar": workloads.PlanScalar(300),
    "analyze-scalar": workloads.AnalyzeScalar(2000),
    "ranges-mixed": workloads.RangesMixed(300),
    "cli": workloads.Cli(300),
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_the_registry():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES == tuple(TINY)
    assert {w["name"] for w in _spec()["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_runs_at_tiny_scale(name, tmp_path):
    wl = TINY[name]
    metrics, loop, record = run.measure(wl, 3, 0.0, tmp_path)
    assert loop.failed == 0, loop.problems
    assert loop.attempted == wl.cycle + 1
    assert record["op_tail_ms"]["samples"] == len(loop.latencies) > 0
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    wl = TINY[name]
    dump = tmp_path / "trace.json"
    metrics, loop, record = run.measure_traced(wl, 3, 0.0, tmp_path / "work", dump)
    assert loop.failed == 0, loop.problems
    assert record["absent"] == []
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["trace.ops"]["value"] == wl.cycle
    assert metrics["derived.tracing_overhead"]["value"] > 0
    doc = json.loads(dump.read_text())
    assert doc["spans"] and doc["fields"] == ["name", "start_ns", "end_ns", "parent", "op"]


def test_metric_names_and_units_match_the_spec(tmp_path):
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics, _, _ = run.measure(TINY["plan-scalar"], 0, 0.0, tmp_path / "a")
    assert {k: m["unit"] for k, m in metrics.items()} == e2e == run.END_TO_END
    metrics, _, _ = run.measure_traced(TINY["plan-scalar"], 0, 0.0, tmp_path / "b",
                                       tmp_path / "trace.json")
    assert {k: m["unit"] for k, m in metrics.items()} == layer == run.PER_LAYER


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("a", 0, 100, None, 0),   # 0: root
        Span("b", 10, 40, 0, 0),      # 1
        Span("d", 15, 25, 1, 0),      # 2: grandchild
        Span("c", 50, 70, 0, 0),      # 3
        Span("a", 55, 60, 3, 0),      # 4: recursive call of a
        Span("e", 30, 45, 0, 0),      # 5: overlaps b; only the union is covered
    ]
    out = summarize(spans, {"b": "g", "c": "g"})
    assert out["a"] == {"calls": 2, "busy_ns": 100, "self_ns": (100 - 55) + 5}
    assert out["b"] == {"calls": 1, "busy_ns": 30, "self_ns": 20}
    assert out["c"]["self_ns"] == 15
    assert out["d"]["self_ns"] == 10
    assert out["e"]["self_ns"] == 15
    assert out["g"] == {"calls": 2, "busy_ns": 50, "self_ns": 35}


def test_tracer_wraps_every_namespace_and_restores_it():
    from tracer import Tracer

    import ineqsel
    from ineqsel import estimator, ranges

    originals = (ineqsel.join_selectivity, estimator.join_selectivity,
                 ranges.join_selectivity, workloads.join_selectivity)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (ineqsel.join_selectivity, estimator.join_selectivity,
                   ranges.join_selectivity, workloads.join_selectivity)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert (ineqsel.join_selectivity, estimator.join_selectivity,
            ranges.join_selectivity, workloads.join_selectivity) == originals


def test_a_wrong_expected_value_counts_as_failed(tmp_path):
    wl = TINY["plan-scalar"]
    state = wl.setup(0, tmp_path)
    case = wl.cases[0]
    state.exact[case] += 0.5
    loop = run.run_loop(wl, state, 0.0)
    per_cycle = wl.cycle // len(wl.cases)
    assert loop.failed == per_cycle + 1
    assert 0 < loop.failed < loop.attempted


def test_a_wrong_expected_value_fails_the_post_loop_check(tmp_path):
    wl = TINY["analyze-scalar"]
    state = wl.setup(0, tmp_path)
    state.exact["skewed-int", workloads.ScalarOp.LT] += 0.5
    loop = run.run_loop(wl, state, 0.0)
    assert loop.failed == 0
    run.finish_loop(wl, state, loop)
    skewed = sum(n for case, n in loop.ops_of_case.items() if case[0][0] == "skewed-int")
    assert loop.failed == skewed == loop.attempted // 2


def test_gate_passes_and_catches_a_wrong_golden_value(tmp_path, monkeypatch):
    assert gate.run_gate(tmp_path, 0) == []
    monkeypatch.setattr(gate, "GOLDEN_JOIN", 0.5)
    problems = gate.run_gate(tmp_path, 0)
    assert len(problems) == 2          # the library check and the command-line check


def test_calibration_scales_each_group_by_the_kernel_runs_around_it(monkeypatch):
    ref = calibrate.REFERENCE_S
    kernel_runs = iter([9.0, ref, 3 * ref, 2 * ref])     # warm-up, then one per group
    monkeypatch.setattr(calibrate, "time_kernel", lambda: next(kernel_runs))
    cal = calibrate.Calibration(group_s=1.0)
    cal.start()
    for latency in (0.6, 0.6, 0.5):      # the second closes the first group
        cal.after(latency)
    cal.close()
    assert cal.kernel_s == [ref, 3 * ref, 2 * ref]
    assert cal.factors() == pytest.approx([0.5, 0.5, 0.4])


def test_measured_times_are_reported_at_reference_speed(tmp_path):
    metrics, loop, record = run.measure(TINY["plan-scalar"], 0, 0.0, tmp_path)
    cal = record["calibration"]
    assert cal["kernel_runs"] >= 2 and cal["kernel_p50_ms"] > 0
    assert record["raw"]["op_p50_ms"] > 0 and record["raw"]["setup_s"] > 0
    assert set(record["raw"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms"}


def test_tail_uses_the_preferred_percentile_or_a_lower_step():
    samples = [float(v) for v in range(1, 1001)]
    assert run.tail(samples, 99.0) == (99.0, run.percentile(samples, 99.0))
    assert run.tail(samples[:50], 99.0)[0] == 75.0
    assert run.tail(samples[:5], 99.0)[0] == 50.0


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-scalar", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_gate_failure_exits_nonzero_before_timing(monkeypatch, capsys):
    monkeypatch.setattr(gate, "GOLDEN_RESTRICTION", 0.5)
    code = run.main(["--workload", "plan-scalar", "--seconds", "60", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "restriction" in err
