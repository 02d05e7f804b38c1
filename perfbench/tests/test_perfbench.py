"""The benchmark's own checks: tiny runs of every workload, span-tree
invariants, and restoration of the wrapped functions.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import bench
import tracing


def tiny(workload: bench.Workload) -> bench.Workload:
    spec = replace(workload.spec, n_samples=6, split=(3, 1, 2),
                   n_variates=min(workload.spec.n_variates, 6),
                   mean_observations=min(workload.spec.mean_observations, 30.0))
    return replace(workload, spec=spec, epochs=1, max_test_ratio=None)


def originals():
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in tracing.targets()]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_enough_test_samples_for_p90(name):
    assert bench.WORKLOADS[name].spec.split[2] >= bench.MIN_TEST_SAMPLES


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = bench.run(tiny(bench.WORKLOADS[name]), seed=5, seconds=0.01, trace=False)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2 * 2  # two rounds of two samples
    assert [m for m in result["metrics"]] == [m for m, _ in bench.END_TO_END]
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"]) and entry["value"] > 0


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_traced_run_matches_untraced_and_restores(name, tmp_path):
    before = originals()
    result = bench.run(tiny(bench.WORKLOADS[name]), seed=5, seconds=0.01, trace=True,
                       trace_file=tmp_path / "spans.jsonl")
    assert result["correct"], result["problems"]
    assert [m for m in result["metrics"]] == [m for m, _ in tracing.PER_LAYER]
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    assert result["metrics"]["train.steps"]["value"] == 1
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == result["metrics"]["trace.spans"]["value"]
    assert json.loads(lines[0])["name"] == "run"


def test_only_timed_rounds_enter_the_latencies(tmp_path):
    inputs = bench.set_up(tiny(bench.WORKLOADS["predict-wide"]), 5, tmp_path, tracing.NullTracer())
    client = bench._Client(inputs.test, tracing.NullTracer(), bench._Pace())
    client.round(inputs.params, timed=False)
    assert client.times == [] and client.requests == len(inputs.test)
    client.round(inputs.params)
    assert len(client.times) == len(inputs.test) and all(x > 0 for x in client.times)


def test_pace_scales_to_reference_speed(monkeypatch):
    timings = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(bench, "reference_ms", lambda: next(timings))
    pace = bench._Pace()
    assert pace.scale() == 2 * bench.REFERENCE_MS / (2.0 + 4.0)
    assert pace.scale() == 2 * bench.REFERENCE_MS / (4.0 + 6.0)


def test_reference_kernel_is_timed():
    assert 0 < bench.reference_ms() < 1e3


def test_quality_gate_marks_run_incorrect():
    workload = replace(tiny(bench.WORKLOADS["train-sinusoid-a"]), max_test_ratio=0.0)
    result = bench.run(workload, seed=5, seconds=0.01, trace=False)
    assert not result["correct"]
    assert any("test_mse_vs_baseline" in p for p in result["problems"])


def test_span_tree_invariants(tmp_path):
    tracer = tracing.Tracer()
    workload = tiny(bench.WORKLOADS["train-sinusoid-a"])
    with tracer.installed(tracing.targets()):
        with tracer.span("run"):
            bench.execute(workload, 5, 0.01, tracer, tmp_path, fill=False)
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [r.name for r in roots] == ["run"]
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    kids = tracing.children(spans)
    for span in spans:
        assert tracing.self_time(span, kids) >= 0
    assert sum(tracing.self_time(s, kids) for s in spans) == roots[0].duration
    names = {s.name for s in spans}
    for expected in ("datasets.generate", "data.align", "model.forward", "fourier.rfft",
                     "tape.backward", "train.adam", "train.evaluate", "serve.request"):
        assert expected in names


def test_wrappers_restored_when_the_run_raises():
    before = originals()
    forward = vars(tracing.train_module)["forward"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracing.targets()):
            assert tracing.train_module.forward is not forward
            raise RuntimeError("boom")
    assert tracer.restored()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(bench.OUT_DIR.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
