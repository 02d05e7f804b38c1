"""Smoke test of the profiler, ``tools/profile.py``."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import imtscast.model as model_module
from imtscast.config import TrainConfig
from imtscast.data import align, pad_chunk
from imtscast.datasets import PRESETS, generate, split_samples

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "profile.py"


def load_profiler():
    spec = importlib.util.spec_from_file_location("profile_tool", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_profiler_writes_one_document_for_the_first_chunk(tmp_path):
    profiler = load_profiler()
    rule = model_module._weights_first
    out = tmp_path / "profile.json"
    assert profiler.main(["--preset", "sinusoid-tiny", "--repeats", "2", "--order",
                          "summary-first", "--out", str(out)]) == 0
    assert model_module._weights_first is rule
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"source", "seed", "variates", "repeats", "order", "python", "numpy",
                        "chunk", "ops", "serve"}
    assert (doc["source"], doc["seed"], doc["repeats"]) == ({"preset": "sinusoid-tiny"}, 3, 2)

    spec = PRESETS["sinusoid-tiny"]
    samples = profiler.first_chunk(split_samples(generate(spec), spec)["train"], TrainConfig())
    block = pad_chunk([align(s) for s in samples])
    chunk = doc["chunk"]
    assert (chunk["samples"], chunk["variates"], chunk["grid_length"]) == (
        block.samples, block.n_variates, block.grid_length)
    assert chunk["forward_ms"] > 0 and chunk["backward_ms"] > 0

    ops = doc["ops"]
    assert sum(op["nodes"] for op in ops.values()) == chunk["nodes"]
    assert ops["linear_attention"]["nodes"] == TrainConfig().blocks
    assert ops["linear_attention"]["vjp_ms"] > 0
    assert ops["param"]["vjp_ms"] == 0.0       # leaves have no VJP
    assert all(op["forward_faults"] >= 0 and op["vjp_faults"] >= 0 for op in ops.values())
    assert doc["serve"]["forward_ms_p50"] > 0


def test_a_workload_is_the_benchmarks_spec_and_config():
    profiler = load_profiler()
    workload = profiler.WORKLOADS["train-long-grid"]
    spec, cfg = profiler.data_spec(workload="train-long-grid", seed=5, variates=3)
    assert spec == replace(workload.spec, seed=5, n_variates=3)
    assert cfg == workload.config()
