"""Smoke test of the quality harness, ``tools/quality.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

import imtscast.model as model_module
from imtscast.config import TrainConfig
from imtscast.datasets import PRESETS, generate, split_samples
from imtscast.train import evaluate, mean_predictor_baseline, train

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "quality.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("quality", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("arm", ["model", "no-preconv"])
def test_the_harness_writes_what_train_and_evaluate_give(tmp_path, monkeypatch, arm):
    harness = load_harness()
    own = model_module._smoothing_layers
    assert harness.main(["--label", "smoke", "--presets", "sinusoid-tiny", "--seeds", "3",
                         "--epochs", "2", "--arm", arm, "--out-dir", str(tmp_path)]) == 0
    assert model_module._smoothing_layers is own
    doc = json.loads((tmp_path / "QUALITY_smoke.json").read_text(encoding="utf-8"))
    assert set(doc) == {"label", "arm", "epochs", "seeds", "target", "python", "numpy",
                        "presets"}
    assert (doc["label"], doc["arm"], doc["epochs"], doc["seeds"]) == ("smoke", arm, 2, [3])
    assert list(doc["presets"]) == ["sinusoid-tiny"]
    entry = doc["presets"]["sinusoid-tiny"]
    assert set(entry) == {"epochs", "seeds", "val_baseline_mse", "test_baseline_mse", "runs",
                          "test_mse_vs_baseline"}
    assert (entry["epochs"], entry["seeds"]) == (2, [3])
    [run] = entry["runs"]
    assert set(run) == {"seed", "test_mse_vs_baseline", "target_epoch", "target_seconds",
                        "best_epoch"}
    assert (run["target_epoch"] is None) == (run["target_seconds"] is None)

    # The arm's functions in place, the run the harness made.
    for name, fn in harness.ARMS[arm].items():
        monkeypatch.setattr(model_module, name, fn)
    spec = PRESETS["sinusoid-tiny"]
    splits = split_samples(generate(spec), spec)
    result = train(splits["train"], splits["val"], TrainConfig(max_epochs=2, seed=3))
    baseline = mean_predictor_baseline(splits["train"], splits["test"])
    ratio = evaluate(result.params, splits["test"])["mse"] / baseline
    assert run["test_mse_vs_baseline"] == ratio
    assert entry["test_baseline_mse"] == baseline
    assert run["best_epoch"] == result.best_epoch
    assert entry["test_mse_vs_baseline"] == {"mean": ratio, "min": ratio, "max": ratio}
    target = [r.epoch for r in result.history
              if r.val_mse <= 0.5 * mean_predictor_baseline(splits["train"], splits["val"])]
    assert run["target_epoch"] == (target[0] if target else None)
