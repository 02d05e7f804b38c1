"""Train the quality presets over model seeds and write QUALITY_<label>.json.

    python3 tools/quality.py --label change
    python3 tools/quality.py --label change-no-preconv --arm no-preconv
    python3 tools/quality.py --label bench --presets train-long-grid predict-wide

Run from the repository root; the package is imported from ``src/`` of the
same checkout. Each preset is generated and split (``datasets.generate``,
``split_samples``), then trained at ``TrainConfig(max_epochs=EPOCHS,
seed=s)`` for each model seed. Per preset and seed the file records:

- ``test_mse_vs_baseline``: the best checkpoint's test MSE over the
  mean-predictor baseline's (``train.mean_predictor_baseline``);
- ``target_epoch`` and ``target_seconds``: the first epoch whose validation
  MSE is at most ``TARGET`` times the validation baseline, and the wall
  seconds from the start of training to the end of that epoch (both null if
  no epoch gets there);
- ``best_epoch``: the epoch of the best validation MSE.

Per preset it also gives the epochs and seeds it ran and the mean, min and
max of the ratio over seeds, so a claim of unchanged quality can quote one
file's seed range. The numbers are deterministic given the code, except
the wall seconds.

``--presets`` also takes the benchmark's two larger workloads,
``BENCH_SHAPES``: their data spec and epoch budget come from ``WORKLOADS``
in ``perfbench/bench.py`` (read as it is), at data seed ``BENCH_DATA_SEED``
and, unless ``--seeds`` is given, model seeds ``BENCH_SEEDS``. The
benchmark's own quality number is one model seed of such a run.

``--arm`` trains a variant of the model named in ``ARMS``: each arm
replaces functions of ``imtscast.model`` for the run and puts them back
afterwards, so an ablation needs no option in the package. ``model`` is
the model itself.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads, as the CLI does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np

import imtscast.model as model_module
from bench import WORKLOADS
from imtscast.config import TrainConfig
from imtscast.datasets import PRESETS, generate, split_samples
from imtscast.train import evaluate, mean_predictor_baseline, train

PRESET_NAMES = ("sinusoid-a", "damped-a", "trend-a")
SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 30
TARGET = 0.5      # the quality target: this fraction of the mean-predictor baseline
BENCH_SHAPES = ("train-long-grid", "predict-wide")
BENCH_DATA_SEED = 1
BENCH_SEEDS = (0, 1, 2, 3)


def _own_values(taps, w1, *_conv):
    """No pre-convolution: each observed cell's own value, its middle tap,
    enters the tape as a checked constant."""
    return w1.tape.const(taps[1:2])


def _no_attention(q, *_args, **_kwargs):
    """No attention across variates: each block's residual branch adds zeros."""
    return q.tape.const(np.zeros_like(q.data))


# Each arm: the functions of ``imtscast.model`` it replaces, by name.
ARMS = {
    "model": {},
    "no-preconv": {"_smoothing_layers": _own_values},
    "no-attention": {"linear_attention": _no_attention},
}


def setting(name: str, epochs: int | None, seeds) -> tuple:
    """(spec, config, seeds) of a preset or of a benchmark shape; the
    config's seed is replaced per run."""
    if name in BENCH_SHAPES:
        workload = WORKLOADS[name]
        cfg = workload.config()
        spec = replace(workload.spec, seed=BENCH_DATA_SEED)
        default_seeds = BENCH_SEEDS
    else:
        cfg, spec, default_seeds = TrainConfig(max_epochs=EPOCHS), PRESETS[name], SEEDS
    if epochs is not None:
        cfg = replace(cfg, max_epochs=epochs)
    return spec, cfg, list(default_seeds if seeds is None else seeds)


def run_one(splits: dict, cfg: TrainConfig, val_baseline: float, test_baseline: float) -> dict:
    """Train one model seed on one preset's splits and score it."""
    reached: dict = {}
    started = time.perf_counter()

    def on_epoch(record):
        if not reached and record.val_mse <= TARGET * val_baseline:
            reached.update(epoch=record.epoch, seconds=time.perf_counter() - started)

    result = train(splits["train"], splits["val"], cfg, on_epoch=on_epoch)
    test_mse = evaluate(result.params, splits["test"])["mse"]
    return {
        "seed": cfg.seed,
        "test_mse_vs_baseline": test_mse / test_baseline,
        "target_epoch": reached.get("epoch"),
        "target_seconds": reached.get("seconds"),
        "best_epoch": result.best_epoch,
    }


def measure(presets, seeds, epochs: int | None) -> dict:
    """Every preset's per-seed runs, its baselines and its seed summary."""
    out = {}
    for name in presets:
        spec, cfg, preset_seeds = setting(name, epochs, seeds)
        splits = split_samples(generate(spec), spec)
        val_baseline = mean_predictor_baseline(splits["train"], splits["val"])
        test_baseline = mean_predictor_baseline(splits["train"], splits["test"])
        runs = [run_one(splits, replace(cfg, seed=seed), val_baseline, test_baseline)
                for seed in preset_seeds]
        ratios = [run["test_mse_vs_baseline"] for run in runs]
        out[name] = {
            "epochs": cfg.max_epochs,
            "seeds": preset_seeds,
            "val_baseline_mse": val_baseline,
            "test_baseline_mse": test_baseline,
            "runs": runs,
            "test_mse_vs_baseline": {"mean": float(np.mean(ratios)), "min": min(ratios),
                                     "max": max(ratios)},
        }
    return out


def measure_arm(arm: str, presets, seeds, epochs: int | None) -> dict:
    """``measure`` with the arm's functions in place of the model's own."""
    saved = {name: getattr(model_module, name) for name in ARMS[arm]}
    try:
        for name, fn in ARMS[arm].items():
            setattr(model_module, name, fn)
        return measure(presets, seeds, epochs)
    finally:
        for name, fn in saved.items():
            setattr(model_module, name, fn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file QUALITY_<label>.json")
    parser.add_argument("--presets", nargs="+", default=list(PRESET_NAMES),
                        choices=sorted(PRESETS) + list(BENCH_SHAPES))
    parser.add_argument("--seeds", nargs="+", type=int,
                        help=f"model seeds (default: {SEEDS}, or {BENCH_SEEDS} for a "
                             "benchmark shape)")
    parser.add_argument("--epochs", type=int,
                        help=f"epochs (default: {EPOCHS}, or a benchmark shape's own)")
    parser.add_argument("--arm", choices=list(ARMS), default="model")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    doc = {
        "label": args.label,
        "arm": args.arm,
        "epochs": args.epochs,
        "seeds": args.seeds,
        "target": TARGET,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "presets": measure_arm(args.arm, args.presets, args.seeds, args.epochs),
    }
    path = args.out_dir / f"QUALITY_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, entry in doc["presets"].items():
        ratio = entry["test_mse_vs_baseline"]
        print(f"{name}: test MSE / baseline mean {ratio['mean']:.4f} "
              f"(range {ratio['min']:.4f}-{ratio['max']:.4f})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
