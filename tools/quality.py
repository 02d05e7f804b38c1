"""Train the quality presets over model seeds and write QUALITY_<label>.json.

    python3 tools/quality.py --label change

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

Per preset it also gives the mean, min and max of the ratio over seeds, so
a claim of unchanged quality can quote one file's seed range. The numbers
are deterministic given the code, except the wall seconds.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from imtscast.config import TrainConfig
from imtscast.datasets import PRESETS, generate, split_samples
from imtscast.train import evaluate, mean_predictor_baseline, train

PRESET_NAMES = ("sinusoid-a", "damped-a", "trend-a")
SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 30
TARGET = 0.5      # the quality target: this fraction of the mean-predictor baseline


def run_one(splits: dict, seed: int, epochs: int, val_baseline: float,
            test_baseline: float) -> dict:
    """Train one model seed on one preset's splits and score it."""
    reached: dict = {}
    started = time.perf_counter()

    def on_epoch(record):
        if not reached and record.val_mse <= TARGET * val_baseline:
            reached.update(epoch=record.epoch, seconds=time.perf_counter() - started)

    result = train(splits["train"], splits["val"], TrainConfig(max_epochs=epochs, seed=seed),
                   on_epoch=on_epoch)
    test_mse = evaluate(result.params, splits["test"])["mse"]
    return {
        "seed": seed,
        "test_mse_vs_baseline": test_mse / test_baseline,
        "target_epoch": reached.get("epoch"),
        "target_seconds": reached.get("seconds"),
        "best_epoch": result.best_epoch,
    }


def measure(presets, seeds, epochs: int) -> dict:
    """Every preset's per-seed runs, its baselines and its seed summary."""
    out = {}
    for name in presets:
        spec = PRESETS[name]
        splits = split_samples(generate(spec), spec)
        val_baseline = mean_predictor_baseline(splits["train"], splits["val"])
        test_baseline = mean_predictor_baseline(splits["train"], splits["test"])
        runs = [run_one(splits, seed, epochs, val_baseline, test_baseline) for seed in seeds]
        ratios = [run["test_mse_vs_baseline"] for run in runs]
        out[name] = {
            "val_baseline_mse": val_baseline,
            "test_baseline_mse": test_baseline,
            "runs": runs,
            "test_mse_vs_baseline": {"mean": float(np.mean(ratios)), "min": min(ratios),
                                     "max": max(ratios)},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file QUALITY_<label>.json")
    parser.add_argument("--presets", nargs="+", default=list(PRESET_NAMES),
                        choices=sorted(PRESETS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--epochs", type=int, default=EPOCHS)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    doc = {
        "label": args.label,
        "epochs": args.epochs,
        "seeds": args.seeds,
        "target": TARGET,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "presets": measure(args.presets, args.seeds, args.epochs),
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
