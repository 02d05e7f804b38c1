"""Command-line surface: gen, train, eval, predict, gradcheck, inspect.

Exit codes: 0 success, 2 usage or validation problem, 3 numeric failure
(divergence or a failed gradient check). Every command that writes files
also echoes its effective configuration next to them. All commands are
deterministic given their flags and seed.
"""

# Pin BLAS/OpenMP to one thread before numpy loads: keeps timings stable and
# removes a source of run-to-run nondeterminism.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, TrainConfig, validate
from .data import DataError, align
from .datasets import (
    PRESETS,
    SynthSpec,
    assemble_samples,
    generate,
    read_dataset,
    read_observations,
    read_queries,
    write_dataset,
)
from .model import ModelParams, attention_maps, forward
from .tape import NonFiniteError, grad_check
from .train import DivergenceError, build_loss, evaluate, inference_chunks, train

OUTPUT_DIR_ENV = "IMTSCAST_OUT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _default_out(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    raise UsageError(f"--out not given and {OUTPUT_DIR_ENV} is not set")


def _write_json(path, doc) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _echo_config(out_dir: Path, command: str, doc: dict) -> None:
    _write_json(out_dir / f"{command}_config.json", doc)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

CONFIG_SECTIONS = {"data", "model", "run", "seed"}

MODEL_FLAGS = [
    # (flag, config field, type)
    ("--kernels", "kernels", int),
    ("--conv-channels", "conv_channels", int),
    ("--time-dim", "time_dim", int),
    ("--hidden", "hidden", int),
    ("--heads", "heads", int),
    ("--rff-dim", "rff_dim", int),
    ("--blocks", "blocks", int),
    ("--lr", "learning_rate", float),
    ("--batch-size", "batch_size", int),
    ("--max-epochs", "max_epochs", int),
    ("--patience", "patience", int),
]

ABLATION_FLAGS = [
    # (flag, boolean config field the flag turns off)
    ("--no-preconv", "use_preconv"),
    ("--no-pool-gate", "use_pool_gate"),
]


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file ({data, model, run, seed})")
    parser.add_argument("--seed", type=int, default=None)
    for flag, _field, typ in MODEL_FLAGS:
        parser.add_argument(flag, type=typ, default=None)
    for flag, _field in ABLATION_FLAGS:
        parser.add_argument(flag, action="store_true")


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{path}: invalid JSON: {err}")
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - CONFIG_SECTIONS)
    if unknown:
        raise UsageError(f"{path}: unknown config sections: {', '.join(unknown)}")
    if not isinstance(doc.get("model", {}), dict):
        raise UsageError(f"{path}: model section must be a JSON object")
    run = doc.get("run", {})
    if not isinstance(run, dict) or set(run) - {"out_dir"}:
        raise UsageError(f"{path}: run section only supports 'out_dir'")
    data = doc.get("data", {})
    if not isinstance(data, dict) or set(data) - {"manifest"}:
        raise UsageError(f"{path}: data section only supports 'manifest'")
    for name, value in (("data.manifest", data.get("manifest", "")),
                        ("run.out_dir", run.get("out_dir", ""))):
        if not isinstance(value, str):
            raise UsageError(f"{path}: {name} must be a string path, not {type(value).__name__}")
    return doc


def _resolve_config(args) -> tuple[TrainConfig, dict]:
    """Merge config file and flags (flags win), where a file's top-level and
    model seeds must agree. Returns (config, extras)."""
    doc = _load_config_file(args.config) if args.config else {}
    model_doc = dict(doc.get("model", {}))
    if "seed" in doc:
        if model_doc.get("seed", doc["seed"]) != doc["seed"]:
            raise UsageError(f"{args.config}: seed {doc['seed']!r} and model seed "
                             f"{model_doc['seed']!r} differ")
        model_doc.setdefault("seed", doc["seed"])
    try:
        cfg = TrainConfig.from_dict(model_doc) if model_doc else TrainConfig()
    except (ConfigError, TypeError) as err:
        raise UsageError(f"bad model config: {err}")
    updates = {}
    for flag, field, _typ in MODEL_FLAGS:
        value = getattr(args, _dest(flag))
        if value is not None:
            updates[field] = value
    for flag, field in ABLATION_FLAGS:
        if getattr(args, _dest(flag)):
            updates[field] = False
    if args.seed is not None:
        updates["seed"] = args.seed
    cfg = dataclasses.replace(cfg, **updates)
    validate(cfg)
    extras = {
        "manifest": doc.get("data", {}).get("manifest"),
        "out_dir": doc.get("run", {}).get("out_dir"),
    }
    return cfg, extras


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise UsageError(
                f"unknown preset {args.preset!r}; choices: {', '.join(sorted(PRESETS))}"
            )
        spec = PRESETS[args.preset]
    else:
        spec = SynthSpec()
    overrides = {}
    for field, attr in [
        ("n_variates", "variates"), ("n_samples", "samples"), ("window", "window"),
        ("mean_observations", "mean_obs"), ("mode", "mode"), ("signal", "signal"),
        ("noise_std", "noise_std"), ("horizon_frac", "horizon_frac"),
        ("queries_per_variate", "queries"), ("seed", "seed"),
    ]:
        value = getattr(args, attr)
        if value is not None:
            overrides[field] = value
    if overrides.get("n_samples") is not None and spec.split is not None:
        overrides.setdefault("split", None)  # explicit size overrides preset split
    spec = dataclasses.replace(spec, **overrides)
    try:
        spec.validate()
    except DataError as err:
        raise UsageError(str(err))
    out = _default_out(args)
    manifest = write_dataset(spec, out)
    _echo_config(out, "gen", {"preset": args.preset, "spec": spec.to_dict()})
    print(manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _write_history(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_mse", "val_mae", "seconds"])
        for rec in history:
            writer.writerow(
                [rec.epoch, repr(rec.train_loss), repr(rec.val_mse),
                 repr(rec.val_mae), f"{rec.seconds:.3f}"]
            )


def _cmd_train(args) -> int:
    cfg, extras = _resolve_config(args)
    manifest = args.data or extras["manifest"]
    if not manifest:
        raise UsageError("no dataset given (use --data or the config data.manifest)")
    if args.out is None and extras["out_dir"]:
        args.out = extras["out_dir"]
    out = _default_out(args)
    out.mkdir(parents=True, exist_ok=True)
    splits = read_dataset(manifest, splits=("train", "val"))
    _echo_config(out, "train", {
        "data": {"manifest": str(manifest)},
        "model": cfg.to_dict(),
        "run": {"out_dir": str(out)},
        "seed": cfg.seed,
    })
    progress = (lambda rec: print(
        f"epoch {rec.epoch} train_loss {rec.train_loss:.6f} val_mse {rec.val_mse:.6f}",
        file=sys.stderr,
    )) if args.verbose else None
    try:
        result = train(splits["train"], splits["val"], cfg, on_epoch=progress)
    except DivergenceError as err:
        _write_history(out / "history.csv", err.history)
        if err.checkpoint is not None:
            err.checkpoint.save(out / "checkpoint.json")
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    result.params.save(out / "checkpoint.json")
    _write_history(out / "history.csv", result.history)
    print(
        f"best_epoch={result.best_epoch} best_val_mse={result.best_val_mse:.6f} "
        f"epochs_run={len(result.history)} checkpoint={out / 'checkpoint.json'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / predict
# ---------------------------------------------------------------------------

def _load_checkpoint(path) -> ModelParams:
    if not Path(path).is_file():
        raise UsageError(f"checkpoint not found: {path}")
    return ModelParams.load(path)


def _cmd_eval(args) -> int:
    params = _load_checkpoint(args.checkpoint)
    splits = read_dataset(args.data, splits=(args.split,))
    samples = splits[args.split]
    stats = evaluate(params, samples)
    if not np.isfinite(stats["mse"]):
        raise NonFiniteError(f"{args.split} split: non-finite MSE ({stats['mse']!r}); the "
                             "predictions' squared errors overflow")
    print(f"split={args.split} mse={stats['mse']!r} mae={stats['mae']!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"eval_{args.split}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["split", "mse", "mae"])
            writer.writerow([args.split, repr(stats["mse"]), repr(stats["mae"])])
        _echo_config(out, "eval", {
            "checkpoint": str(args.checkpoint), "data": str(args.data),
            "split": args.split,
        })
    return EXIT_OK


def _cmd_predict(args) -> int:
    params = _load_checkpoint(args.checkpoint)
    obs_table = read_observations(args.observations)
    query_table = read_queries(args.queries, require_targets=False)
    if not query_table:
        raise UsageError(f"{args.queries}: no queries to predict")

    # One row per query, grouped by series and variate, in query-file order
    # within each (series, variate).
    samples = [sample for sample in assemble_samples(obs_table, query_table)
               if sample.sample_id in query_table]
    rows = []
    for span, res in inference_chunks(params, [align(sample) for sample in samples],
                                      [sample.query_times for sample in samples]):
        per_variate = res.per_variate()
        for b, sample in enumerate(samples[span.start : span.stop]):
            own = per_variate[b * sample.n_variates : (b + 1) * sample.n_variates]
            for var, (times, preds) in enumerate(zip(sample.query_times, own), 1):
                for t, value in zip(times, preds):
                    rows.append([sample.sample_id, var, repr(float(t)), repr(float(value))])
    out_path = Path(args.out) if args.out else Path("predictions.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", "variate", "time", "prediction"])
        writer.writerows(rows)
    print(out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _toy_sample_spec(seed: int) -> SynthSpec:
    return SynthSpec(
        n_variates=3, n_samples=1, window=1.0, mean_observations=4.0,
        mode="independent", signal="sinusoid", n_components=1,
        noise_std=0.1, horizon_frac=0.3, queries_per_variate=2, seed=seed,
    )


def _cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be finite and > 0, got {args.step:g}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol:g}")
    cfg, _extras = _resolve_config(args)
    sample = generate(_toy_sample_spec(cfg.seed + 101))[0]
    block = align(sample)
    model = ModelParams.init(cfg)
    targets = np.concatenate([t for t in sample.query_targets])

    def build(tp):
        return build_loss(forward(tp, model, block, sample.query_times), targets)

    report = grad_check(build, model.flat, model.arrays, step=args.step, tol=args.tol)
    for line in report.lines():
        print(line)
    print(f"{'PASS' if report.ok else 'FAIL'}: {sum(e.ok for e in report.entries)}"
          f"/{len(report.entries)} parameter groups within tol={args.tol:g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "gradcheck.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["group", "max_rel_err", "ok"])
            for e in report.entries:
                writer.writerow([e.name, repr(e.max_rel_err), int(e.ok)])
        _echo_config(out, "gradcheck", {"model": cfg.to_dict(), "tol": args.tol,
                                        "step": args.step})
    return EXIT_OK if report.ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _cmd_inspect(args) -> int:
    params = _load_checkpoint(args.checkpoint)
    splits = read_dataset(args.data, splits=(args.split,))
    samples = splits[args.split]
    if not 0 <= args.sample < len(samples):
        raise UsageError(f"--sample must be in [0, {len(samples)})")
    sample = samples[args.sample]
    maps = attention_maps(params, align(sample), sample.query_times)
    out = _default_out(args)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for amap in maps:
        path = out / f"attention_block{amap.block}_head{amap.head}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in amap.weights:
                writer.writerow([repr(v) for v in row])
        worst = max(worst, float(np.abs(amap.quadratic_out - amap.linear_out).max()))
    degenerate = sum(m.degenerate_rows for m in maps)
    _echo_config(out, "inspect", {
        "checkpoint": str(args.checkpoint), "data": str(args.data),
        "split": args.split, "sample": args.sample,
    })
    print(f"maps={len(maps)} out_dir={out} max_abs_diff_vs_linear={worst:.3e} "
          f"degenerate_rows={degenerate}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imtscast",
        description="Irregular multivariate time series forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--preset", default=None)
    gen.add_argument("--variates", type=int, default=None)
    gen.add_argument("--samples", type=int, default=None)
    gen.add_argument("--window", type=float, default=None)
    gen.add_argument("--mean-obs", type=float, default=None)
    gen.add_argument("--mode", choices=["independent", "shared", "mixed"], default=None)
    gen.add_argument("--signal", choices=["sinusoid", "damped", "trend"], default=None)
    gen.add_argument("--noise-std", type=float, default=None)
    gen.add_argument("--horizon-frac", type=float, default=None)
    gen.add_argument("--queries", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train a model on a generated dataset")
    _add_model_flags(tr)
    tr.add_argument("--data", help="dataset manifest path")
    tr.add_argument("--out", default=None)
    tr.add_argument("--verbose", action="store_true")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="pooled MSE/MAE of a checkpoint on a split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=["train", "val", "test"], default="test")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=_cmd_eval)

    pr = sub.add_parser("predict", help="predict values for a query CSV")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--observations", required=True)
    pr.add_argument("--queries", required=True)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=_cmd_predict)

    gc = sub.add_parser("gradcheck", help="verify tape gradients against finite differences")
    _add_model_flags(gc)
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.add_argument("--step", type=float, default=1e-4)
    gc.add_argument("--out", default=None)
    gc.set_defaults(func=_cmd_gradcheck)

    ins = sub.add_parser("inspect", help="dump per-block/head attention maps")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--data", required=True)
    ins.add_argument("--split", choices=["train", "val", "test"], default="test")
    ins.add_argument("--sample", type=int, default=0)
    ins.add_argument("--out", default=None)
    ins.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Tape.record raises NonFiniteError on an overflowing result, so
        # numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (UsageError, ConfigError, DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
