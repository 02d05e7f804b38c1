"""Optimizer, objectives, metrics and the per-sample training loop.

Grids vary in length across samples, so batching happens by gradient
accumulation: each sample runs forward/backward on its own tape and the
gradients are summed in sample-index order, then averaged. This is exactly
what padded batching would compute, without masked-tensor bookkeeping.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .config import TrainConfig
from .data import AlignedTriplet, DataError, ImtsSample, align
from .model import ForwardResult, ModelParams, forward
from .tape import NonFiniteError, Tape, Tensor

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers; carries the last good state."""

    def __init__(self, message, checkpoint=None, history=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.history = history or []


# ---------------------------------------------------------------------------
# objectives and metrics
# ---------------------------------------------------------------------------

def mse_loss(predictions, targets) -> float:
    """Variate-averaged squared error.

    ``predictions``/``targets`` hold one array per variate. Each variate is
    averaged over its own queries first, then variates are averaged;
    variates without queries are excluded from the outer mean. This is the
    training objective, distinct from the pooled reporting metrics.
    """
    terms = []
    for pred, target in zip(predictions, targets):
        pred = np.asarray(pred, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if pred.size == 0:
            continue
        resid = pred - target
        terms.append(float(np.mean(resid * resid)))
    if not terms:
        raise DataError("mse_loss: every variate has zero queries")
    return float(np.mean(terms))


def metrics(predictions, targets) -> dict[str, float]:
    """Pooled MSE/MAE over all queried points (the reporting metrics)."""
    pred = np.asarray(predictions, dtype=np.float64).ravel()
    target = np.asarray(targets, dtype=np.float64).ravel()
    if pred.size == 0:
        raise DataError("metrics: empty query set")
    if pred.shape != target.shape:
        raise DataError(f"metrics: {pred.size} predictions vs {target.size} targets")
    resid = pred - target
    return {"mse": float(np.mean(resid * resid)), "mae": float(np.mean(np.abs(resid)))}


def build_loss(result: ForwardResult, targets_flat: np.ndarray) -> Tensor:
    """Tape-side variate-averaged squared error for one sample.

    Expressed as a single weighted sum: each query carries weight
    1 / (variates-with-queries * queries-of-its-variate), which equals the
    per-variate-mean-then-mean form.
    """
    counts = result.counts
    active = sum(1 for c in counts if c > 0)
    if active == 0:
        raise DataError("build_loss: sample has no queries")
    weights = np.concatenate(
        [np.full(c, 1.0 / (active * c)) if c else np.empty(0) for c in counts]
    )[:, None]
    tp = result.predictions.tape
    resid = result.predictions - tp.const(targets_flat[:, None])
    return (resid * resid * tp.const(weights)).sum()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            first={k: np.zeros_like(v) for k, v in params.arrays.items()},
            second={k: np.zeros_like(v) for k, v in params.arrays.items()},
        )


def adam_step(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> bool:
    """One bias-corrected update, in place. Skips the step (returning False)
    if any gradient is non-finite."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            log.warning("adam_step: non-finite gradient for %s, step skipped", name)
            return False
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    for name, g in grads.items():
        m = state.first[name]
        v = state.second[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        arrays[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return True


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = CLIP_NORM) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mse: float
    val_mae: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    best_epoch: int
    best_val_mse: float


@dataclass
class _Prepared:
    triplet: AlignedTriplet
    queries: list[np.ndarray]
    targets_flat: np.ndarray


def _prepare(samples) -> list[_Prepared]:
    prepared = []
    for sample in samples:
        targets = []
        for qt, tg in zip(sample.query_times, sample.query_targets):
            if qt.size and tg is None:
                raise DataError(
                    f"sample {sample.sample_id}: queries without targets cannot be "
                    "used for training or evaluation"
                )
            targets.append(np.empty(0) if tg is None else tg)
        prepared.append(
            _Prepared(
                triplet=align(sample),
                queries=list(sample.query_times),
                targets_flat=np.concatenate(targets) if targets else np.empty(0),
            )
        )
    return prepared


def shuffled_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """Sample order for an epoch; a pure function of (seed, epoch)."""
    return np.random.default_rng([seed, epoch, 0x0D0E]).permutation(count)


def evaluate(params: ModelParams, samples, prepared: list[_Prepared] | None = None):
    """Pooled metrics over every queried point of ``samples``.

    Returns (metrics dict, list of per-sample flat prediction arrays). Only
    the arrays are kept, so nothing holds a sample's tape after its forward
    pass.
    """
    if prepared is None:
        prepared = _prepare(samples)
    preds, targets = [], []
    for prep in prepared:
        res = forward(Tape(), params, prep.triplet, prep.queries)
        preds.append(res.predictions.data.ravel())
        targets.append(prep.targets_flat)
    stats = metrics(np.concatenate(preds), np.concatenate(targets))
    return stats, preds


def train(train_samples, val_samples, cfg: TrainConfig,
          initial: ModelParams | None = None, on_epoch=None) -> TrainResult:
    """Minimize the variate-averaged squared error with early stopping.

    Deterministic given the config seed: initialization, shuffling and the
    accumulation order are all derived from it. Returns the checkpoint with
    the best validation pooled MSE. Raises DivergenceError (carrying the
    best checkpoint so far and the history) if the numerics blow up.
    """
    if not train_samples or not val_samples:
        raise DataError("train: needs non-empty train and validation splits")
    params = (initial or ModelParams.init(cfg)).copy()
    state = AdamState.init(params)
    train_prep = _prepare(train_samples)
    val_prep = _prepare(val_samples)

    history: list[EpochRecord] = []
    best: ModelParams | None = None
    best_mse = np.inf
    best_epoch = 0

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = shuffled_order(cfg.seed, epoch, len(train_prep))
        epoch_losses = []
        try:
            for lo in range(0, order.size, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                acc: dict[str, np.ndarray] = {}
                for idx in batch:
                    prep = train_prep[idx]
                    tp = Tape()
                    res = forward(tp, params, prep.triplet, prep.queries)
                    loss = build_loss(res, prep.targets_flat)
                    epoch_losses.append(float(loss.data))
                    for name, g in tp.backward(loss).items():
                        if name in acc:
                            acc[name] = acc[name] + g
                        else:
                            acc[name] = g
                for name in acc:
                    acc[name] = acc[name] / batch.size
                clip_gradients(acc)
                adam_step(params.arrays, acc, state, cfg.learning_rate)
            val_stats, _ = evaluate(params, val_samples, val_prep)
        except NonFiniteError as err:
            raise DivergenceError(
                f"training diverged at epoch {epoch}: {err}",
                checkpoint=best if best is not None else params.copy(),
                history=history,
            ) from err
        train_loss = float(np.mean(epoch_losses))
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_mse=val_stats["mse"],
            val_mae=val_stats["mae"],
            seconds=time.perf_counter() - started,
        )
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if not np.isfinite(train_loss) or not np.isfinite(val_stats["mse"]):
            raise DivergenceError(
                f"training diverged at epoch {epoch}: non-finite loss",
                checkpoint=best if best is not None else params.copy(),
                history=history,
            )
        if val_stats["mse"] < best_mse:
            best_mse = val_stats["mse"]
            best_epoch = epoch
            best = params.copy()
        elif epoch - best_epoch >= cfg.patience:
            break

    assert best is not None
    return TrainResult(params=best, history=history, best_epoch=best_epoch,
                       best_val_mse=best_mse)


def mean_predictor_baseline(train_samples, eval_samples) -> float:
    """Pooled MSE of predicting each variate's training-split mean value.

    The reference point for the learning-capability check: any model worth
    shipping should at least halve this.
    """
    n = train_samples[0].n_variates
    sums = np.zeros(n)
    counts = np.zeros(n)
    for sample in train_samples:
        for col, series in enumerate(sample.series):
            sums[col] += series.values.sum()
            counts[col] += len(series)
    means = np.divide(sums, counts, out=np.zeros(n), where=counts > 0)
    preds, targets = [], []
    for sample in eval_samples:
        for col, (qt, tg) in enumerate(zip(sample.query_times, sample.query_targets)):
            if qt.size == 0:
                continue
            preds.append(np.full(qt.size, means[col]))
            targets.append(tg)
    return metrics(np.concatenate(preds), np.concatenate(targets))["mse"]
