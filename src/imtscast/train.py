"""Optimizer, objectives, metrics and the chunked training loop.

Each shuffled batch runs as a few chunks: runs of consecutive samples (in
batch order) that share the variate count N, padded to their longest grid
(``data.pad_chunk``). A chunk runs forward and backward on one tape, so the
per-op cost of the tape is paid once per chunk rather than once per sample.
Padding is exact: padded cells have mask 0, pooling multiplies both its
numerator and its denominator by the mask, and the smoothing convolution
already sees zeros past the end of a grid. The chunk loss is the sum of its
samples' losses, so the summed chunk gradients divided by the batch size
are the batch-mean gradient. Validation runs over the same kind of chunks.

A chunk's padded cells B*N*L_max stay within ``CHUNK_CELLS``; a sample
larger than that forms a chunk of one. The budget is set by memory: a
chunk's tape keeps every activation until backward. The smoothing
convolution's (C, P) hidden layer grows with the P observed cells only;
the grid-wide (B*N, L_max) arrays of encode and pool and the kernel
weights grow with the padded cell count. At 8192 cells a sinusoid-a chunk
holds about 16 samples. Doubling the budget raised sinusoid-a training
from a median of 1703 to 2043 samples/s (perfbench, 5 seeds each, 2-vCPU
VM, one BLAS thread), but also the peak resident memory
of a run from 67.0 to 75.5 MB, 13% more, past the 10% bound the benchmark
sets on it; the budget stays at 8192.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .config import TrainConfig
from .data import AlignedTriplet, DataError, align
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


def _query_weights(result: ForwardResult) -> tuple[np.ndarray, np.ndarray]:
    """Per-query loss weights and the sample of each query.

    A query of sample b carries 1 / (variates of b with queries * queries of
    its variate), so summing a sample's weighted squared errors gives the
    per-variate-mean-then-mean form of ``mse_loss``.
    """
    counts = np.asarray(result.counts).reshape(result.samples, -1)
    active = (counts > 0).sum(axis=1)
    if (active == 0).any():
        raise DataError("build_loss: sample has no queries")
    sample_of = np.repeat(np.arange(result.samples), counts.sum(axis=1))
    weights = 1.0 / (active[sample_of] * np.repeat(counts.ravel(), counts.ravel()))
    return weights, sample_of


def build_loss(result: ForwardResult, targets_flat: np.ndarray) -> Tensor:
    """Tape-side variate-averaged squared error, summed over the chunk's samples.

    Expressed as a single weighted sum (see ``_query_weights``); for a chunk
    of one it is that sample's variate-averaged squared error.
    """
    weights, _ = _query_weights(result)
    tp = result.predictions.tape
    resid = result.predictions - tp.const(targets_flat[:, None])
    return (resid * resid * tp.const(weights[:, None])).sum()


def sample_losses(result: ForwardResult, targets_flat: np.ndarray) -> np.ndarray:
    """Each sample's share of ``build_loss``, as plain numbers."""
    weights, sample_of = _query_weights(result)
    resid = result.predictions.data.ravel() - targets_flat
    return np.bincount(sample_of, weights=resid * resid * weights, minlength=result.samples)


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
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the norm before clipping. When the plain sum of squares
    overflows, the norm is taken of the gradients divided by their largest
    magnitude and scaled back, so finite gradients are clipped to
    ``max_norm`` rather than scaled by max_norm / inf = 0. A gradient that
    is not finite leaves every array untouched: ``adam_step`` skips the step.
    """
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not np.isfinite(total):
        peak = max((float(np.abs(g).max()) for g in grads.values() if g.size), default=0.0)
        if np.isfinite(peak) and peak > 0:
            total = peak * np.sqrt(sum(float(np.square(g / peak).sum())
                                       for g in grads.values()))
    if np.isfinite(total) and total > max_norm and total > 0:
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


CHUNK_CELLS = 8192   # padded cells B*N*L_max per chunk; see the module docstring


def chunk_spans(triplets) -> list[range]:
    """Split a sequence of aligned samples into chunks, keeping their order.

    Each chunk is a run of consecutive samples with the same variate count
    whose padded cells (samples * N * longest grid) stay within
    ``CHUNK_CELLS``. A chunk always holds at least one sample, so a sample
    over the budget forms a chunk of one.
    """
    spans = []
    start, n, longest = 0, None, 0
    for i, trip in enumerate(triplets):
        grown = max(longest, trip.grid_length)
        if i > start and trip.n_variates == n and (i - start + 1) * n * grown <= CHUNK_CELLS:
            longest = grown
            continue
        if i > start:
            spans.append(range(start, i))
        start, n, longest = i, trip.n_variates, trip.grid_length
    if len(triplets) > start:
        spans.append(range(start, len(triplets)))
    return spans


def _chunks(prepared: list[_Prepared]) -> list[list[_Prepared]]:
    return [prepared[span.start : span.stop]
            for span in chunk_spans([prep.triplet for prep in prepared])]


def _chunk_forward(tp: Tape, params: ModelParams, chunk: list[_Prepared]) -> ForwardResult:
    return forward(tp, params, [m.triplet for m in chunk], [m.queries for m in chunk])


def shuffled_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """Sample order for an epoch; a pure function of (seed, epoch)."""
    return np.random.default_rng([seed, epoch, 0x0D0E]).permutation(count)


def evaluate(params: ModelParams, samples, prepared: list[_Prepared] | None = None):
    """Pooled metrics over every queried point of ``samples``.

    Samples run in chunks (see ``chunk_spans``), each forward on a
    ``Tape(grad=False)``, which keeps no VJP closures; the predictions are
    bitwise those of a training tape's forward. Returns (metrics dict, list
    of per-sample flat prediction arrays). Only the arrays are kept, so
    nothing holds a chunk's tape after its forward pass.
    """
    if prepared is None:
        prepared = _prepare(samples)
    preds, targets = [], []
    for chunk in _chunks(prepared):
        # ``res`` holds the previous chunk's tape until this forward pass has
        # run, so its memory is reused (see the training loop in ``train``).
        res = _chunk_forward(Tape(grad=False), params, chunk)
        preds.extend(res.per_sample())
        targets.extend(m.targets_flat for m in chunk)
    stats = metrics(np.concatenate(preds), np.concatenate(targets))
    return stats, preds


def train(train_samples, val_samples, cfg: TrainConfig,
          initial: ModelParams | None = None, on_epoch=None) -> TrainResult:
    """Minimize the variate-averaged squared error with early stopping.

    Deterministic given the config seed: initialization, shuffling, the
    chunking and the accumulation order are all derived from it. Returns
    the checkpoint with the best validation pooled MSE. Raises
    DivergenceError (carrying the best checkpoint so far and the history)
    if the numerics blow up.
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
                for chunk in _chunks([train_prep[i] for i in batch]):
                    # ``res`` and ``loss`` keep the previous chunk's tape
                    # alive until this chunk's forward pass has run. Its
                    # freed arrays then sit below live ones and get reused;
                    # freed at once, they are returned to the OS and this
                    # pass faults fresh pages back in (on long grids, ~4x
                    # the page faults and 10-15% slower epochs).
                    tp = Tape()
                    res = _chunk_forward(tp, params, chunk)
                    targets = np.concatenate([m.targets_flat for m in chunk])
                    loss = build_loss(res, targets)
                    epoch_losses.extend(sample_losses(res, targets).tolist())
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
