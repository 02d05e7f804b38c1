"""Optimizer, objective, metrics and the chunked training loop.

Each shuffled batch runs in chunks: runs of consecutive samples (in batch
order) that share the variate count N. ``data.pad_chunk`` stacks a chunk's
aligned samples into one block padded to their longest grid (a chunk of one
is its sample's own block, not a copy), and its query arrays are passed in
the block's row order. A chunk runs forward and backward on one tape, so the
per-op cost of the tape is paid once per chunk rather than once per sample.
Padding is exact: padded cells hold no observed cell, the fused series is
0 off the observed cells, pooling's denominator multiplies by the mask
built from them, and the smoothing convolution's taps already read zeros
past the end of a grid. Each sample's observed-cell layout is built once, by
``align`` in ``_prepare``; a chunk re-bases its samples' layouts, and no
epoch derives one from a grid. The chunk loss is the sum of its samples'
losses, so the summed chunk gradients divided by the batch size are the
batch-mean gradient. Validation runs over the same kind of chunks.

A chunk's training tape keeps the arrays its VJP closures need until
backward; ``model.tape_bytes`` sums them from the chunk's padded shape, its
observed cells and its queries. A chunk grows while that sum stays within
``CHUNK_TAPE_BYTES``; a sample over the budget forms a chunk of one. The
budget is set by memory, and ``train`` holds the previous chunk's tape
while the next forward runs, so two tapes are alive at once. At 4 MiB
(what the tape keeps, counted on the seed-1 data of the benchmark's
workloads, epoch 1, with the default config):
- a whole 32-sample sinusoid-a batch is one chunk (~2.7-2.9 MB, 16.6-18.3
  floats per padded cell; 17.30 for the preset's first 32 samples);
- a 128-variate predict-wide chunk holds 3 samples (~3.85-4.0 MB);
- a long-grid chunk holds two samples (~1.9 MB each, ~3.7-3.9 MB together).
The conv's share is the chunk's layout, 32 bytes per observed cell: a
chunk of one keeps its sample's own arrays, a larger chunk the copy that
``pad_chunk`` made.

The optimizer works on flat vectors laid out as ``ModelParams.flat``: each
chunk's backward adds its gradients into one batch vector, which is then
divided by the batch size, clipped and handed to ``adam_step``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import AlignedTriplet, DataError, align, pad_chunk
from .model import ForwardResult, ModelParams, forward, tape_bytes
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
# objective and metrics
# ---------------------------------------------------------------------------

def metrics(predictions, targets) -> dict[str, float]:
    """Pooled MSE/MAE over all queried points (the reporting metrics).

    Errors too large to square or sum read inf, with no numpy warning; the
    caller decides what a non-finite metric means."""
    pred = np.asarray(predictions, dtype=np.float64).ravel()
    target = np.asarray(targets, dtype=np.float64).ravel()
    if pred.size == 0:
        raise DataError("metrics: empty query set")
    if pred.shape != target.shape:
        raise DataError(f"metrics: {pred.size} predictions vs {target.size} targets")
    with np.errstate(over="ignore"):
        resid = pred - target
        return {"mse": float(np.mean(resid * resid)), "mae": float(np.mean(np.abs(resid)))}


def _query_weights(result: ForwardResult) -> np.ndarray:
    """Per-query weights of the training objective.

    The objective of one sample is its variate-averaged squared error: each
    variate's squared errors are averaged over that variate's queries, and
    those means are averaged over the variates that have queries (a variate
    without queries is left out). A query of sample b therefore carries
    1 / (variates of b with queries * queries of its variate).
    """
    counts = np.asarray(result.counts).reshape(result.samples, -1)
    active = (counts > 0).sum(axis=1)
    if (active == 0).any():
        raise DataError("build_loss: sample has no queries")
    per_variate = np.repeat(counts.ravel(), counts.ravel())
    return 1.0 / (np.repeat(active, counts.sum(axis=1)) * per_variate)


def build_loss(result: ForwardResult, targets_flat: np.ndarray) -> Tensor:
    """The training objective of a chunk: the sum over its samples of each
    sample's variate-averaged squared error (see ``_query_weights``).

    Expressed as a single weighted sum on the chunk's tape.
    """
    weights = _query_weights(result)
    tp = result.predictions.tape
    resid = result.predictions - tp.const(targets_flat[:, None])
    return (resid * resid * tp.const(weights[:, None])).sum()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moment estimates, flat vectors laid out as ``ModelParams.flat``."""

    first: np.ndarray
    second: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(first=np.zeros_like(params.flat), second=np.zeros_like(params.flat))


def adam_step(flat: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> bool:
    """One bias-corrected update of the flat parameter vector, in place.
    Skips the step (returning False) if any gradient is non-finite."""
    if not np.isfinite(grads).all():
        log.warning("adam_step: non-finite gradient, step skipped")
        return False
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    m, v = state.first, state.second
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * (grads * grads)
    flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return True


def clip_gradients(grads: np.ndarray, max_norm: float = CLIP_NORM) -> float:
    """Scale a flat gradient vector in place so its L2 norm is at most
    ``max_norm``.

    Returns the norm before clipping. When the plain sum of squares
    overflows, the norm is taken of the gradients divided by their largest
    magnitude and scaled back, so finite gradients are clipped to
    ``max_norm`` rather than scaled by max_norm / inf = 0. A gradient that
    is not finite leaves the vector untouched: ``adam_step`` skips the step.
    """
    with np.errstate(over="ignore"):
        total = float(np.sqrt((grads * grads).sum()))
    if not np.isfinite(total) and grads.size:
        peak = float(np.abs(grads).max())
        if np.isfinite(peak) and peak > 0:
            total = peak * float(np.sqrt(np.square(grads / peak).sum()))
    if np.isfinite(total) and total > max_norm and total > 0:
        grads *= max_norm / total
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
    block: AlignedTriplet
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
                block=align(sample),
                queries=list(sample.query_times),
                targets_flat=np.concatenate(targets) if targets else np.empty(0),
            )
        )
    return prepared


CHUNK_TAPE_BYTES = 4 * 2**20   # model.tape_bytes per chunk; see the module docstring


def chunk_spans(blocks, query_counts, cfg: TrainConfig) -> list[range]:
    """Split a sequence of aligned samples (blocks of one) into chunks,
    keeping their order.

    ``query_counts`` holds each sample's number of query times. Each chunk
    is a run of consecutive samples with the same variate count whose tape
    estimate (``model.tape_bytes`` for ``cfg``) stays within
    ``CHUNK_TAPE_BYTES``. A chunk always holds at least one sample, so a
    sample over the budget forms a chunk of one.
    """
    spans = []
    start, n, longest, observed, queries = 0, None, 0, 0, 0
    for i, (blk, count) in enumerate(zip(blocks, query_counts, strict=True)):
        own = blk.cells.size
        grown = max(longest, blk.grid_length)
        joins = i > start and blk.n_variates == n and tape_bytes(
            cfg, i - start + 1, n, grown, observed + own, queries + count) <= CHUNK_TAPE_BYTES
        if joins:
            longest, observed, queries = grown, observed + own, queries + count
            continue
        if i > start:
            spans.append(range(start, i))
        start, n, longest, observed, queries = i, blk.n_variates, blk.grid_length, own, count
    if len(blocks) > start:
        spans.append(range(start, len(blocks)))
    return spans


def _chunks(prepared: list[_Prepared], cfg: TrainConfig) -> list[list[_Prepared]]:
    spans = chunk_spans([prep.block for prep in prepared],
                        [prep.targets_flat.size for prep in prepared], cfg)
    return [prepared[span.start : span.stop] for span in spans]


def inference_chunks(params: ModelParams, blocks, queries):
    """Forward passes over aligned samples (blocks of one) in chunks, for
    inference.

    ``queries`` holds one list of query-time arrays per sample. Yields
    (span, ForwardResult) per chunk of ``chunk_spans``, in order; each
    forward runs on a ``Tape(grad=False)``, which keeps no VJP closures, so
    its predictions are bitwise those of a training tape's forward on the
    same chunk. Keep only arrays from a result, so that nothing holds a
    chunk's tape past the next forward pass.
    """
    counts = [sum(q.size for q in qs) for qs in queries]
    for span in chunk_spans(blocks, counts, params.cfg):
        # ``res`` holds the previous chunk's tape until this forward pass has
        # run, so its memory is reused (see the training loop in ``train``).
        res = forward(Tape(grad=False), params, pad_chunk(blocks[span.start : span.stop]),
                      [q for qs in queries[span.start : span.stop] for q in qs])
        yield span, res


def shuffled_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """Sample order for an epoch; a pure function of (seed, epoch)."""
    return np.random.default_rng([seed, epoch, 0x0D0E]).permutation(count)


def evaluate(params: ModelParams, samples,
             prepared: list[_Prepared] | None = None) -> dict[str, float]:
    """Pooled metrics (``metrics``) over every queried point of ``samples``,
    which run through ``inference_chunks``. Raises DataError for no samples."""
    if prepared is None:
        prepared = _prepare(samples)
    if not prepared:
        raise DataError("evaluate: no samples to evaluate")
    preds = [res.predictions.data.ravel()
             for _span, res in inference_chunks(params, [m.block for m in prepared],
                                                [m.queries for m in prepared])]
    targets = [m.targets_flat for m in prepared]
    return metrics(np.concatenate(preds), np.concatenate(targets))


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
        loss_sum = 0.0
        try:
            for lo in range(0, order.size, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                acc = np.zeros_like(params.flat)
                for chunk in _chunks([train_prep[i] for i in batch], cfg):
                    # ``res`` and ``loss`` keep the previous chunk's tape
                    # alive until this chunk's forward pass has run. Its
                    # freed arrays then sit below live ones and get reused;
                    # freed at once, they are returned to the OS and this
                    # pass faults fresh pages back in (on long grids, ~4x
                    # the page faults and 10-15% slower epochs).
                    tp = Tape()
                    res = forward(tp, params, pad_chunk([m.block for m in chunk]),
                                  [q for m in chunk for q in m.queries])
                    loss = build_loss(res, np.concatenate([m.targets_flat for m in chunk]))
                    loss_sum += float(loss.data)
                    tp.backward(loss, into=acc)
                acc /= batch.size
                clip_gradients(acc)
                adam_step(params.flat, acc, state, cfg.learning_rate)
            val_stats = evaluate(params, val_samples, val_prep)
        except NonFiniteError as err:
            raise DivergenceError(
                f"training diverged at epoch {epoch}: {err}",
                checkpoint=best if best is not None else params.copy(),
                history=history,
            ) from err
        train_loss = loss_sum / order.size
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
            what = "validation MSE" if np.isfinite(train_loss) else "training loss"
            raise DivergenceError(
                f"training diverged at epoch {epoch}: non-finite {what}",
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
    shipping should at least halve this. Variates are matched by column;
    one that no training sample observes predicts 0. Raises DataError when
    ``eval_samples`` hold no query.
    """
    n = max((sample.n_variates for sample in [*train_samples, *eval_samples]), default=0)
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
    if not preds:
        raise DataError("mean_predictor_baseline: the evaluation samples hold no queries")
    return metrics(np.concatenate(preds), np.concatenate(targets))["mse"]
