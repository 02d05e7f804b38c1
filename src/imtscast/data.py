"""Core irregular-series data types and the shared-grid alignment step.

An irregular multivariate sample is a list of per-variate observation
streams at mutually unaligned timestamps, plus future query times per
variate. ``align`` merges every timestamp into one sorted grid and
produces a zero-filled value matrix with a binary observedness mask: an
``AlignedTriplet`` holding one sample, in the row layout the model reads.
``pad_chunk`` stacks such blocks with the same variate count into one
padded block, so that several samples run through the model together; a
sample is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid sample contents or malformed dataset files."""


@dataclass(frozen=True)
class RawSeries:
    """One variate's observation stream. Times must be strictly increasing."""

    variate_id: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise DataError(
                f"variate {self.variate_id}: times and values must be equal-length vectors"
            )
        if times.size and not np.isfinite(times).all():
            raise DataError(f"variate {self.variate_id}: non-finite observation time")
        if values.size and not np.isfinite(values).all():
            raise DataError(f"variate {self.variate_id}: non-finite observation value")
        if times.size > 1 and not (times[1:] > times[:-1]).all():
            raise DataError(
                f"variate {self.variate_id}: observation times must be strictly "
                "increasing (duplicates are rejected at ingestion)"
            )

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ImtsSample:
    """A multivariate sample: observation streams plus per-variate queries.

    ``query_targets[n]`` may be None (prediction-only queries); otherwise it
    holds the ground-truth values matching ``query_times[n]``.
    """

    sample_id: int
    series: tuple[RawSeries, ...]
    query_times: tuple[np.ndarray, ...]
    query_targets: tuple = ()

    def __post_init__(self):
        series = tuple(self.series)
        qtimes = tuple(np.asarray(q, dtype=np.float64) for q in self.query_times)
        if self.query_targets:
            qtargets = tuple(
                None if t is None else np.asarray(t, dtype=np.float64)
                for t in self.query_targets
            )
        else:
            qtargets = tuple(None for _ in series)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "query_times", qtimes)
        object.__setattr__(self, "query_targets", qtargets)
        if len(series) < 1:
            raise DataError(f"sample {self.sample_id}: needs at least one variate")
        if len(qtimes) != len(series) or len(qtargets) != len(series):
            raise DataError(f"sample {self.sample_id}: queries must be given per variate")
        for s, qt, tg in zip(series, qtimes, qtargets):
            if qt.size and not np.isfinite(qt).all():
                raise DataError(f"sample {self.sample_id}: non-finite query time")
            if len(s) and qt.size and qt.min() <= s.times[-1]:
                raise DataError(
                    f"sample {self.sample_id}, variate {s.variate_id}: query times "
                    "must exceed the last observed time"
                )
            if tg is not None and tg.shape != qt.shape:
                raise DataError(
                    f"sample {self.sample_id}, variate {s.variate_id}: targets do not "
                    "match query times"
                )
            if tg is not None and not np.isfinite(tg).all():
                raise DataError(
                    f"sample {self.sample_id}, variate {s.variate_id}: non-finite query target"
                )

    @property
    def n_variates(self) -> int:
        return len(self.series)

    def total_observations(self) -> int:
        return sum(len(s) for s in self.series)

    def query_counts(self) -> list[int]:
        return [q.size for q in self.query_times]


@dataclass(frozen=True)
class AlignedTriplet:
    """Aligned samples with a common variate count N on one grid length: a block.

    Rows are sample-major: row ``b*N + n`` is variate n of sample b. Cells
    past a sample's own grid have value 0 and mask 0, so every stage that
    masks (pooling) or zero-pads (the smoothing convolution) treats them
    exactly as if the grid ended there. Each padded time repeats the
    sample's last time, which keeps the times finite and in order and maps
    them to exactly 1 under ``normalize_times``.
    """

    times: np.ndarray   # (B, L); past its grid, each row repeats its last time
    values: np.ndarray  # (B*N, L), zero where unobserved or padded
    mask: np.ndarray    # (B*N, L) in {0, 1}

    @property
    def samples(self) -> int:
        return self.times.shape[0]

    @property
    def grid_length(self) -> int:
        return self.times.shape[1]

    @property
    def n_variates(self) -> int:
        return self.values.shape[0] // self.samples


def pad_chunk(blocks) -> AlignedTriplet:
    """Stack blocks that share N into one block padded to the longest grid.

    A lone block is returned as it is, not copied. Otherwise each block's
    rows are copied as one slab into the new block.
    """
    blocks = list(blocks)
    if not blocks:
        raise DataError("pad_chunk: needs at least one sample")
    if len(blocks) == 1:
        return blocks[0]
    n = blocks[0].n_variates
    if any(blk.n_variates != n for blk in blocks):
        raise DataError("pad_chunk: samples in one chunk must have the same variate count")
    length = max(blk.grid_length for blk in blocks)
    samples = sum(blk.samples for blk in blocks)
    values = np.zeros((samples * n, length))
    mask = np.zeros((samples * n, length))
    times = np.empty((samples, length))
    b = 0
    for blk in blocks:
        rows, cols = slice(b * n, (b + blk.samples) * n), slice(0, blk.grid_length)
        values[rows, cols] = blk.values
        mask[rows, cols] = blk.mask
        times[b : b + blk.samples, cols] = blk.times
        times[b : b + blk.samples, blk.grid_length :] = blk.times[:, -1:]
        b += blk.samples
    return AlignedTriplet(times=times, values=values, mask=mask)


def align(sample: ImtsSample) -> AlignedTriplet:
    """Merge all variates' timestamps into one sorted, deduplicated grid.

    Returns a block of one: (N, L) values and mask, (1, L) times.
    Timestamps are compared by value on their float64 representation, so
    ``-0.0`` and ``0.0`` share one grid time. Rejects samples with zero
    observations in total.
    """
    if sample.total_observations() == 0:
        raise DataError(f"sample {sample.sample_id}: cannot align, no observations at all")
    times, cols = np.unique(np.concatenate([s.times for s in sample.series]),
                            return_inverse=True)
    n = sample.n_variates
    rows = np.repeat(np.arange(n), [len(s) for s in sample.series])
    values = np.zeros((n, times.size))
    mask = np.zeros((n, times.size))
    values[rows, cols] = np.concatenate([s.values for s in sample.series])
    mask[rows, cols] = 1.0
    return AlignedTriplet(times=times[None, :], values=values, mask=mask)


def normalize_times(times: np.ndarray) -> np.ndarray:
    """Min-max map of each row of grid times onto [0, 1].

    ``times`` is the (B, L) array of ``AlignedTriplet.times``, one
    non-decreasing row per sample. Each row is scaled by its own first and
    last time, so all variates of a sample share one mapping (after
    alignment they share one canonical timeline). Padded cells repeat the
    last time and so map to exactly 1; a row holding a single time maps
    to 0.
    """
    start = times[:, :1]
    span = times[:, -1:] - start
    return (times - start) / np.where(span > 0, span, 1.0)
