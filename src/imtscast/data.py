"""Core irregular-series data types and the shared-grid alignment step.

An irregular multivariate sample is a list of per-variate observation
streams at mutually unaligned timestamps, plus future query times per
variate. ``align`` merges every timestamp into one sorted grid and
produces a zero-filled value matrix with a binary observedness mask, which
is the representation all downstream stages consume. ``pad_chunk`` stacks
several aligned samples with the same variate count into one padded block
so that they can run through the model together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if times.size > 1 and not np.all(np.diff(times) > 0):
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

    @property
    def n_variates(self) -> int:
        return len(self.series)

    def total_observations(self) -> int:
        return sum(len(s) for s in self.series)

    def query_counts(self) -> list[int]:
        return [q.size for q in self.query_times]


@dataclass(frozen=True)
class AlignedTriplet:
    """Shared time grid, zero-filled value matrix and observedness mask."""

    times: np.ndarray   # (L,) strictly increasing
    values: np.ndarray  # (L, N), zero where unobserved
    mask: np.ndarray    # (L, N) in {0, 1}

    @property
    def grid_length(self) -> int:
        return self.times.size

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PaddedChunk:
    """Aligned samples with a common variate count N, padded to one grid length.

    Rows are sample-major: row ``b*N + n`` is variate n of sample b. Cells
    past a sample's own grid have value 0 and mask 0, so every stage that
    masks (pooling) or zero-pads (the smoothing convolution) treats them
    exactly as if the grid ended there.
    """

    values: np.ndarray  # (B*N, L_max), zero where unobserved or padded
    mask: np.ndarray    # (B*N, L_max) in {0, 1}
    times: np.ndarray   # (B, L_max); past its grid, each row repeats its last time
    n_variates: int

    @property
    def samples(self) -> int:
        return self.times.shape[0]

    @property
    def grid_length(self) -> int:
        return self.times.shape[1]


def pad_columns(blocks, length: int) -> np.ndarray:
    """Place (L_b, c_b) blocks side by side in one (length, sum c_b) array.

    Rows past a block's own L_b repeat its last row, which keeps padded
    times finite and in order; callers mask those rows out.
    """
    out = np.empty((length, sum(block.shape[1] for block in blocks)))
    col = 0
    for block in blocks:
        rows, width = block.shape
        out[:rows, col : col + width] = block
        out[rows:, col : col + width] = block[-1]
        col += width
    return out


def pad_chunk(triplets) -> PaddedChunk:
    """Stack aligned samples that share N into one padded chunk."""
    triplets = list(triplets)
    if not triplets:
        raise DataError("pad_chunk: needs at least one sample")
    n = triplets[0].n_variates
    if any(t.n_variates != n for t in triplets):
        raise DataError("pad_chunk: samples in one chunk must have the same variate count")
    length = max(t.grid_length for t in triplets)
    values = np.zeros((len(triplets) * n, length))
    mask = np.zeros((len(triplets) * n, length))
    for b, t in enumerate(triplets):
        values[b * n : (b + 1) * n, : t.grid_length] = t.values.T
        mask[b * n : (b + 1) * n, : t.grid_length] = t.mask.T
    times = pad_columns([t.times[:, None] for t in triplets], length).T.copy()
    return PaddedChunk(values=values, mask=mask, times=times, n_variates=n)


@dataclass(frozen=True)
class NormalizedTimes:
    """Grid times mapped into [0, 1], one column per variate."""

    values: np.ndarray  # (L, N)
    shared: bool        # True when every column is the same global mapping

    def column(self, n: int) -> np.ndarray:
        return self.values[:, 0] if self.shared else self.values[:, n]


def align(sample: ImtsSample) -> AlignedTriplet:
    """Merge all variates' timestamps into one sorted, deduplicated grid.

    Timestamps are compared bitwise on their float64 representation; apply
    ``quantize`` first for noisy sources. Rejects samples with zero
    observations in total.
    """
    if sample.total_observations() == 0:
        raise DataError(f"sample {sample.sample_id}: cannot align, no observations at all")
    times = np.unique(np.concatenate([s.times for s in sample.series]))
    n = sample.n_variates
    values = np.zeros((times.size, n))
    mask = np.zeros((times.size, n))
    for col, s in enumerate(sample.series):
        if not len(s):
            continue
        rows = np.searchsorted(times, s.times)
        values[rows, col] = s.values
        mask[rows, col] = 1.0
    return AlignedTriplet(times=times, values=values, mask=mask)


def quantize(sample: ImtsSample, decimals: int) -> ImtsSample:
    """Round all times to ``decimals`` digits (optional ingestion step).

    Makes nearly-equal timestamps from noisy sources collapse onto the same
    grid row. Rounding may create duplicates within a variate, which are
    rejected as usual.
    """
    series = tuple(
        RawSeries(s.variate_id, np.round(s.times, decimals), s.values)
        for s in sample.series
    )
    qtimes = tuple(np.round(q, decimals) for q in sample.query_times)
    return ImtsSample(sample.sample_id, series, qtimes, sample.query_targets)


def normalize_times(triplet: AlignedTriplet, per_variate: bool = False) -> NormalizedTimes:
    """Min-max map of the grid times onto [0, 1].

    The default uses the global grid endpoints, identical for every variate
    (after alignment all variates share one canonical timeline). With
    ``per_variate=True`` each variate is scaled by its own observed extremes
    instead; rows outside that span are clipped into [0, 1] (they are masked
    out of any pooling anyway) and variates with fewer than two observations
    map to all zeros.
    """
    t = triplet.times
    length, n = triplet.values.shape
    if not per_variate:
        if length == 1:
            col = np.zeros(1)
        else:
            col = (t - t[0]) / (t[-1] - t[0])
        return NormalizedTimes(values=np.tile(col[:, None], (1, n)), shared=True)

    out = np.zeros((length, n))
    for col in range(n):
        observed = t[triplet.mask[:, col] > 0]
        if observed.size < 2:
            continue
        span = observed[-1] - observed[0]
        if span <= 0:
            continue
        out[:, col] = np.clip((t - observed[0]) / span, 0.0, 1.0)
    return NormalizedTimes(values=out, shared=False)
