"""Core irregular-series data types and the shared-grid alignment step.

An irregular multivariate sample is a list of per-variate observation
streams at mutually unaligned timestamps, plus future query times per
variate. ``align`` merges every timestamp into one sorted grid and
produces an ``AlignedTriplet`` holding one sample, in the row layout the
model reads: the grid times and the observed-cell layout. ``pad_chunk``
stacks such blocks with the same variate count into one padded block, so
that several samples run through the model together; a sample is a block
of one.

The observed-cell layout is the one record of which cells are observed.
On the zero-filled (B*N, L) grid, whose unobserved cells hold 0, it lists
the P observed cells by sorted flat index (``cells``) and, for each, the
grid values left of it, at it and right of it (``taps``). Because
unobserved cells hold 0, a neighbour that is not observed, or that lies
past either end of its row, reads exactly 0: the taps are the zero-padded
convolution's own inputs. The layout is built once per sample, from the
rows and columns of its observations, and never scans the grid. Nothing
of N*L entries is stored: ``AlignedTriplet.mask`` is derived from
``cells`` on each access.
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


@dataclass(frozen=True)
class AlignedTriplet:
    """Aligned samples with a common variate count N on one grid length: a block.

    Rows are sample-major: row ``b*N + n`` is variate n of sample b. Cells
    past a sample's own grid hold no observed cell and hold 0 on the
    zero-filled grid, so every stage that masks (pooling) or zero-pads (the
    smoothing convolution) treats them exactly as if the grid ended there.
    Each padded time repeats the sample's last time, which keeps the times
    finite and in order and maps them to exactly 1 under
    ``normalize_times``.

    Stored: the times, the variate count and the observed-cell layout (see
    the module docstring) on the (B*N, L) grid. Derived: ``mask``.
    """

    times: np.ndarray   # (B, L); past its grid, each row repeats its last time
    cells: np.ndarray   # (P,) flat indices of the observed cells, ascending
    taps: np.ndarray    # (3, P) left, own and right value of each observed cell
    n_variates: int

    @property
    def samples(self) -> int:
        return self.times.shape[0]

    @property
    def grid_length(self) -> int:
        return self.times.shape[1]

    @property
    def grid_shape(self) -> tuple[int, int]:
        """(B*N, L): one grid row per variate of each sample."""
        return self.samples * self.n_variates, self.grid_length

    @property
    def mask(self) -> np.ndarray:
        """The (B*N, L) observedness mask in {0, 1}, built anew from ``cells`` on each call."""
        out = np.zeros(self.grid_shape)
        out.reshape(-1)[self.cells] = 1.0
        return out


def pad_chunk(blocks) -> AlignedTriplet:
    """Stack blocks that share N into one block padded to the longest grid.

    A lone block is returned as it is, not copied. Otherwise each block's
    times are padded, its ``cells`` are re-based onto the new grid and the
    ``taps`` are concatenated: a tap past a block's own grid already reads
    0, as the padded grid holds. Nothing of the new grid's size is built.
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
    times = np.empty((sum(blk.samples for blk in blocks), length))
    first_rows = []
    b = 0
    for blk in blocks:
        times[b : b + blk.samples, : blk.grid_length] = blk.times
        times[b : b + blk.samples, blk.grid_length :] = blk.times[:, -1:]
        first_rows.append(b * n)
        b += blk.samples
    # Each cell keeps its row within its block and its column: row r, col c
    # of a block of grid length L' becomes (first row + r) * L + c, which
    # is the cell plus its row's shift. Offset by the rows of the blocks
    # before it, each block's ascending cells continue one ascending key
    # over the chunk's rows laid end to end, where one search finds every
    # row's first cell; no cell is divided.
    widths = np.repeat([blk.grid_length for blk in blocks], [blk.samples * n for blk in blocks])
    starts = np.zeros(widths.size, dtype=np.intp)              # each row's first key
    np.cumsum(widths[:-1], out=starts[1:])
    cells = np.concatenate([blk.cells for blk in blocks])
    cells += np.repeat(starts[first_rows], [blk.cells.size for blk in blocks])
    firsts = np.searchsorted(cells, starts)
    cells += np.repeat(np.arange(0, widths.size * length, length) - starts,
                       np.diff(firsts, append=cells.size))
    return AlignedTriplet(times=times, cells=cells,
                          taps=np.concatenate([blk.taps for blk in blocks], axis=1),
                          n_variates=n)


def align(sample: ImtsSample) -> AlignedTriplet:
    """Merge all variates' timestamps into one sorted, deduplicated grid.

    Returns a block of one: the (1, L) times, the variate count N and the
    observed-cell layout. Timestamps are compared by value on their float64
    representation, so ``-0.0`` and ``0.0`` share one grid time. Rejects
    samples with zero observations in total.

    Each variate's times increase strictly, so its observations land in
    ascending columns of its own row, and the flat indices of the
    observations, variate after variate, are already sorted. Two
    consecutive ones are neighbours on the grid exactly when they differ
    by 1 and the second is not at the start of a row; every other tap
    reads 0.
    """
    if sample.total_observations() == 0:
        raise DataError(f"sample {sample.sample_id}: cannot align, no observations at all")
    times, cols = np.unique(np.concatenate([s.times for s in sample.series]),
                            return_inverse=True)
    n, length = sample.n_variates, times.size
    cells = np.repeat(np.arange(0, n * length, length), [len(s) for s in sample.series])
    cells += cols                      # each observation's row start plus its column
    taps = np.zeros((3, cells.size))
    own = taps[1]
    np.concatenate([s.values for s in sample.series], out=own)
    adjacent = cells[1:] - cells[:-1] == 1
    adjacent &= cols[1:] != 0          # not the first cell of the next row
    np.copyto(taps[0, 1:], own[:-1], where=adjacent)
    np.copyto(taps[2, :-1], own[1:], where=adjacent)
    return AlignedTriplet(times=times[None, :], cells=cells, taps=taps, n_variates=n)


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
