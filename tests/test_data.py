import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imtscast.data import (
    DataError,
    ImtsSample,
    RawSeries,
    align,
    normalize_times,
    pad_chunk,
)
from imtscast.datasets import SynthSpec, generate

from conftest import random_sample
from oracles import dense_layout, grid_triplet, zero_filled


def make_sample(series_spec, queries=None):
    series = tuple(
        RawSeries(variate_id=i + 1, times=np.asarray(t, dtype=float),
                  values=np.asarray(v, dtype=float))
        for i, (t, v) in enumerate(series_spec)
    )
    if queries is None:
        queries = tuple(np.empty(0) for _ in series)
    return ImtsSample(sample_id=0, series=series, query_times=tuple(queries))


class TestAlign:
    def test_fully_disjoint_times_double_the_grid(self):
        # Two variates, four observations each, no shared timestamps: the
        # merged grid has all eight rows and each mask column four ones.
        sample = make_sample([
            ([0.0, 2.0, 4.0, 6.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 3.0, 5.0, 7.0], [5.0, 6.0, 7.0, 8.0]),
        ])
        triplet = align(sample)
        assert triplet.grid_length == 8
        assert triplet.mask.sum(axis=1).tolist() == [4.0, 4.0]

    def test_single_variate_grid_is_its_own_times(self):
        times = [0.5, 1.5, 9.0]
        sample = make_sample([(times, [1.0, 2.0, 3.0])])
        triplet = align(sample)
        assert np.array_equal(triplet.times[0], np.asarray(times))
        assert np.all(triplet.mask == 1.0)

    def test_identical_timestamp_sets_fully_overlap(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        sample = make_sample([(times, np.arange(5)) for _ in range(3)])
        triplet = align(sample)
        assert triplet.grid_length == 5
        assert np.all(triplet.mask == 1.0)

    def test_grid_size_matches_set_union_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sample = random_sample(rng)
            expected = len(set().union(*[set(s.times.tolist()) for s in sample.series]))
            if expected == 0:
                continue
            assert align(sample).grid_length == expected

    def test_signed_zeros_share_one_grid_time(self):
        # Times are compared by value: -0.0 == 0.0, so both land in cell 0.
        sample = make_sample([([-0.0, 1.0], [1.0, 2.0]), ([0.0, 2.0], [3.0, 4.0])])
        triplet = align(sample)
        assert triplet.grid_length == 3
        assert triplet.mask[:, 0].tolist() == [1.0, 1.0]
        assert zero_filled(triplet)[:, 0].tolist() == [1.0, 3.0]

    def test_a_sample_is_a_block_of_one(self):
        sample = make_sample([([0.0, 2.0], [3.0, 4.0]), ([1.0], [5.0]), ([], [])])
        triplet = align(sample)
        assert (triplet.samples, triplet.n_variates, triplet.grid_length) == (1, 3, 3)
        assert triplet.grid_shape == triplet.mask.shape == (3, 3)
        assert triplet.times.shape == (1, 3)
        assert zero_filled(triplet).tolist() == [[3.0, 0.0, 4.0], [0.0, 5.0, 0.0],
                                                 [0.0, 0.0, 0.0]]

    def test_empty_sample_rejected(self):
        sample = make_sample([([], [])], queries=[np.empty(0)])
        with pytest.raises(DataError, match="no observations"):
            align(sample)

    def test_duplicate_times_within_variate_rejected_at_ingestion(self):
        with pytest.raises(DataError, match="strictly increasing"):
            RawSeries(variate_id=1, times=np.array([1.0, 1.0]), values=np.array([0.0, 1.0]))

    def test_observation_count_conserved(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sample = random_sample(rng)
            triplet = align(sample)
            assert triplet.mask.sum() == sample.total_observations()
            per_variate = [len(s) for s in sample.series]
            assert triplet.mask.sum(axis=1).tolist() == per_variate

    def test_values_reconstruct_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sample = random_sample(rng)
            triplet = align(sample)
            for row, series in enumerate(sample.series):
                cols = np.searchsorted(triplet.times[0], series.times)
                assert np.array_equal(zero_filled(triplet)[row, cols], series.values)

    def test_zero_placeholder_where_unobserved(self):
        sample = make_sample([
            ([0.0, 2.0], [3.0, 4.0]),
            ([1.0], [5.0]),
        ])
        triplet = align(sample)
        assert np.all(zero_filled(triplet)[triplet.mask == 0.0] == 0.0)

    def test_align_idempotent_in_content(self):
        rng = np.random.default_rng(3)
        sample = random_sample(rng, allow_empty_variates=False)
        first = align(sample)
        # Rebuild a sample from the observed cells only and align again.
        series = []
        for row in range(first.n_variates):
            observed = first.mask[row] > 0
            series.append(RawSeries(variate_id=row + 1,
                                    times=first.times[0, observed],
                                    values=zero_filled(first)[row, observed]))
        again = align(ImtsSample(sample_id=1, series=tuple(series),
                                 query_times=tuple(np.empty(0) for _ in series)))
        assert np.array_equal(first.times, again.times)
        assert np.array_equal(zero_filled(first), zero_filled(again))
        assert np.array_equal(first.mask, again.mask)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alignment_invariants_hold_for_random_samples(self, seed):
        sample = random_sample(np.random.default_rng(seed))
        triplet = align(sample)
        assert np.all(np.diff(triplet.times) > 0)
        assert np.all((triplet.mask == 0.0) | (triplet.mask == 1.0))
        assert np.all(zero_filled(triplet)[triplet.mask == 0.0] == 0.0)
        assert triplet.mask.sum() == sample.total_observations()

    def test_query_must_exceed_last_observation(self):
        with pytest.raises(DataError, match="exceed the last observed"):
            make_sample([([0.0, 2.0], [0.0, 0.0])], queries=[np.array([1.5])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_target_rejected(self, bad):
        series = tuple(RawSeries(variate_id=v, times=np.array([0.0]), values=np.array([1.0]))
                       for v in (1, 2))
        with pytest.raises(DataError, match="^sample 7, variate 2: non-finite query target$"):
            ImtsSample(sample_id=7, series=series,
                       query_times=(np.array([1.0]), np.array([1.0, 2.0])),
                       query_targets=(np.array([0.5]), np.array([0.5, bad])))


def reference_grid(sample):
    """A sample's zero-filled (N, L) grid and mask, placed variate by
    variate at the grid columns of its times."""
    grid = np.unique(np.concatenate([s.times for s in sample.series]))
    values = np.zeros((sample.n_variates, grid.size))
    mask = np.zeros_like(values)
    for row, series in enumerate(sample.series):
        cols = np.searchsorted(grid, series.times)
        values[row, cols] = series.values
        mask[row, cols] = 1.0
    return values, mask


def same_layout(block, values, mask):
    """``block``'s layout is bitwise the dense scan of ``values`` under ``mask``."""
    cells, taps = dense_layout(values, mask)
    assert block.cells.dtype == cells.dtype
    assert block.cells.tolist() == cells.tolist()
    assert block.taps.shape == taps.shape
    assert block.taps.tobytes() == taps.tobytes()     # signed zeros included


@st.composite
def lattice_samples(draw, n_variates=None):
    """Samples on a short integer time lattice, so that observed cells are
    often adjacent, rows often start or end observed and variates are often
    empty. Values include both signed zeros."""
    n = n_variates or draw(st.integers(1, 4))
    length = draw(st.integers(1, 7))
    value = st.sampled_from([-0.0, 0.0, 2.5]) | st.floats(-1e3, 1e3)
    series = []
    for _ in range(n):
        times = sorted(draw(st.sets(st.integers(0, length - 1))))
        series.append((times, draw(st.lists(value, min_size=len(times), max_size=len(times)))))
    if not any(times for times, _values in series):
        series[0] = ([0], [-0.0])
    return make_sample(series)


# The grid's edge cases: the first and the last grid column observed, runs
# of adjacent observed cells across rows, a variate with no observations,
# a one-cell grid, and -0.0 values beside positive ones.
LAYOUT_EDGES = [
    make_sample([([0.0, 1.0, 2.0], [1.0, -2.0, 0.5]), ([], []), ([2.0], [0.3])]),
    make_sample([([5.0], [-0.0])]),
    make_sample([([5.0], [4.0]), ([], []), ([5.0], [-0.0])]),
    make_sample([([1.0, 2.0], [-0.0, 3.0]), ([0.0, 1.0], [7.0, -0.0]), ([0.0, 2.0], [1.0, 2.0])]),
]


class TestObservedCellLayout:
    @pytest.mark.parametrize("index", range(len(LAYOUT_EDGES)))
    def test_align_equals_the_dense_scan_at_the_grid_edges(self, index):
        sample = LAYOUT_EDGES[index]
        same_layout(align(sample), *reference_grid(sample))

    @given(lattice_samples())
    @settings(max_examples=60, deadline=None)
    def test_align_equals_the_dense_scan(self, sample):
        block = align(sample)
        values, mask = reference_grid(sample)
        same_layout(block, values, mask)
        assert np.array_equal(block.mask, mask)
        assert zero_filled(block).tobytes() == values.tobytes()

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(lattice_samples(n), min_size=2,
                                                         max_size=4)))
    @example([LAYOUT_EDGES[0], LAYOUT_EDGES[2], LAYOUT_EDGES[3]])
    @settings(max_examples=40, deadline=None)
    def test_pad_chunk_rebases_the_layout_onto_the_padded_grid(self, samples):
        blocks = [align(s) for s in samples]
        assume(len({blk.grid_length for blk in blocks}) > 1)
        chunk = pad_chunk(blocks)
        grids = [reference_grid(s) for s in samples]
        padded = np.zeros(chunk.mask.shape)
        mask = np.zeros(chunk.mask.shape)
        n = samples[0].n_variates
        for b, (values, own) in enumerate(grids):
            padded[b * n : (b + 1) * n, : values.shape[1]] = values
            mask[b * n : (b + 1) * n, : own.shape[1]] = own
        assert np.array_equal(chunk.mask, mask)
        same_layout(chunk, padded, mask)

    # Fully asynchronous data: about one observed cell per grid column, so
    # the (B*N, L) grid has about N = 8 cells per observed cell.
    LONG_GRID = SynthSpec(n_variates=8, n_samples=4, mean_observations=600.0,
                          mode="independent", split=(2, 1, 1))

    @staticmethod
    def held_bytes(block):
        """Bytes of the distinct buffers behind the block's array fields."""
        owners = {}
        for arr in vars(block).values():
            if not isinstance(arr, np.ndarray):        # the variate count
                continue
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners[id(arr)] = arr
        return sum(arr.nbytes for arr in owners.values())

    def test_a_triplet_holds_no_dense_values_grid(self):
        for sample in generate(self.LONG_GRID):
            block = align(sample)
            observed = sample.total_observations()
            assert block.cells.size == observed
            assert self.held_bytes(block) <= block.times.nbytes + 32 * observed

    def test_pad_chunk_allocates_no_dense_grid(self):
        blocks = [align(sample) for sample in generate(self.LONG_GRID)[:2]]
        tracemalloc.start()
        try:
            chunk = pad_chunk(blocks)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        observed = sum(blk.cells.size for blk in blocks)
        assert chunk.cells.size == observed
        assert self.held_bytes(chunk) <= chunk.times.nbytes + 32 * observed
        # Everything pad_chunk allocated at once, its temporaries included,
        # is less than one float (B*N, L) array.
        assert peak < 8 * math.prod(chunk.grid_shape)


class TestNormalizeTimes:
    def row(self, times):
        return normalize_times(np.asarray([times], dtype=float))[0]

    def test_affine_map(self):
        assert self.row([0.0, 5.0, 10.0]).tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_single_row(self):
        assert self.row([7.0]).tolist() == [0.0]

    def test_hand_computed_case(self):
        expected = [0.0, 1.0 / 9.0, 3.0 / 9.0, 1.0]
        assert np.allclose(self.row([3.0, 4.0, 6.0, 12.0]), expected, rtol=0, atol=1e-15)

    def test_endpoints_map_to_zero_and_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            times = np.sort(rng.uniform(-5, 5, size=rng.integers(2, 30)))
            times = np.unique(times)
            if times.size < 2:
                continue
            col = self.row(times)
            assert col[0] == 0.0 and col[-1] == 1.0
            assert np.all((col >= 0.0) & (col <= 1.0))
            assert np.all(np.diff(col) >= 0.0)

    def test_shared_endpoints_identical_across_variates(self):
        # One row of times per sample: all of a sample's variates share it.
        triplet = grid_triplet(np.zeros((3, 3)), np.ones((3, 3)), np.array([[0.0, 1.0, 4.0]]))
        norm = normalize_times(pad_chunk([triplet]).times)
        assert norm.tolist() == [[0.0, 0.25, 1.0]]

    def test_padded_cells_map_to_one_and_a_one_time_row_to_zero(self):
        triplets = [
            grid_triplet(np.zeros((2, len(times))), np.ones((2, len(times))), np.array([times]))
            for times in ([2.0, 3.0, 6.0], [0.1, 0.7, 0.9, 1.3, 2.9], [5.0])
        ]
        norm = normalize_times(pad_chunk(triplets).times)
        assert norm[0].tolist() == [0.0, 0.25, 1.0, 1.0, 1.0]
        assert norm[1, -1] == 1.0
        assert norm[2].tolist() == [0.0] * 5
