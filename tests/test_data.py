import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imtscast.data import (
    AlignedTriplet,
    DataError,
    ImtsSample,
    RawSeries,
    align,
    normalize_times,
    pad_chunk,
)

from conftest import random_sample


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
        assert triplet.values[:, 0].tolist() == [1.0, 3.0]

    def test_a_sample_is_a_block_of_one(self):
        sample = make_sample([([0.0, 2.0], [3.0, 4.0]), ([1.0], [5.0]), ([], [])])
        triplet = align(sample)
        assert (triplet.samples, triplet.n_variates, triplet.grid_length) == (1, 3, 3)
        assert triplet.values.shape == triplet.mask.shape == (3, 3)
        assert triplet.times.shape == (1, 3)
        assert triplet.values.tolist() == [[3.0, 0.0, 4.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]

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
                assert np.array_equal(triplet.values[row, cols], series.values)

    def test_zero_placeholder_where_unobserved(self):
        sample = make_sample([
            ([0.0, 2.0], [3.0, 4.0]),
            ([1.0], [5.0]),
        ])
        triplet = align(sample)
        assert np.all(triplet.values[triplet.mask == 0.0] == 0.0)

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
                                    values=first.values[row, observed]))
        again = align(ImtsSample(sample_id=1, series=tuple(series),
                                 query_times=tuple(np.empty(0) for _ in series)))
        assert np.array_equal(first.times, again.times)
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.mask, again.mask)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alignment_invariants_hold_for_random_samples(self, seed):
        sample = random_sample(np.random.default_rng(seed))
        triplet = align(sample)
        assert np.all(np.diff(triplet.times) > 0)
        assert np.all((triplet.mask == 0.0) | (triplet.mask == 1.0))
        assert np.all(triplet.values[triplet.mask == 0.0] == 0.0)
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
        triplet = AlignedTriplet(times=np.array([[0.0, 1.0, 4.0]]), values=np.zeros((3, 3)),
                                 mask=np.ones((3, 3)))
        norm = normalize_times(pad_chunk([triplet]).times)
        assert norm.tolist() == [[0.0, 0.25, 1.0]]

    def test_padded_cells_map_to_one_and_a_one_time_row_to_zero(self):
        triplets = [
            AlignedTriplet(times=np.array([times]), values=np.zeros((2, len(times))),
                           mask=np.ones((2, len(times))))
            for times in ([2.0, 3.0, 6.0], [0.1, 0.7, 0.9, 1.3, 2.9], [5.0])
        ]
        norm = normalize_times(pad_chunk(triplets).times)
        assert norm[0].tolist() == [0.0, 0.25, 1.0, 1.0, 1.0]
        assert norm[1, -1] == 1.0
        assert norm[2].tolist() == [0.0] * 5
