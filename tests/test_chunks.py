"""Chunked samples on one tape: padding, chunking and equivalence with
running every sample on its own tape."""

import gc
import weakref

import numpy as np
import pytest

from imtscast.config import TrainConfig
from imtscast.data import DataError, align, pad_chunk
from imtscast.datasets import PRESETS, generate
from imtscast.model import ModelParams, forward, linear_attention, tape_bytes
from imtscast.tape import Tape
from imtscast.train import CHUNK_TAPE_BYTES, build_loss, chunk_spans

from conftest import chunk_of, random_sample
from oracles import grid_triplet, zero_filled


def draw_samples(seed, variate_counts):
    """Random samples with the given variate counts, each with a query."""
    rng = np.random.default_rng(seed)
    out = []
    for n in variate_counts:
        while True:
            sample = random_sample(rng, max_variates=n, max_obs=9)
            if sample.n_variates == n and sum(q.size for q in sample.query_times):
                out.append(sample)
                break
    return out


def config(**kw):
    base = dict(hidden=16, heads=2, rff_dim=16, kernels=3, conv_channels=4,
                time_dim=6, blocks=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def targets_of(samples):
    return np.concatenate([t for s in samples for t in s.query_targets])


def run_chunk(model, samples):
    tape = Tape()
    res = forward(tape, model, *chunk_of(samples))
    loss = build_loss(res, targets_of(samples))
    return res, loss, tape.backward(loss)


def close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if not want.size:
        return True
    return float(np.abs(got - want).max()) <= tol * max(1.0, float(np.abs(want).max()))


CONFIGS = {
    "heads1": dict(heads=1),
    "heads2_blocks2": dict(heads=2, blocks=2),
    "heads4": dict(heads=4),
}


class TestChunkEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_chunked_gradients_equal_summed_per_sample(self, name):
        # A batch whose variate counts and grid lengths vary, split the way
        # training splits it.
        samples = draw_samples(len(name), [3, 3, 3, 2, 2, 3, 3, 1])
        model = ModelParams.init(config(**CONFIGS[name]), seed=3)
        counts = [sum(q.size for q in s.query_times) for s in samples]
        spans = chunk_spans([align(s) for s in samples], counts, model.cfg)
        assert len(spans) < len(samples)

        chunk_loss, chunk_grads = 0.0, {}
        for span in spans:
            _res, loss, grads = run_chunk(model, samples[span.start : span.stop])
            chunk_loss += float(loss.data)
            for key, g in grads.items():
                chunk_grads[key] = chunk_grads.get(key, 0.0) + g

        single_loss, single_grads = 0.0, {}
        for sample in samples:
            _res, loss, grads = run_chunk(model, [sample])
            single_loss += float(loss.data)
            for key, g in grads.items():
                single_grads[key] = single_grads.get(key, 0.0) + g

        assert close(chunk_loss, single_loss, 1e-10)
        assert set(chunk_grads) == set(model.arrays)
        for key in model.arrays:
            assert close(chunk_grads[key], single_grads[key], 1e-10), key

    @pytest.mark.parametrize("name", ["heads2_blocks2"])
    def test_chunk_predictions_equal_chunk_of_one(self, name):
        samples = draw_samples(11, [4] * 5)
        model = ModelParams.init(config(**CONFIGS[name]), seed=4)
        chunk, _loss, _grads = run_chunk(model, samples)
        assert chunk.samples == len(samples)
        per_variate = chunk.per_variate()
        degenerate = 0
        for b, sample in enumerate(samples):
            alone = forward(Tape(), model, align(sample), sample.query_times)
            degenerate += alone.stats["degenerate_rows"]
            assert close(np.concatenate(per_variate[b * 4 : (b + 1) * 4]),
                         alone.predictions.data.ravel(), 1e-12)
            for v, want in enumerate(alone.per_variate()):
                assert close(per_variate[b * 4 + v], want, 1e-12)
        assert chunk.stats["degenerate_rows"] == degenerate

    def test_degenerate_rows_are_counted_per_sample_row_and_head(self):
        # One frequency: keys at -400 and -390 have features s [0, 1] and 0,
        # and queries at 400 and 390 have features s [1, 0], so head 0's
        # denominators are 0 in a sample whose keys are all there. Sample 0
        # has them in head 0 only, sample 1 in neither head: a key sum (or a
        # key shift) that mixed the samples would collapse no row.
        q = np.array([[400.0, 0.3], [390.0, 0.7], [400.0, 0.3], [390.0, 0.7]])
        k = np.array([[-400.0, 0.0], [-390.0, 0.2], [0.0, 0.0], [0.5, 0.0]])
        v = np.ones((4, 2))
        omega = np.ones((1, 1))
        tape = Tape()
        chunked, alone = {}, {}
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v), omega,
                               stats=chunked, samples=2)
        for rows in (slice(0, 2), slice(2, 4)):
            single = linear_attention(tape.const(q[rows]), tape.const(k[rows]),
                                      tape.const(v[rows]), omega, stats=alone)
            assert close(out.data[rows], single.data, 1e-12)
        assert chunked["degenerate_rows"] == alone["degenerate_rows"] == 2

    def test_chunk_tape_is_freed_without_the_cycle_collector(self):
        samples = draw_samples(13, [2] * 3)
        model = ModelParams.init(config(), seed=6)
        gc.disable()
        try:
            tape = Tape()
            res = forward(tape, model, *chunk_of(samples))
            tape.backward(build_loss(res, targets_of(samples)))
            ref = weakref.ref(tape)
            del tape, res
            assert ref() is None
        finally:
            gc.enable()


def triplet(n, length):
    return grid_triplet(np.ones((n, length)), np.ones((n, length)),
                        np.arange(float(length))[None, :])


BUDGET_CFG = TrainConfig()


def estimate(triplets, counts):
    """``tape_bytes`` of the chunk the samples would form together."""
    return tape_bytes(BUDGET_CFG, len(triplets), triplets[0].n_variates,
                      max(t.grid_length for t in triplets),
                      sum(int(t.mask.sum()) for t in triplets), sum(counts))


def fitting(n, length, queries=0):
    """How many (n, length) samples with ``queries`` queries each fit the budget."""
    fit = 1
    while estimate([triplet(n, length)] * (fit + 1), [queries] * (fit + 1)) <= CHUNK_TAPE_BYTES:
        fit += 1
    return fit


class TestChunking:
    def test_order_kept_n_shared_and_budget_held(self):
        rng = np.random.default_rng(7)
        triplets = []
        for _ in range(200):
            trip = triplet(int(rng.integers(1, 4)), int(rng.integers(1, 2000)))
            # Sparse masks: the observed cells enter the budget, not the padded ones.
            # Drawn (L, N) as before the layout change, so the cells are the same.
            mask = (rng.uniform(size=trip.grid_shape[::-1]) < 0.5).T.astype(float)
            triplets.append(grid_triplet(zero_filled(trip) * mask, mask, trip.times))
        counts = [int(rng.integers(0, 20)) for _ in triplets]
        spans = chunk_spans(triplets, counts, BUDGET_CFG)
        assert [i for span in spans for i in span] == list(range(len(triplets)))
        assert any(len(span) > 2 for span in spans)
        for span, following in zip(spans, spans[1:] + [None]):
            members = triplets[span.start : span.stop]
            assert len(members) >= 1
            assert len({t.n_variates for t in members}) == 1
            own = counts[span.start : span.stop]
            assert len(members) == 1 or estimate(members, own) <= CHUNK_TAPE_BYTES
            if following is not None and triplets[span.stop].n_variates == members[0].n_variates:
                # Maximal: the next sample would have broken the budget.
                assert estimate(members + [triplets[span.stop]],
                                own + [counts[span.stop]]) > CHUNK_TAPE_BYTES

    def test_chunks_are_maximal(self):
        # ``fit`` samples fill the budget; the next opens a new chunk, as
        # does a change of variate count.
        fit = fitting(4, 128)
        assert fit > 2
        triplets = [triplet(4, 128)] * (fit + 1) + [triplet(2, 128)] * 2
        assert chunk_spans(triplets, [0] * len(triplets), BUDGET_CFG) == [
            range(0, fit), range(fit, fit + 1), range(fit + 1, fit + 3)]

    def test_queries_count_toward_the_budget(self):
        fit = fitting(4, 128)
        assert fitting(4, 128, queries=200) < fit
        triplets = [triplet(4, 128)] * fit
        assert chunk_spans(triplets, [200] * fit, BUDGET_CFG)[0] == range(0, fitting(4, 128, 200))

    def test_oversized_sample_forms_a_chunk_of_one(self):
        big = 3
        while estimate([triplet(2, big)], [0]) <= CHUNK_TAPE_BYTES:
            big *= 2
        triplets = [triplet(2, 3), triplet(2, big), triplet(2, 3), triplet(2, 3)]
        assert chunk_spans(triplets, [0] * 4, BUDGET_CFG) == [
            range(0, 1), range(1, 2), range(2, 4)]

    def test_a_sinusoid_a_batch_is_one_chunk(self):
        # The reference task's 32-sample batches each run as one chunk.
        samples = generate(PRESETS["sinusoid-a"])[:320]
        triplets = [align(s) for s in samples]
        counts = [sum(q.size for q in s.query_times) for s in samples]
        for lo in range(0, len(samples), 32):
            batch = slice(lo, lo + 32)
            assert chunk_spans(triplets[batch], counts[batch], BUDGET_CFG) == [range(0, 32)]

    def test_empty_batch_has_no_chunks(self):
        assert chunk_spans([], [], BUDGET_CFG) == []


class TestPadding:
    def test_rows_are_sample_major_and_padded_cells_masked(self):
        samples = draw_samples(8, [3, 3])
        triplets = [align(s) for s in samples]
        chunk = pad_chunk(triplets)
        length = max(t.grid_length for t in triplets)
        values = zero_filled(chunk)
        assert values.shape == chunk.mask.shape == (6, length)
        assert chunk.times.shape == (2, length)
        for b, t in enumerate(triplets):
            rows = slice(3 * b, 3 * b + 3)
            assert np.array_equal(values[rows, : t.grid_length], zero_filled(t))
            assert np.array_equal(chunk.mask[rows, : t.grid_length], t.mask)
            assert np.all(values[rows, t.grid_length :] == 0.0)
            assert np.all(chunk.mask[rows, t.grid_length :] == 0.0)
            assert np.array_equal(chunk.times[b, : t.grid_length], t.times[0])
            assert np.all(chunk.times[b, t.grid_length :] == t.times[0, -1])

    def test_a_lone_block_is_returned_as_it_is(self):
        block = align(draw_samples(8, [3])[0])
        assert pad_chunk([block]) is block

    def test_mixed_variate_counts_rejected(self):
        with pytest.raises(DataError, match="same variate count"):
            pad_chunk([triplet(2, 3), triplet(3, 3)])
