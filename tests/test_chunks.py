"""Chunked samples on one tape: padding, chunking and equivalence with
running every sample on its own tape."""

import gc
import weakref

import numpy as np
import pytest

from imtscast.config import TrainConfig
from imtscast.data import AlignedTriplet, DataError, align, pad_chunk, pad_columns
from imtscast.model import ModelParams, forward, linear_attention, softmax_attention
from imtscast.tape import Tape
from imtscast.train import CHUNK_CELLS, build_loss, chunk_spans, sample_losses

from conftest import random_sample


def draw_samples(seed, variate_counts):
    """Random samples with the given variate counts, each with a query."""
    rng = np.random.default_rng(seed)
    out = []
    for n in variate_counts:
        while True:
            sample = random_sample(rng, max_variates=n, max_obs=9)
            if sample.n_variates == n and sum(sample.query_counts()):
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
    res = forward(tape, model, [align(s) for s in samples], [s.query_times for s in samples])
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
    "per_variate_time_norm": dict(per_variate_time_norm=True),
    "no_time_norm": dict(normalize_time=False),
    "no_preconv": dict(use_preconv=False),
    "no_pool_gate": dict(use_pool_gate=False),
    "softmax": dict(softmax_attention=True),
}


class TestChunkEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_chunked_gradients_equal_summed_per_sample(self, name):
        # A batch whose variate counts and grid lengths vary, split the way
        # training splits it.
        samples = draw_samples(len(name), [3, 3, 3, 2, 2, 3, 3, 1])
        model = ModelParams.init(config(**CONFIGS[name]), seed=3)
        spans = chunk_spans([align(s) for s in samples])
        assert len(spans) < len(samples)

        chunk_loss, chunk_grads, chunk_per_sample = 0.0, {}, []
        for span in spans:
            members = samples[span.start : span.stop]
            res, loss, grads = run_chunk(model, members)
            chunk_loss += float(loss.data)
            chunk_per_sample.extend(sample_losses(res, targets_of(members)))
            for key, g in grads.items():
                chunk_grads[key] = chunk_grads.get(key, 0.0) + g

        single_loss, single_grads, single_per_sample = 0.0, {}, []
        for sample in samples:
            _res, loss, grads = run_chunk(model, [sample])
            single_loss += float(loss.data)
            single_per_sample.append(float(loss.data))
            for key, g in grads.items():
                single_grads[key] = single_grads.get(key, 0.0) + g

        assert close(chunk_loss, single_loss, 1e-10)
        assert close(chunk_per_sample, single_per_sample, 1e-10)
        assert set(chunk_grads) == set(model.arrays)
        for key in model.arrays:
            assert close(chunk_grads[key], single_grads[key], 1e-10), key

    @pytest.mark.parametrize("name", ["heads2_blocks2", "softmax", "per_variate_time_norm"])
    def test_chunk_predictions_equal_chunk_of_one(self, name):
        samples = draw_samples(11, [4] * 5)
        model = ModelParams.init(config(**CONFIGS[name]), seed=4)
        chunk, _loss, _grads = run_chunk(model, samples)
        assert chunk.samples == len(samples)
        per_sample = chunk.per_sample()
        per_variate = chunk.per_variate()
        degenerate = 0
        for b, sample in enumerate(samples):
            alone = forward(Tape(), model, align(sample), sample.query_times)
            degenerate += alone.stats["degenerate_rows"]
            assert close(per_sample[b], alone.predictions.data.ravel(), 1e-12)
            for v, want in enumerate(alone.per_variate()):
                assert close(per_variate[b * 4 + v], want, 1e-12)
        assert chunk.stats["degenerate_rows"] == degenerate

    def test_degenerate_rows_are_counted_per_sample_row_and_head(self):
        # One frequency, no phase: keys 0 and pi have opposite features, so
        # head 0's denominators are roundoff in a sample holding both keys.
        # Sample 0 holds them in head 0 only, sample 1 in neither head.
        q = np.array([[0.3, 0.3], [0.7, 0.7], [0.3, 0.3], [0.7, 0.7]])
        k = np.array([[0.0, 0.0], [np.pi, 0.0], [0.0, 0.0], [0.0, 0.0]])
        v = np.ones((4, 2))
        omega, phase = np.ones((1, 1)), np.zeros((1, 1))
        tape = Tape()
        chunked, alone = {}, {}
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v), tape.const(omega),
                               tape.const(phase), stats=chunked, samples=2)
        for rows in (slice(0, 2), slice(2, 4)):
            single = linear_attention(tape.const(q[rows]), tape.const(k[rows]),
                                      tape.const(v[rows]), tape.const(omega),
                                      tape.const(phase), stats=alone)
            assert close(out.data[rows], single.data, 1e-12)
        assert chunked["degenerate_rows"] == alone["degenerate_rows"] == 2

    def test_softmax_ablation_matches_per_sample_and_head_numpy(self):
        rng = np.random.default_rng(9)
        samples, n, heads, d_head = 2, 3, 2, 4
        q, k, v = (rng.standard_normal((samples * n, heads * d_head)) for _ in range(3))
        tape = Tape()
        out = softmax_attention(tape.const(q), tape.const(k), tape.const(v), heads,
                                samples=samples).data
        for b in range(samples):
            rows = slice(b * n, (b + 1) * n)
            for h in range(heads):
                cols = slice(h * d_head, (h + 1) * d_head)
                scores = q[rows, cols] @ k[rows, cols].T / np.sqrt(d_head)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                assert close(out[rows, cols], weights @ v[rows, cols], 1e-12)

    def test_chunk_tape_is_freed_without_the_cycle_collector(self):
        samples = draw_samples(13, [2] * 3)
        model = ModelParams.init(config(), seed=6)
        gc.disable()
        try:
            tape = Tape()
            res = forward(tape, model, [align(s) for s in samples],
                          [s.query_times for s in samples])
            tape.backward(build_loss(res, targets_of(samples)))
            ref = weakref.ref(tape)
            del tape, res
            assert ref() is None
        finally:
            gc.enable()


def triplet(n, length):
    return AlignedTriplet(times=np.arange(float(length)), values=np.ones((length, n)),
                          mask=np.ones((length, n)))


class TestChunking:
    def test_order_kept_n_shared_and_budget_held(self):
        rng = np.random.default_rng(7)
        triplets = [triplet(int(rng.integers(1, 4)), int(rng.integers(1, 2000)))
                    for _ in range(200)]
        spans = chunk_spans(triplets)
        assert [i for span in spans for i in span] == list(range(len(triplets)))
        for span in spans:
            members = triplets[span.start : span.stop]
            assert len(members) >= 1
            assert len({t.n_variates for t in members}) == 1
            cells = len(members) * members[0].n_variates * max(t.grid_length for t in members)
            assert len(members) == 1 or cells <= CHUNK_CELLS

    def test_chunks_are_maximal(self):
        # 16 samples of 512 cells fill the budget exactly; the 17th opens a
        # new chunk, as does a change of variate count.
        triplets = [triplet(4, 128)] * 17 + [triplet(2, 128)] * 2
        assert chunk_spans(triplets) == [range(0, 16), range(16, 17), range(17, 19)]

    def test_oversized_sample_forms_a_chunk_of_one(self):
        big = CHUNK_CELLS // 2 + 1
        triplets = [triplet(2, 3), triplet(2, big), triplet(2, 3), triplet(2, 3)]
        assert chunk_spans(triplets) == [range(0, 1), range(1, 2), range(2, 4)]

    def test_empty_batch_has_no_chunks(self):
        assert chunk_spans([]) == []


class TestPadding:
    def test_rows_are_sample_major_and_padded_cells_masked(self):
        samples = draw_samples(8, [3, 3])
        triplets = [align(s) for s in samples]
        chunk = pad_chunk(triplets)
        length = max(t.grid_length for t in triplets)
        assert chunk.values.shape == chunk.mask.shape == (6, length)
        assert chunk.times.shape == (2, length)
        for b, t in enumerate(triplets):
            rows = slice(3 * b, 3 * b + 3)
            assert np.array_equal(chunk.values[rows, : t.grid_length], t.values.T)
            assert np.array_equal(chunk.mask[rows, : t.grid_length], t.mask.T)
            assert np.all(chunk.values[rows, t.grid_length :] == 0.0)
            assert np.all(chunk.mask[rows, t.grid_length :] == 0.0)
            assert np.array_equal(chunk.times[b, : t.grid_length], t.times)
            assert np.all(chunk.times[b, t.grid_length :] == t.times[-1])

    def test_pad_columns_repeats_each_blocks_last_row(self):
        out = pad_columns([np.array([[1.0], [2.0]]), np.array([[5.0, 6.0]])], 3)
        assert out.tolist() == [[1.0, 5.0, 6.0], [2.0, 5.0, 6.0], [2.0, 5.0, 6.0]]

    def test_mixed_variate_counts_rejected(self):
        with pytest.raises(DataError, match="same variate count"):
            pad_chunk([triplet(2, 3), triplet(3, 3)])
