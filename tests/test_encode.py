"""Encoding at observed cells only, against the dense convolution and
time encoding over the whole grid (``oracles.dense_encode_series``).

Encoding forms the fused series at the observed cells alone and leaves 0
at every other cell. The oracle convolves and encodes every cell and then
multiplies by the mask, so predictions and gradients must be unchanged.
"""

import numpy as np
import pytest

import imtscast.model as model_module
from imtscast.data import ImtsSample, RawSeries
from imtscast.model import ModelParams, _smoothing_layers, encode_series, forward
from imtscast.tape import Tape
from imtscast.train import build_loss

from conftest import bind, chunk_of
from oracles import dense_conv_smooth, dense_encode_series, grid_triplet
from test_chunks import close, config, draw_samples, targets_of


def conv_params(tape, channels, seed):
    """The conv's parameters, and a time encoding whose projection is 0."""
    rng = np.random.default_rng(seed)
    return bind(tape, **{
        "conv.w1": rng.standard_normal((channels, 3)),
        "conv.b1": rng.standard_normal((channels, 1)),
        "conv.w2": rng.standard_normal((1, channels)),
        "conv.b2": rng.standard_normal((1, 1)),
        "te.w_s": rng.standard_normal((1, 1)), "te.b_s": rng.standard_normal((1, 1)),
        "te.w_f": rng.standard_normal((1, 2)), "te.b_f": rng.standard_normal((1, 2)),
        "te.w_t": np.zeros((5, 1)),
    })


def smooth(block, p):
    """Both conv layers at the observed cells of ``block``: (1, P)."""
    return _smoothing_layers(block.taps, p["conv.w1"], p["conv.b1"], p["conv.w2"], p["conv.b2"])


def encoded(block, p):
    """``encode_series`` of ``block``; under ``conv_params`` the time
    projection is 0, so this is the conv's output placed on the grid."""
    return encode_series(block, p["conv.w1"].tape, p)


def random_mask(rng, shape, density):
    mask = (rng.uniform(size=shape) < density).astype(float)
    mask[0, 0] = mask[-1, -1] = 1.0   # first and last grid column observed
    mask[1 % shape[0], :2] = 1.0      # two adjacent observed cells
    mask[-1, 1:-1] = 0.0              # a row with only its end cells
    return mask


class TestObservedCellConvolution:
    @pytest.mark.parametrize("shape,density", [((1, 1), 1.0), ((3, 7), 0.4), ((5, 40), 0.1),
                                               ((2, 9), 1.0)])
    def test_equals_dense_at_observed_cells_and_zero_elsewhere(self, shape, density):
        rng = np.random.default_rng(shape[1])
        mask = random_mask(rng, shape, density)
        values = rng.standard_normal(shape) * mask   # zero-filled, as ``align`` leaves it
        tape = Tape()
        p = conv_params(tape, 4, seed=shape[0])
        block = grid_triplet(values, mask)
        sparse = smooth(block, p).data[0]
        dense = dense_conv_smooth(tape.const(values), p).data
        assert np.abs(sparse - dense.reshape(-1)[block.cells]).max() < 1e-14
        fused = encoded(block, p).data.reshape(shape)
        observed = mask == 1.0
        assert np.array_equal(fused[observed], sparse)
        assert np.all(fused[~observed] == 0.0)

    def test_parameter_gradients_equal_dense_under_the_mask(self):
        rng = np.random.default_rng(1)
        mask = random_mask(rng, (4, 30), 0.2)
        values = rng.standard_normal(mask.shape) * mask
        probe = rng.standard_normal(mask.shape)
        block = grid_triplet(values, mask)
        grads = []
        at_cells = probe.reshape(1, -1)[:, block.cells]
        for conv in (lambda tape, p: smooth(block, p) * tape.const(at_cells),
                     lambda tape, p: dense_conv_smooth(tape.const(values), p)
                     * tape.const(mask * probe)):
            tape = Tape()
            p = conv_params(tape, 3, seed=2)
            grads.append(tape.backward(conv(tape, p).sum()))
        for name in grads[0]:
            assert close(grads[0][name], grads[1][name], 1e-12), name

    def test_no_observed_cell(self):
        tape = Tape()
        block = grid_triplet(np.zeros((2, 5)), np.zeros((2, 5)))
        p = conv_params(tape, 2, seed=3)
        assert smooth(block, p).data.shape == (1, 0)
        out = encoded(block, p)
        assert out.data.shape == (1, 2, 5)
        assert np.all(out.data == 0.0)
        grads = tape.backward((out * tape.const(np.ones((1, 2, 5)))).sum())
        assert all(np.all(g == 0.0) for g in grads.values())


def sample(series, query_at=12.0):
    """A sample from (times, values) pairs, one query per variate."""
    raws = [RawSeries(variate_id=v + 1, times=np.asarray(t, dtype=float),
                      values=np.asarray(x, dtype=float))
            for v, (t, x) in enumerate(series)]
    n = len(raws)
    return ImtsSample(sample_id=0, series=tuple(raws),
                      query_times=tuple(np.array([query_at + v]) for v in range(n)),
                      query_targets=tuple(np.array([0.1 * v]) for v in range(n)))


# Hand-made samples for the grid's edge cases: an empty variate, the first
# and the last grid column observed, runs of adjacent observed cells, and a
# variate observed at one cell only.
EDGE_SAMPLES = [
    sample([([0.0, 1.0, 2.0], [1.0, -2.0, 0.5]), ([], []), ([2.5, 9.0], [0.3, 0.7])]),
    sample([([0.5], [2.0]), ([0.5, 0.6, 0.7, 9.5], [1.0, 1.1, 1.2, -1.0]), ([9.5], [3.0])]),
    sample([([3.0, 4.0], [0.2, -0.2]), ([], []), ([0.1, 3.0, 4.0, 8.0], [1.0, 2.0, 3.0, 4.0])]),
]


def chunk_result(model, samples, dense, monkeypatch):
    """Predictions and parameter gradients of one chunk, with the dense
    oracle patched in for ``encode_series`` when ``dense`` is set."""
    with monkeypatch.context() as patch:
        if dense:
            patch.setattr(model_module, "encode_series", dense_encode_series)
        tape = Tape()
        res = forward(tape, model, *chunk_of(samples))
        grads = tape.backward(build_loss(res, targets_of(samples)))
    return res.predictions.data.copy(), grads


CONFIGS = {
    "default": {},
    "heads1": dict(heads=1),
    "heads4": dict(heads=4),
    "blocks2": dict(blocks=2),
}


class TestForwardMatchesDenseOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_random_chunks(self, name, monkeypatch):
        # Chunks of samples with differing grid lengths, so most rows carry
        # a padded tail; random_sample also draws empty variates.
        model = ModelParams.init(config(**CONFIGS[name]), seed=5)
        for seed, counts in ((21, [3] * 4), (22, [2] * 5), (23, [4, 4])):
            samples = draw_samples(seed + len(name), counts)
            got_pred, got_grads = chunk_result(model, samples, False, monkeypatch)
            want_pred, want_grads = chunk_result(model, samples, True, monkeypatch)
            assert close(got_pred, want_pred, 1e-10)
            for key in model.arrays:
                assert np.isfinite(got_grads[key]).all(), key
                assert close(got_grads[key], want_grads[key], 1e-10), key

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_edge_samples(self, name, monkeypatch):
        model = ModelParams.init(config(**CONFIGS[name]), seed=6)
        for chunk in [[s] for s in EDGE_SAMPLES] + [EDGE_SAMPLES]:
            got_pred, got_grads = chunk_result(model, chunk, False, monkeypatch)
            want_pred, want_grads = chunk_result(model, chunk, True, monkeypatch)
            assert close(got_pred, want_pred, 1e-10)
            for key in model.arrays:
                assert close(got_grads[key], want_grads[key], 1e-10), key
