"""Smoothing at observed cells only, against the dense convolution over the
whole grid (``oracles.dense_encode_series``).

Pooling reads the fused series at observed cells only, so running the
convolution there alone must leave predictions and gradients unchanged.
"""

import numpy as np
import pytest

import imtscast.model as model_module
from imtscast.data import ImtsSample, RawSeries, align
from imtscast.model import ModelParams, conv_smooth, forward
from imtscast.tape import Tape
from imtscast.train import build_loss

from oracles import dense_conv_smooth, dense_encode_series
from test_chunks import close, config, draw_samples, targets_of


def conv_params(tape, channels, seed):
    rng = np.random.default_rng(seed)
    return {
        "conv.w1": tape.param("conv.w1", rng.standard_normal((channels, 3))),
        "conv.b1": tape.param("conv.b1", rng.standard_normal((channels, 1))),
        "conv.w2": tape.param("conv.w2", rng.standard_normal((1, channels))),
        "conv.b2": tape.param("conv.b2", rng.standard_normal((1, 1))),
    }


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
        sparse = conv_smooth(values, mask, p).data
        dense = dense_conv_smooth(tape.const(values), p).data
        observed = mask == 1.0
        assert np.abs(sparse[observed] - dense[observed]).max() < 1e-14
        assert np.all(sparse[~observed] == 0.0)

    def test_parameter_gradients_equal_dense_under_the_mask(self):
        rng = np.random.default_rng(1)
        mask = random_mask(rng, (4, 30), 0.2)
        values = rng.standard_normal(mask.shape) * mask
        probe = rng.standard_normal(mask.shape)
        grads = []
        for conv in (lambda tape, p: conv_smooth(values, mask, p),
                     lambda tape, p: dense_conv_smooth(tape.const(values), p)):
            tape = Tape()
            p = conv_params(tape, 3, seed=2)
            loss = (conv(tape, p) * tape.const(mask * probe)).sum()
            grads.append(tape.backward(loss))
        for name in grads[0]:
            assert close(grads[0][name], grads[1][name], 1e-12), name

    def test_no_observed_cell(self):
        tape = Tape()
        out = conv_smooth(np.zeros((2, 5)), np.zeros((2, 5)), conv_params(tape, 2, seed=3))
        assert out.data.shape == (2, 5)
        assert np.all(out.data == 0.0)


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
        res = forward(tape, model, [align(s) for s in samples], [s.query_times for s in samples])
        grads = tape.backward(build_loss(res, targets_of(samples)))
    return res.predictions.data.copy(), grads


CONFIGS = {
    "default": {},
    "heads1": dict(heads=1),
    "heads4": dict(heads=4),
    "blocks2": dict(blocks=2),
    "per_variate_time_norm": dict(per_variate_time_norm=True),
    "no_time_norm": dict(normalize_time=False),
    "no_pool_gate": dict(use_pool_gate=False),
    "no_preconv": dict(use_preconv=False),
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
