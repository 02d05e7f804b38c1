import json

import numpy as np
import pytest

import imtscast.tape as T
from imtscast.config import TrainConfig
from imtscast.data import AlignedTriplet, DataError, align, pad_chunk
from imtscast.datasets import PRESETS, generate
from imtscast.fourier import dft_matrices
from imtscast.model import (
    ModelParams,
    _attend,
    _kernel_weights,
    _smoothing_layers,
    attention_block,
    attention_maps,
    conv_smooth,
    encode_series,
    expected_param_count,
    forward,
    linear_attention,
    pool_all,
    rff_features,
    tape_bytes,
    time_encode,
)
from imtscast.tape import Tape, flat_views, grad_check
from imtscast.train import build_loss

from conftest import bind, chunk_of, random_sample, retained_bytes
from oracles import (
    chain_attend,
    chain_kernel_weights,
    chain_time_encode,
    cos,
    pool_coefficients,
    pool_summary,
    sin,
    transpose,
)


def bound_params(model, tape):
    return model.bind(tape)


def make_te_params(tape, d_te, w_p=None, zero=False):
    n_sin = (d_te - 1) // 2
    n_cos = d_te - 1 - n_sin
    rng = np.random.default_rng(0)

    def arr(shape, fan):
        if zero:
            return np.zeros(shape)
        return rng.uniform(-1, 1, size=shape) / np.sqrt(fan)

    return {
        "te.w_s": tape.const(arr((1, 1), 1)),
        "te.b_s": tape.const(np.zeros((1, 1))),
        "te.w_p": tape.const(w_p if w_p is not None else arr((1, n_sin), 1)),
        "te.b_p": tape.const(np.zeros((1, n_sin))),
        "te.w_c": tape.const(arr((1, n_cos), 1)),
        "te.b_c": tape.const(np.zeros((1, n_cos))),
    }


class TestTimeEncoding:
    def test_zero_time_zero_biases(self):
        tape = Tape()
        p = make_te_params(tape, d_te=7)
        out = time_encode(tape.const([[0.0]]), p).data[0]
        n_sin = 3
        assert out[0] == 0.0
        assert np.all(out[1 : 1 + n_sin] == 0.0)
        assert np.all(out[1 + n_sin :] == 1.0)

    def test_periodic_branches_bounded(self):
        tape = Tape()
        p = make_te_params(tape, d_te=9)
        t = np.linspace(-50, 50, 101)[:, None]
        out = time_encode(tape.const(t), p).data
        assert np.all(np.abs(out[:, 1:]) <= 1.0)

    def test_quarter_period_sin_entry(self):
        tape = Tape()
        p = make_te_params(tape, d_te=3, w_p=np.array([[np.pi / 2]]))
        out = time_encode(tape.const([[1.0]]), p).data[0]
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestConvSmoothing:
    def conv_params(self, tape, channels, zero_bias=True, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "conv.w1": tape.const(rng.standard_normal((channels, 3))),
            "conv.b1": tape.const(np.zeros((channels, 1)) if zero_bias
                                  else rng.standard_normal((channels, 1))),
            "conv.w2": tape.const(rng.standard_normal((1, channels))),
            "conv.b2": tape.const(np.zeros((1, 1)) if zero_bias
                                  else rng.standard_normal((1, 1))),
        }

    def test_zero_input_zero_biases_gives_zero(self):
        tape = Tape()
        p = self.conv_params(tape, channels=4)
        p.update(make_te_params(tape, d_te=5, zero=True))
        p["te.w_t"] = tape.const(np.zeros((5, 1)))
        out = encode_series(tape.const(np.zeros((2, 6))), tape.const(np.zeros((6, 1))),
                            np.ones((2, 6)), p)
        assert np.all(out.data == 0.0)

    def test_length_one_sees_zero_padding(self):
        tape = Tape()
        p = self.conv_params(tape, channels=3, zero_bias=False, seed=1)
        value = 1.7
        out = conv_smooth(np.array([[value]]), np.ones((1, 1)), p).data
        w1 = p["conv.w1"].data
        hidden = np.maximum(w1[:, 1] * value + p["conv.b1"].data[:, 0], 0.0)
        expected = p["conv.w2"].data[0] @ hidden + p["conv.b2"].data[0, 0]
        assert out[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_matches_direct_convolution_sum(self):
        rng = np.random.default_rng(2)
        length, channels = 7, 4
        x = rng.standard_normal((1, length))
        tape = Tape()
        p = self.conv_params(tape, channels, zero_bias=False, seed=3)
        out = conv_smooth(x, np.ones_like(x), p).data[0]

        w1, b1 = p["conv.w1"].data, p["conv.b1"].data[:, 0]
        w2, b2 = p["conv.w2"].data[0], p["conv.b2"].data[0, 0]
        padded = np.concatenate([[0.0], x[0], [0.0]])
        expected = np.empty(length)
        for pos in range(length):
            acc = np.zeros(channels)
            for c in range(channels):
                for k in range(3):
                    acc[c] += w1[c, k] * padded[pos + k]
                acc[c] += b1[c]
            expected[pos] = w2 @ np.maximum(acc, 0.0) + b2
        assert np.abs(out - expected).max() < 1e-12

    def test_same_filters_for_every_variate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 9))
        tape = Tape()
        p = self.conv_params(tape, channels=2, zero_bias=False, seed=5)
        stacked = conv_smooth(x, np.ones_like(x), p).data
        for row in range(3):
            single = conv_smooth(x[row : row + 1], np.ones((1, 9)), p).data
            assert np.abs(stacked[row] - single[0]).max() < 1e-14


def pool_params(tape, k, d=None, seed=0):
    rng = np.random.default_rng(seed)
    p = {
        "pool.centers": tape.const(np.linspace(0, 1, k)[None, :]),
        "pool.log_alpha": tape.const(np.log(rng.uniform(0.2, 1.0, size=(1, k)))),
        "pool.gate": tape.const(rng.standard_normal((1, k))),
    }
    if d is not None:
        p["pool.w_proj"] = tape.const(rng.standard_normal((k + 1, d)))
    return p


class TestKernelPooling:
    def test_single_observed_point_normalizes_each_column(self):
        tape = Tape()
        p = pool_params(tape, k=2)
        coeffs = pool_coefficients(tape.const([[0.3]]), tape.const([[1.0]]), p)
        assert np.allclose(coeffs.data, [[1.0, 1.0]], atol=1e-15)

    def test_masked_rows_contribute_nothing(self):
        tape = Tape()
        p = pool_params(tape, k=3)
        t = np.linspace(0, 1, 5)[:, None]
        mask = np.array([[1.0], [0.0], [1.0], [0.0], [1.0]])
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p).data
        assert np.all(coeffs[mask[:, 0] == 0.0] == 0.0)

    def test_columns_sum_to_one_and_match_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        tape = Tape()
        k = 4
        p = pool_params(tape, k=k, seed=7)
        t = np.sort(rng.uniform(0, 1, size=11))[:, None]
        mask = (rng.uniform(size=(11, 1)) < 0.6).astype(float)
        mask[3, 0] = 1.0
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p).data
        assert np.abs(coeffs.sum(axis=0) - 1.0).max() < 1e-12

        centers = p["pool.centers"].data[0]
        sigma = np.exp(p["pool.log_alpha"].data[0])
        expected = np.zeros((11, k))
        for l in range(11):
            for j in range(k):
                expected[l, j] = (
                    np.exp(-0.5 * (t[l, 0] - centers[j]) ** 2 / sigma[j] ** 2) * mask[l, 0]
                )
        expected /= expected.sum(axis=0, keepdims=True)
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_constant_signal_is_a_fixed_point(self):
        # Coefficients are a convex combination over observed rows, so a
        # constant series pools to that constant for every kernel.
        rng = np.random.default_rng(8)
        tape = Tape()
        p = pool_params(tape, k=5, seed=9)
        t = np.sort(rng.uniform(0, 1, size=9))[:, None]
        mask = np.ones((9, 1))
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p)
        pooled = (transpose(coeffs) @ tape.const(np.full((9, 1), 2.75))).data
        assert np.abs(pooled - 2.75).max() < 1e-12

    def test_empty_variate_flag_and_zero_summary(self):
        tape = Tape()
        k, d = 3, 8
        p = pool_params(tape, k=k, d=d, seed=10)
        t = np.linspace(0, 1, 4)[:, None]
        mask = np.zeros((4, 1))
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p)
        assert np.all(coeffs.data == 0.0)
        z = pool_summary(tape.const(np.ones((4, 1))), coeffs, tape.const(mask), p)
        assert z.data.shape == (1, d)
        assert np.all(z.data == 0.0)  # zero pooled values, zero flag, no bias

    @pytest.mark.parametrize("length", [1, 10, 100])
    def test_summary_width_independent_of_grid_length(self, length):
        rng = np.random.default_rng(length)
        tape = Tape()
        d = 12
        p = pool_params(tape, k=4, d=d, seed=11)
        t = np.sort(rng.uniform(0, 1, size=length))[:, None]
        mask = np.ones((length, 1))
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p)
        z = pool_summary(tape.const(rng.standard_normal((length, 1))), coeffs,
                         tape.const(mask), p)
        assert z.data.shape == (1, d)

    def test_summary_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        k, d, length = 8, 32, 13
        tape = Tape()
        p = pool_params(tape, k=k, d=d, seed=13)
        t = np.sort(rng.uniform(0, 1, size=length))[:, None]
        mask = (rng.uniform(size=(length, 1)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        x = rng.standard_normal((length, 1))
        coeffs = pool_coefficients(tape.const(t), tape.const(mask), p)
        z = pool_summary(tape.const(x), coeffs, tape.const(mask), p).data[0]

        a = coeffs.data
        gate = 1.0 / (1.0 + np.exp(-p["pool.gate"].data[0]))
        pooled = np.zeros(k)
        for j in range(k):
            for l in range(length):
                pooled[j] += a[l, j] * x[l, 0]
        gated = np.concatenate([pooled * gate, [1.0]])
        expected = np.zeros(d)
        for col in range(d):
            for j in range(k + 1):
                expected[col] += gated[j] * p["pool.w_proj"].data[j, col]
        assert np.abs(z - expected).max() < 1e-12

    def test_vectorized_pooling_equals_per_variate_composition(self):
        rng = np.random.default_rng(14)
        n, length, k, d = 4, 9, 3, 6
        tape = Tape()
        p = pool_params(tape, k=k, d=d, seed=15)
        xhat = tape.const(rng.standard_normal((n, length)))
        mask_rows = (rng.uniform(size=(n, length)) < 0.6).astype(float)
        mask_rows[2] = 0.0  # one empty variate
        t_norm = np.sort(rng.uniform(0, 1, size=(1, length)))
        z_fast = pool_all(xhat.reshape((1, n, length)), mask_rows, t_norm, p).data
        for v in range(n):
            coeffs = pool_coefficients(tape.const(t_norm.T),
                                       tape.const(mask_rows[v][:, None]), p)
            z_slow = pool_summary(transpose(xhat[v : v + 1, :]), coeffs,
                                  tape.const(mask_rows[v][:, None]), p).data
            assert np.abs(z_fast[v] - z_slow[0]).max() < 1e-12


class TestRandomFeatures:
    def feature_draw(self, d_h, r, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((d_h, r // 2)), rng.uniform(0, 2 * np.pi, (1, r // 2))

    def test_feature_norm_is_exactly_half(self):
        tape = Tape()
        omega, phase = self.feature_draw(6, 32, seed=1)
        x = np.random.default_rng(2).standard_normal((10, 6))
        phi = rff_features(tape.const(x), tape.const(omega), tape.const(phase)).data
        assert np.abs((phi * phi).sum(axis=1) - 0.5).max() < 1e-12

    def test_inner_products_ignore_the_phase_draw(self):
        tape = Tape()
        omega, _ = self.feature_draw(5, 64, seed=3)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
        dots = []
        for phase_seed in (5, 6):
            phase = np.random.default_rng(phase_seed).uniform(0, 2 * np.pi, (1, 32))
            px = rff_features(tape.const(x), tape.const(omega), tape.const(phase)).data
            py = rff_features(tape.const(y), tape.const(omega), tape.const(phase)).data
            dots.append((px @ py.T).item())
        assert abs(dots[0] - dots[1]) < 1e-12

    def test_inner_product_equals_cosine_average(self):
        tape = Tape()
        omega, phase = self.feature_draw(4, 16, seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        px = rff_features(tape.const(x), tape.const(omega), tape.const(phase)).data
        py = rff_features(tape.const(y), tape.const(omega), tape.const(phase)).data
        expected = np.cos((x - y) @ omega).sum() / 16
        assert (px @ py.T).item() == pytest.approx(expected, abs=1e-12)

    def test_fused_feature_map_gradients(self):
        omega, phase = self.feature_draw(3, 8, seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3))
        probe = rng.standard_normal((4, 8))
        flat, views = flat_views({"x": x, "omega": omega, "phase": phase})

        def build(tape):
            p = tape.param_vector(flat, views)
            return (rff_features(p["x"], p["omega"], p["phase"]) * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    @pytest.mark.parametrize("r", [16, 12])
    def test_output_based_adjoint_equals_the_primitive_composition(self, r):
        # The VJP reads d cos = -sin and d sin = cos off the scaled output,
        # which re-associates the 1/sqrt(R) scaling: bitwise when that is a
        # power of two (R = 16), within 1e-12 relative otherwise.
        omega, phase = self.feature_draw(3, r, seed=11)
        rng = np.random.default_rng(12)
        x, probe = rng.standard_normal((5, 3)), rng.standard_normal((5, r))

        def composed(t):
            proj = t @ omega + phase
            return T.concat([cos(proj), sin(proj)], axis=1) * (1.0 / np.sqrt(r))

        outs, grads = [], []
        for fn in (lambda t: rff_features(t, t.tape.const(omega), t.tape.const(phase)),
                   composed):
            tape = Tape()
            out = fn(bind(tape, x=x)["x"])
            outs.append(out.data)
            grads.append(tape.backward((out * tape.const(probe)).sum())["x"])
        assert np.array_equal(outs[0], outs[1])
        if r == 16:
            assert np.array_equal(grads[0], grads[1])
        assert np.abs(grads[0] - grads[1]).max() <= 1e-12 * np.abs(grads[1]).max()


class TestRecomputeNodes:
    """The fused nodes that recompute an intermediate in backward instead of
    keeping it: finite-difference checks of every input, and outputs and
    adjoints bitwise equal to the primitives they replace. The time encoding
    and the kernel weights are gradchecked in the tape's primitive table."""

    def smoothing_inputs(self, seed):
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal((3, 7))
        return taps, {"w1": rng.standard_normal((4, 3)), "b1": rng.standard_normal((4, 1)),
                      "w2": rng.standard_normal((1, 4)), "b2": rng.standard_normal((1, 1))}

    def attend_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"fq": rng.standard_normal((2, 5, 2, 6)), "fk": rng.standard_normal((2, 5, 2, 6)),
                "values": rng.standard_normal((2, 5, 2, 3))}

    def time_inputs(self, seed):
        rng = np.random.default_rng(seed)
        widths = {"te.w_s": 1, "te.b_s": 1, "te.w_p": 3, "te.b_p": 3, "te.w_c": 4, "te.b_c": 4}
        return (rng.uniform(-3.0, 12.0, (9, 1)),
                {name: rng.standard_normal((1, w)) for name, w in widths.items()})

    def kernel_inputs(self, seed):
        rng = np.random.default_rng(seed)
        t_norm = np.sort(rng.uniform(0.0, 1.0, (2, 7)), axis=1)[:, :, None]
        return t_norm, {"pool.log_alpha": np.log(rng.uniform(0.05, 1.0, (1, 5)))}

    def test_smoothing_layers_gradients(self):
        taps, params = self.smoothing_inputs(0)
        probe = np.random.default_rng(1).standard_normal((1, 7))
        flat, views = flat_views(params)

        def build(tape):
            b = tape.param_vector(flat, views)
            out = _smoothing_layers(taps, b["w1"], b["b1"], b["w2"], b["b2"])
            return (out * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
        assert report.ok, report.lines()

    def test_attend_gradients(self):
        flat, views = flat_views(self.attend_inputs(2))
        probe = np.random.default_rng(3).standard_normal((2, 5, 2, 4))

        def build(tape):
            b = tape.param_vector(flat, views)
            return (_attend(b["fq"], b["fk"], b["values"]) * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
        assert report.ok, report.lines()

    def fused_and_unfused(self, node):
        """(parameter arrays, fused node, the primitive chain it replaces)."""
        centers = np.linspace(0.0, 1.0, 5)[None, :]

        def with_centers(b):
            tape = b["pool.log_alpha"].tape
            return {**b, "pool.centers": tape.const(centers)}

        if node == "smoothing_layers":
            taps, params = self.smoothing_inputs(4)
            return (params,
                    lambda b: _smoothing_layers(taps, b["w1"], b["b1"], b["w2"], b["b2"]),
                    lambda b: (b["w2"] @ T.relu(b["w1"] @ b["w1"].tape.const(taps) + b["b1"])
                               + b["b2"]))
        if node == "attend":
            return (self.attend_inputs(5),
                    lambda b: _attend(b["fq"], b["fk"], b["values"]),
                    lambda b: chain_attend(b["fq"], b["fk"], b["values"]))
        if node == "time_encode":
            times, params = self.time_inputs(6)
            return (params,
                    lambda b: time_encode(b["te.w_s"].tape.const(times), b),
                    lambda b: chain_time_encode(b["te.w_s"].tape.const(times), b))
        t_norm, params = self.kernel_inputs(7)
        return (params,
                lambda b: _kernel_weights(t_norm, with_centers(b)),
                lambda b: chain_kernel_weights(t_norm, with_centers(b)))

    @pytest.mark.parametrize("node", ["smoothing_layers", "attend", "time_encode",
                                      "kernel_weights"])
    def test_fused_node_is_bitwise_its_primitives(self, node):
        params, fused, unfused = self.fused_and_unfused(node)
        shape_tape = Tape()
        probe = np.random.default_rng(6).standard_normal(unfused(
            {k: shape_tape.const(v) for k, v in params.items()}).data.shape)
        results = []
        for fn in (fused, unfused):
            tape = Tape()
            out = fn(bind(tape, **params))
            grads = tape.backward((out * tape.const(probe)).sum())
            results.append((out.data, grads))
        assert np.array_equal(results[0][0], results[1][0])
        for name in params:
            assert np.array_equal(results[0][1][name], results[1][1][name]), name

    @pytest.mark.parametrize("times,scale,bias", [
        (1e308, 10.0, 0.0),       # the linear term overflows
        (1e300, 1e10, 0.0),       # every matmul overflows, sin and cos of inf
        (1e308, 1.0, 1.7e308),    # an add overflows
        (-1e308, -10.0, -1.7e308),
        (5.0, 1e300, 0.0),        # large but finite arguments of sin and cos
    ])
    def test_time_encode_raises_wherever_its_chain_raised(self, times, scale, bias):
        params = {name: np.full((1, 1 if name in ("te.w_s", "te.b_s") else 3),
                                bias if ".b_" in name else scale)
                  for name in ("te.w_s", "te.b_s", "te.w_p", "te.b_p", "te.w_c", "te.b_c")}
        self.same_failures(lambda b: time_encode(b["te.w_s"].tape.const([[times]]), b),
                           lambda b: chain_time_encode(b["te.w_s"].tape.const([[times]]), b),
                           params, "time_encode")

    @pytest.mark.parametrize("log_alpha,centre", [
        (-1e4, 0.5),       # sigma^2 underflows to 0: exponent 0/0 and -inf, exp -> 0
        (-400.0, 0.5),
        (400.0, 0.5),      # sigma^2 overflows: the exponent alone would read -0
        (1e308, 0.5),      # 2 * log_alpha overflows
        (-1e308, 0.5),
        (0.0, 1e200),      # the squared distance overflows
        (-300.0, 0.25),    # tiny but finite weights
        (0.0, 0.5),
    ])
    def test_kernel_weights_raise_wherever_their_chain_raised(self, log_alpha, centre):
        t_norm = np.array([[[0.0], [0.25], [1.0]]])
        centers = np.array([[0.25, centre]])

        def with_centers(b):
            return {**b, "pool.centers": b["pool.log_alpha"].tape.const(centers)}

        self.same_failures(lambda b: _kernel_weights(t_norm, with_centers(b)),
                           lambda b: chain_kernel_weights(t_norm, with_centers(b)),
                           {"pool.log_alpha": np.full((1, 2), log_alpha)}, "kernel_weights")

    def same_failures(self, fused, chain, params, name):
        """``fused`` raises NonFiniteError, naming itself, exactly where
        ``chain`` raised it, and otherwise gives the chain's values."""
        results = []
        with np.errstate(all="ignore"):
            for fn in (fused, chain):
                tape = Tape()
                try:
                    results.append(fn(bind(tape, **params)).data)
                except T.NonFiniteError as err:
                    results.append(str(err))
        if isinstance(results[1], str):
            assert results[0] == f"{name}: produced non-finite values"
        else:
            assert np.array_equal(results[0], results[1])


class TestTapeMemory:
    """What a training tape keeps until backward, counted by
    ``conftest.retained_bytes``, against the budget estimate."""

    def chunk(self, samples, cfg):
        tape = Tape()
        model = ModelParams.init(cfg, seed=0)
        padded, queries = chunk_of(samples)
        res = forward(tape, model, padded, queries)
        build_loss(res, np.concatenate([t for s in samples for t in s.query_targets]))
        estimate = tape_bytes(cfg, padded.samples, padded.n_variates, padded.grid_length,
                              int(padded.mask.sum()), res.predictions.data.shape[0])
        cells = padded.samples * padded.n_variates * padded.grid_length
        return retained_bytes(tape), estimate, cells

    def test_sinusoid_a_chunk_keeps_under_23_floats_per_padded_cell(self):
        # A whole 32-sample batch of the reference task (B=32, N=5, L=118)
        # keeps 17.19 floats per padded cell; the estimate that budgets
        # chunks is within 1% above the count.
        kept, estimate, cells = self.chunk(generate(PRESETS["sinusoid-a"])[:32], TrainConfig())
        assert kept / 8 / cells < 17.2
        assert kept <= estimate <= 1.01 * kept

    @pytest.mark.parametrize("cfg_kw", [
        dict(), dict(heads=1), dict(use_preconv=False), dict(use_pool_gate=False),
        dict(hidden=6, heads=3, rff_dim=10, kernels=3, conv_channels=2, time_dim=5, blocks=2),
    ])
    def test_estimate_bounds_what_the_tape_keeps(self, cfg_kw):
        rng = np.random.default_rng(13)
        for n in (1, 3, 7):
            samples = []
            while len(samples) < 4:
                sample = random_sample(rng, max_variates=n)
                if sample.n_variates == n and sum(sample.query_counts()):
                    samples.append(sample)
            kept, estimate, _cells = self.chunk(samples, TrainConfig(**cfg_kw))
            assert kept <= estimate <= 1.1 * kept, (n, kept, estimate)


def dense_triplet(n, length, seed=0):
    """Every variate observed at every grid time."""
    rng = np.random.default_rng([seed, n, length])
    return AlignedTriplet(times=np.linspace(0.0, 1.0, length)[None, :],
                          values=rng.standard_normal((length, n)).T.copy(),
                          mask=np.ones((n, length)))


class TestCountedCost:
    """The paper's cost claims as counts, not timings: one forward's
    recorded floats grow linearly in the variate count N and the grid
    length L, no node holds N^2 entries (quadratic attention would), and
    the node and parameter counts do not depend on N or L."""

    def record(self, monkeypatch, n, length, queries=2):
        """Sizes of every node one forward appends, its tape, and how many
        of those nodes ran the finiteness check (``Tape.record``)."""
        sizes, checked = [], []
        append, record = Tape.append, Tape.record

        def spy_append(self, op, data, *args, **kwargs):
            out = append(self, op, data, *args, **kwargs)
            sizes.append(out.data.size)
            return out

        def spy_record(self, *args, **kwargs):
            checked.append(1)
            return record(self, *args, **kwargs)

        monkeypatch.setattr(Tape, "append", spy_append)
        monkeypatch.setattr(Tape, "record", spy_record)
        tape = Tape()
        times = [np.linspace(1.01, 1.2, queries) for _ in range(n)]
        forward(tape, ModelParams.init(TrainConfig(), seed=0), dense_triplet(n, length), times)
        monkeypatch.undo()
        return sizes, tape, len(checked)

    def test_recorded_floats_grow_linearly_in_n_and_l(self, monkeypatch):
        # Affine in one size with the other fixed: the second difference
        # over a doubling ladder is exactly zero.
        for ladder in ([(16, 16), (32, 16), (64, 16)], [(8, 256), (8, 512), (8, 1024)]):
            f1, f2, f4 = (sum(self.record(monkeypatch, n, length)[0]) for n, length in ladder)
            assert f4 - f2 == 2 * (f2 - f1) > 0, ladder

    def test_no_node_holds_n_squared_entries(self, monkeypatch):
        n = 512
        biggest = max(self.record(monkeypatch, n, 8)[0])
        assert biggest < n * n
        assert biggest == 2 * max(self.record(monkeypatch, n // 2, 8)[0])

    def test_node_and_parameter_counts_do_not_depend_on_n_or_l(self, monkeypatch):
        counts = set()
        for n, length in [(2, 16), (64, 16), (2, 1024)]:
            sizes, tape, _checked = self.record(monkeypatch, n, length)
            registered = sum(int(np.prod(shape)) for _index, shape in tape.params.values())
            counts.add((len(sizes), len(tape.params), registered))
        assert len(counts) == 1
        _nodes, params, registered = counts.pop()
        assert params == len(ModelParams.init(TrainConfig()).arrays)
        assert registered == expected_param_count(TrainConfig())

    def test_fixed_cost_of_one_forward(self, monkeypatch):
        # A default-config forward of one sample with 2 grid times and 1
        # query records 109 nodes. 55 run the finiteness check: 12 constant
        # leaves and 43 nodes that compute. The 32 parameter leaves share
        # one check of the flat vector, and the other 22 nodes only move,
        # select or bound finite values.
        sizes, tape, checked = self.record(monkeypatch, 1, 2, queries=1)
        assert len(sizes) == len(tape.nodes) == 109
        assert checked == 55


class TestLinearAttention:
    def draw(self, n, d_h, r, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((n, d_h)),
            rng.standard_normal((n, d_h)),
            rng.standard_normal((n, d_h)),
            rng.standard_normal((d_h, r // 2)),
            rng.uniform(0, 2 * np.pi, (1, r // 2)),
        )

    def test_single_key_returns_its_value(self):
        tape = Tape()
        q, k, v, omega, phase = self.draw(1, 4, 16, seed=0)
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v),
                               tape.const(omega), tape.const(phase)).data
        assert np.abs(out - v).max() < 1e-5  # up to the denominator epsilon

    def test_identical_keys_average_the_values(self):
        tape = Tape()
        q, k, v, omega, phase = self.draw(6, 4, 32, seed=1)
        k_same = np.tile(k[:1], (6, 1))
        out = linear_attention(tape.const(q), tape.const(k_same), tape.const(v),
                               tape.const(omega), tape.const(phase)).data
        assert np.abs(out - v.mean(axis=0)).max() < 1e-5

    def test_linear_order_equals_quadratic_order(self):
        for seed in range(10):
            tape = Tape()
            q, k, v, omega, phase = self.draw(6, 8, 32, seed=seed)
            out = linear_attention(tape.const(q), tape.const(k), tape.const(v),
                                   tape.const(omega), tape.const(phase)).data

            def phi(m):
                proj = m @ omega + phase
                return np.concatenate([np.cos(proj), np.sin(proj)], axis=1) / np.sqrt(32)

            raw = phi(q) @ phi(k).T
            expected = (raw @ v) / (raw.sum(axis=1, keepdims=True) + 1e-6)
            assert np.abs(out - expected).max() < 1e-10

    def test_degenerate_denominator_counted(self):
        tape = Tape()
        q, k, v, omega, phase = self.draw(2, 4, 8, seed=2)
        stats = {}
        linear_attention(tape.const(q), tape.const(np.zeros_like(k) * 0 + 1e9),
                         tape.const(v), tape.const(omega * 0), tape.const(phase * 0),
                         stats=stats)
        assert "degenerate_rows" in stats

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 5, 128])
    def test_head_batched_equals_per_head_loop(self, heads, n):
        d_h, r = 8, 64
        rng = np.random.default_rng([heads, n])
        q, k, v = (rng.standard_normal((n, heads * d_h)) for _ in range(3))
        omega = rng.standard_normal((d_h, r // 2))
        phase = rng.uniform(0, 2 * np.pi, (1, r // 2))
        tape = Tape()
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v),
                               tape.const(omega), tape.const(phase)).data

        def phi(m):
            proj = m @ omega + phase
            return np.concatenate([np.cos(proj), np.sin(proj)], axis=1) / np.sqrt(r)

        for h in range(heads):
            cols = slice(h * d_h, (h + 1) * d_h)
            pq, pk = phi(q[:, cols]), phi(k[:, cols])
            expected = (pq @ (pk.T @ v[:, cols])) / (pq @ pk.sum(axis=0)[:, None] + 1e-6)
            assert np.abs(out[:, cols] - expected).max() < 1e-10

    def test_degenerate_rows_counted_per_row_and_head(self):
        # One frequency, no phase: keys 0 and pi have opposite features, so
        # head 0's key sum (and every denominator of head 0) is roundoff,
        # while head 1's equal keys give a well-conditioned denominator.
        q = np.array([[0.3, 0.3], [0.7, 0.7]])
        k = np.array([[0.0, 0.0], [np.pi, 0.0]])
        v = np.ones((2, 2))
        omega, phase = np.ones((1, 1)), np.zeros((1, 1))
        tape = Tape()
        batched = {}
        linear_attention(tape.const(q), tape.const(k), tape.const(v), tape.const(omega),
                         tape.const(phase), stats=batched)
        per_head = {}
        for h in range(2):
            cols = slice(h, h + 1)
            linear_attention(tape.const(q[:, cols]), tape.const(k[:, cols]),
                             tape.const(v[:, cols]), tape.const(omega),
                             tape.const(phase), stats=per_head)
        assert batched["degenerate_rows"] == per_head["degenerate_rows"] == 2


def block_config(**kw):
    base = dict(hidden=16, heads=2, rff_dim=16, kernels=2, conv_channels=2,
                time_dim=5, blocks=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestAttentionBlock:
    def test_pure_residual_identity(self):
        cfg = block_config()
        model = ModelParams.init(cfg, seed=1)
        model.arrays["blocks.0.wv"][:] = 0.0
        model.arrays["blocks.0.mlp_w2"][:] = 0.0
        tape = Tape()
        p = model.bind(tape)
        z = np.random.default_rng(0).standard_normal((5, cfg.hidden))
        out = attention_block(tape.const(z), 0, p).data
        assert np.abs(out - z).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_output_shape_contract(self, n):
        cfg = block_config()
        model = ModelParams.init(cfg, seed=2)
        tape = Tape()
        p = model.bind(tape)
        z = np.random.default_rng(n).standard_normal((n, cfg.hidden))
        assert attention_block(tape.const(z), 0, p).data.shape == (n, cfg.hidden)

    def test_tape_nodes_independent_of_head_count(self):
        z = np.random.default_rng(5).standard_normal((5, 16))
        counts = []
        for heads in (1, 4):
            cfg = block_config(heads=heads)
            tape = Tape()
            p = ModelParams.init(cfg, seed=6).bind(tape)
            before = len(tape.nodes)
            attention_block(tape.const(z), 0, p)
            counts.append(len(tape.nodes) - before)
        assert counts[0] == counts[1]

    def test_matches_straight_line_reimplementation(self):
        cfg = block_config(hidden=16, heads=2, rff_dim=16)
        model = ModelParams.init(cfg, seed=3)
        arr = {k.removeprefix("blocks.0."): v for k, v in model.arrays.items()
               if k.startswith("blocks.0.")}
        omega = model.buffers["blocks.0.omega"]
        phase = model.buffers["blocks.0.phase"]
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 16))

        tape = Tape()
        out = attention_block(tape.const(z), 0, model.bind(tape)).data

        def ln(m):
            mu = m.mean(axis=-1, keepdims=True)
            xc = m - mu
            var = (xc * xc).mean(axis=-1, keepdims=True)
            return xc / np.sqrt(var + 1e-5)

        normed = ln(z) * arr["ln1_g"] + arr["ln1_b"]
        # The forward-normalized spectral pair (see ``fourier``).
        forward_dft, inverse_dft = dft_matrices(16)
        coeff = normed @ forward_dft
        qa, ka, va = coeff @ arr["wq"], coeff @ arr["wk"], coeff @ arr["wv"]
        heads = []
        for h in range(2):
            sl = slice(h * 8, (h + 1) * 8)
            q, k, v = qa[:, sl], ka[:, sl], va[:, sl]

            def phi(m):
                proj = m @ omega + phase
                return np.concatenate([np.cos(proj), np.sin(proj)], 1) / 4.0

            pq, pk = phi(q), phi(k)
            num = pq @ (pk.T @ v)
            den = pq @ pk.sum(axis=0)[:, None]
            heads.append(num / (den + 1e-6))
        u = z + np.concatenate(heads, axis=1) @ inverse_dft
        normed2 = ln(u) * arr["ln2_g"] + arr["ln2_b"]
        mlp = np.maximum(normed2 @ arr["mlp_w1"] + arr["mlp_b1"], 0.0) @ arr["mlp_w2"] + arr["mlp_b2"]
        expected = u + mlp
        assert np.abs(out - expected).max() < 1e-10


class TestForward:
    def sample_and_model(self, seed=0, n_variates=3, **cfg_kw):
        rng = np.random.default_rng(seed)
        sample = random_sample(rng, max_variates=n_variates, allow_empty_variates=False)
        cfg = block_config(**cfg_kw)
        return sample, ModelParams.init(cfg, seed=seed)

    def test_deterministic_bitwise(self):
        sample, model = self.sample_and_model(seed=5)
        triplet = align(sample)
        a = forward(Tape(), model, triplet, sample.query_times).predictions.data
        b = forward(Tape(), model, triplet, sample.query_times).predictions.data
        assert np.array_equal(a, b)
        assert np.isfinite(a).all()

    def test_variate_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        n = 5
        length = 12
        times = np.sort(rng.uniform(0, 1, size=length))[None, :]
        # Drawn (L, N) as before the layout change, so the cells are the same.
        values = rng.standard_normal((length, n)).T.copy()
        mask = (rng.uniform(size=(length, n)) < 0.7).astype(float).T.copy()
        values *= mask
        triplet = AlignedTriplet(times=times, values=values, mask=mask)
        queries = [np.sort(rng.uniform(1.0, 1.5, size=2)) for _ in range(n)]
        cfg = block_config()
        model = ModelParams.init(cfg, seed=7)

        base = forward(Tape(), model, triplet, queries)
        perm = np.random.default_rng(8).permutation(n)
        permuted = AlignedTriplet(times=times, values=values[perm], mask=mask[perm])
        out = forward(Tape(), model, permuted, [queries[i] for i in perm])

        base_by_var = base.per_variate()
        perm_by_var = out.per_variate()
        for new_col, old_col in enumerate(perm):
            assert np.abs(perm_by_var[new_col] - base_by_var[old_col]).max() < 1e-10

    def test_query_arrays_must_match_the_block_rows(self):
        sample, model = self.sample_and_model(seed=11)
        block = align(sample)
        n = sample.n_variates
        with pytest.raises(DataError, match=f"expected {n} query arrays, one per row, got {n - 1}"):
            forward(Tape(), model, block, sample.query_times[:-1])
        pair = pad_chunk([block, block])
        with pytest.raises(DataError, match=f"expected {2 * n} query arrays, one per row, got {n}"):
            forward(Tape(), model, pair, sample.query_times)

    @pytest.mark.parametrize("use_preconv", [True, False])
    def test_forward_and_backward_leave_the_block_unchanged(self, use_preconv):
        # A block of one is the sample's own aligned arrays (no copy), and
        # ``train`` re-reads them every epoch.
        rng = np.random.default_rng(12)
        sample = random_sample(rng, max_variates=3, allow_empty_variates=False)
        while not sum(sample.query_counts()):
            sample = random_sample(rng, max_variates=3, allow_empty_variates=False)
        model = ModelParams.init(block_config(use_preconv=use_preconv), seed=12)
        block = align(sample)
        before = [arr.copy() for arr in (block.values, block.mask, block.times)]
        tape = Tape()
        res = forward(tape, model, block, sample.query_times)
        tape.backward(build_loss(res, np.concatenate(sample.query_targets)))
        after = (block.values, block.mask, block.times)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_zero_parameters_collapse_to_head_bias(self):
        sample, model = self.sample_and_model(seed=9)
        for arr in model.arrays.values():
            arr[:] = 0.0
        model.arrays["head.b3"][:] = 0.625
        res = forward(Tape(), model, align(sample), sample.query_times)
        assert np.all(res.predictions.data == 0.625)

    def test_queries_map_back_to_variates(self):
        sample, model = self.sample_and_model(seed=10)
        res = forward(Tape(), model, align(sample), sample.query_times)
        assert res.counts == [q.size for q in sample.query_times]
        assert [v.size for v in res.per_variate()] == res.counts
        assert sum(res.counts) == res.predictions.data.shape[0]

    def test_full_model_gradients(self, tiny_config):
        from imtscast.datasets import SynthSpec, generate
        from imtscast.tape import grad_check
        from imtscast.train import build_loss

        spec = SynthSpec(n_variates=3, n_samples=1, mean_observations=4.0,
                         queries_per_variate=2, seed=21, noise_std=0.1)
        sample = generate(spec)[0]
        triplet = align(sample)
        cfg = block_config(blocks=1)
        model = ModelParams.init(cfg, seed=11)
        targets = np.concatenate(sample.query_targets)

        def build(tape):
            return build_loss(forward(tape, model, triplet, sample.query_times), targets)

        report = grad_check(build, model.flat, model.arrays, step=1e-4, tol=1e-4)
        assert report.ok, "\n".join(report.lines())


class TestModelParams:
    @pytest.mark.parametrize("cfg_kw", [
        dict(),
        dict(hidden=32, heads=4, rff_dim=64, kernels=8, conv_channels=16, time_dim=16),
        dict(blocks=3, hidden=8, heads=2, rff_dim=8, kernels=2, conv_channels=2, time_dim=4),
    ])
    def test_param_count_matches_closed_form(self, cfg_kw):
        cfg = block_config(**cfg_kw)
        model = ModelParams.init(cfg)
        assert model.param_count() == expected_param_count(cfg)

    def test_serialization_round_trips_bitwise(self, tmp_path):
        cfg = block_config()
        model = ModelParams.init(cfg, seed=13)
        path = tmp_path / "ck.json"
        model.save(path)
        loaded = ModelParams.load(path)
        assert set(loaded.arrays) == set(model.arrays)
        for name in model.arrays:
            assert np.array_equal(loaded.arrays[name], model.arrays[name])
        for name in model.buffers:
            assert np.array_equal(loaded.buffers[name], model.buffers[name])
        assert loaded.cfg == cfg
        # And the reloaded model predicts bitwise identically.
        rng = np.random.default_rng(14)
        sample = random_sample(rng, allow_empty_variates=False)
        triplet = align(sample)
        a = forward(Tape(), model, triplet, sample.query_times).predictions.data
        b = forward(Tape(), loaded, triplet, sample.query_times).predictions.data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("damage,message", [
        ("truncated", "not a valid checkpoint"),
        ("no_config", "checkpoint has no config"),
        ("wrong_shape", "has shape"),
        ("missing_param", "names differ"),
        ("huge_blocks", "names differ"),   # refused before its layout is listed
    ])
    def test_malformed_checkpoint_raises_data_error(self, tmp_path, damage, message):
        path = tmp_path / "ck.json"
        ModelParams.init(block_config(), seed=13).save(path)
        text = path.read_text(encoding="utf-8")
        if damage == "truncated":
            path.write_text(text[:-40], encoding="utf-8")
        else:
            doc = json.loads(text)
            if damage == "no_config":
                del doc["config"]
            elif damage == "wrong_shape":
                doc["params"]["out.w"] = {"shape": [2, 2], "data": [0.0] * 4}
            elif damage == "huge_blocks":
                doc["config"]["blocks"] = 10**12
            else:
                del doc["buffers"]["blocks.0.omega"]
            path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=message):
            ModelParams.load(path)

    def test_arrays_are_views_of_one_flat_vector(self):
        cfg = block_config()
        model = ModelParams.init(cfg, seed=13)
        assert model.flat.shape == (expected_param_count(cfg),)
        assert np.array_equal(model.flat,
                              np.concatenate([a.ravel() for a in model.arrays.values()]))
        model.arrays["out.w"][0, 0] = 7.5
        assert 7.5 in model.flat
        twin = model.copy()
        twin.flat[:] = 0.0
        assert model.arrays["out.w"][0, 0] == 7.5 and not twin.arrays["out.w"].any()
        tape = Tape()
        bound = model.bind(tape)
        assert all(np.shares_memory(bound[name].data, model.flat) for name in model.arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_parameter_raises_at_bind(self, value):
        model = ModelParams.init(block_config(), seed=13)
        model.arrays["pool.gate"][0, 1] = value
        rng = np.random.default_rng(14)
        sample = random_sample(rng, allow_empty_variates=False)
        tape = Tape()
        with pytest.raises(T.NonFiniteError, match="^param pool.gate: non-finite"):
            forward(tape, model, align(sample), sample.query_times)
        assert len(tape.nodes) == 0

    def test_load_keeps_the_init_order_and_rejects_non_finite_entries(self, tmp_path):
        path = tmp_path / "ck.json"
        model = ModelParams.init(block_config(), seed=13)
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["params"] = dict(reversed(doc["params"].items()))
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = ModelParams.load(path)
        assert list(loaded.arrays) == list(model.arrays)
        assert np.array_equal(loaded.flat, model.flat)
        doc["buffers"]["pool.centers"]["data"][1] = float("nan")
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="buffers 'pool.centers' holds non-finite"):
            ModelParams.load(path)

    def test_frozen_feature_draws_are_standard_normal_scale(self):
        cfg = block_config(rff_dim=512, hidden=32, heads=2)
        model = ModelParams.init(cfg, seed=15)
        omega = model.buffers["blocks.0.omega"]
        assert abs(omega.std() - 1.0) < 0.05
        phase = model.buffers["blocks.0.phase"]
        assert 0.0 <= phase.min() and phase.max() < 2 * np.pi


class TestAttentionMaps:
    def test_maps_normalized_and_consistent_with_linear_path(self):
        cfg = block_config(blocks=2)
        model = ModelParams.init(cfg, seed=16)
        rng = np.random.default_rng(17)
        sample = random_sample(rng, max_variates=6, allow_empty_variates=False)
        maps = attention_maps(model, align(sample), sample.query_times)
        assert len(maps) == cfg.blocks * cfg.heads
        for amap in maps:
            if amap.degenerate_rows == 0:
                assert np.abs(amap.weights.sum(axis=1) - 1.0).max() < 1e-8
            assert np.abs(amap.quadratic_out - amap.linear_out).max() < 1e-10

