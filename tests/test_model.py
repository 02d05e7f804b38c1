import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import imtscast.model as model_module
import imtscast.tape as T
from imtscast.config import ConfigError, TrainConfig
from imtscast.data import AlignedTriplet, DataError, align, pad_chunk
from imtscast.datasets import PRESETS, SynthSpec, generate
from imtscast.fourier import dft_matrices
from imtscast.model import (
    ATTENTION_EPS,
    ENCODING_ATOL,
    POOLING_EPS,
    TE_NAMES,
    ModelParams,
    _encoding,
    _fuse_at_cells,
    _kernel_weights,
    _layout_floats,
    _pool_quotient,
    _smoothing_layers,
    _stored_floats,
    _weights_first,
    attention_block,
    attention_maps,
    encode_series,
    expected_param_count,
    forward,
    layout,
    linear_attention,
    pool_all,
    query_features,
    tape_bytes,
    time_projection,
)
from imtscast.tape import Tape, flat_views, grad_check
from imtscast.train import build_loss

from conftest import bind, chunk_of, random_sample, retained_bytes, transient_bytes
from oracles import (
    chain_fuse_at_cells,
    chain_kernel_weights,
    chain_linear_attention,
    chain_pool_quotient,
    chain_positive_features,
    chain_query_features,
    chain_time_encode,
    first_maxima,
    grid_triplet,
    narrow,
    param_count_closed_form,
    pool_coefficients,
    pool_summary,
    reshape,
    transpose,
)


def bound_params(model, tape):
    return model.bind(tape)


def make_te_params(tape, d_te, w_f=None, zero=False):
    pairs = (d_te - 1) // 2
    n_lin = d_te - 2 * pairs
    rng = np.random.default_rng(0)

    def arr(shape, fan):
        if zero:
            return np.zeros(shape)
        return rng.uniform(-1, 1, size=shape) / np.sqrt(fan)

    return {
        "te.w_s": tape.const(arr((1, n_lin), 1)),
        "te.b_s": tape.const(np.zeros((1, n_lin))),
        "te.w_f": tape.const(w_f if w_f is not None else arr((1, pairs), 1)),
        "te.b_f": tape.const(np.zeros((1, pairs))),
    }


def query_encoding(p, times):
    """The time encoding of the (M, 1) ``times`` as ``query_features``
    writes it: their features read from a z of width 0."""
    times = np.asarray(times, dtype=np.float64)
    z = p["te.w_s"].tape.const(np.zeros((1, 0)))
    return query_features(z, np.zeros(times.shape[0], dtype=np.intp), times[:, 0], p)


class TestTimeEncoding:
    def test_zero_time_zero_biases(self):
        # Odd and even widths: one linear column and three pairs, then two
        # linear columns and three pairs.
        for d_te, n_lin in [(7, 1), (8, 2)]:
            tape = Tape()
            p = make_te_params(tape, d_te=d_te)
            out = query_encoding(p, [[0.0]]).data[0]
            assert out.shape == (d_te,)
            assert np.all(out[:n_lin] == 0.0)
            assert np.all(out[n_lin : n_lin + 3] == 0.0)
            assert np.all(out[n_lin + 3 :] == 1.0)

    def test_periodic_branches_bounded(self):
        tape = Tape()
        p = make_te_params(tape, d_te=9)
        t = np.linspace(-50, 50, 101)[:, None]
        out = query_encoding(p, t).data
        assert np.all(np.abs(out[:, 1:]) <= 1.0)
        assert np.allclose(out[:, 1:5] ** 2 + out[:, 5:] ** 2, 1.0, rtol=0.0, atol=1e-15)

    def test_quarter_period_sin_entry(self):
        tape = Tape()
        p = make_te_params(tape, d_te=3, w_f=np.array([[np.pi / 2]]))
        out = query_encoding(p, [[1.0]]).data[0]
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert out[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("time_dim", [3, 4, 15, 16])
    def test_gradients_at_odd_and_even_widths(self, time_dim):
        shapes, _buffers = layout(TrainConfig(time_dim=time_dim))
        rng = np.random.default_rng(time_dim)
        flat, views = flat_views({name: rng.standard_normal(shape)
                                  for name, (shape, _start) in shapes.items()
                                  if name in ("te.w_s", "te.b_s", "te.w_f", "te.b_f")})
        times = rng.uniform(-3.0, 12.0, (9, 1))
        probe = rng.standard_normal((9, time_dim))

        def build(tape):
            out = query_encoding(tape.param_vector(flat, views), times)
            return (out * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
        assert report.ok, report.lines()

    def test_backward_runs_no_sin_or_cos(self, monkeypatch):
        # Neither the queries' encoding nor the grid's projected encoding.
        tape = Tape()
        p = bind(tape, **{name: np.random.default_rng(1).standard_normal(shape)
                          for name, shape in [("te.w_s", (1, 2)), ("te.b_s", (1, 2)),
                                              ("te.w_f", (1, 7)), ("te.b_f", (1, 7)),
                                              ("te.w_t", (16, 1))]})
        times = np.linspace(0.0, 5.0, 11)[:, None]
        loss = ((query_encoding(p, times) * tape.const(np.ones((11, 16)))).sum()
                + (time_projection(times, p) * tape.const(np.ones((11, 1)))).sum())

        def refuse(*args, **kwargs):
            raise AssertionError("a transcendental ran in backward")

        monkeypatch.setattr(np, "sin", refuse)
        monkeypatch.setattr(np, "cos", refuse)
        monkeypatch.setattr(np, "tan", refuse)
        grads = tape.backward(loss)
        assert all(np.isfinite(g).all() for g in grads.values())
        assert (grads["te.w_t"] != 0.0).all()

    @staticmethod
    def near_odd_multiples_of_pi():
        """Doubles within three steps of k pi for odd k up to ~1e15, where
        tan(theta / 2) reaches ~1e16."""
        def step(x, n):
            for _ in range(abs(n)):
                x = np.nextafter(x, np.copysign(np.inf, n))
            return float(x)
        return st.builds(step, st.integers(0, 2**49).map(lambda k: (2 * k + 1) * np.pi),
                         st.integers(-3, 3))

    @settings(max_examples=200, deadline=None)
    # theta / 2 is the double nearest an odd multiple of pi/2: |u| ~ 2.1e18.
    @example(thetas=[2.0 * 6381956970095103 * 2.0**797], scale=1.0,
             linear=np.zeros((2, 2)))
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),     # subnormals
        st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)).map(
            lambda se: se[0] * 10.0 ** se[1]),
        near_odd_multiples_of_pi()), min_size=1, max_size=12),
        st.sampled_from([1.0, -1.0, 0.5, 2.0]),
        hnp.arrays(np.float64, (2, 2), elements=st.floats(-1e3, 1e3)))
    def test_pairs_stay_within_their_bound_of_sin_and_cos(self, thetas, scale, linear):
        # theta = t w_f + b_f with a power-of-two w_f and b_f = -0.0 is t w_f
        # exactly, signed zeros included; w_f = 2 moves |theta| up to 2e300.
        t = np.array(thetas)[:, None]
        ws, bs = linear[:1], linear[1:]
        wf, bf = np.full((1, 3), scale), np.full((1, 3), -0.0)
        out = _encoding(t, ws, bs, wf, bf)
        theta = t.T * scale
        assert np.isfinite(out).all()
        assert np.array_equal(out[:2], ws.T * t.T + bs.T)
        assert (np.abs(out[2:5] - np.sin(theta)) <= ENCODING_ATOL).all()
        assert (np.abs(out[5:] - np.cos(theta)) <= ENCODING_ATOL).all()


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

    def smooth(self, block, p):
        """Both conv layers at the observed cells of ``block``: (1, P)."""
        return _smoothing_layers(block.taps, p["conv.w1"], p["conv.b1"], p["conv.w2"],
                                 p["conv.b2"]).data

    def test_zero_input_zero_biases_gives_zero(self):
        tape = Tape()
        p = self.conv_params(tape, channels=4)
        p.update(make_te_params(tape, d_te=5, zero=True))
        p["te.w_t"] = tape.const(np.zeros((5, 1)))
        block = grid_triplet(np.zeros((2, 6)), np.ones((2, 6)))
        out = encode_series(block, tape, p)
        assert np.all(out.data == 0.0)

    def test_length_one_sees_zero_padding(self):
        tape = Tape()
        p = self.conv_params(tape, channels=3, zero_bias=False, seed=1)
        value = 1.7
        out = self.smooth(grid_triplet(np.array([[value]]), np.ones((1, 1))), p)
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
        out = self.smooth(grid_triplet(x, np.ones_like(x)), p)[0]     # every cell observed

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
        stacked = self.smooth(grid_triplet(x, np.ones_like(x)), p).reshape(3, 9)
        for row in range(3):
            single = self.smooth(grid_triplet(x[row : row + 1], np.ones((1, 9))), p)
            assert np.abs(stacked[row] - single[0]).max() < 1e-14


def pool_params(tape, k, d=None, seed=0):
    rng = np.random.default_rng(seed)
    p = {
        "pool.centers": np.linspace(0, 1, k)[None, :],
        "pool.log_alpha": tape.const(np.log(rng.uniform(0.2, 1.0, size=(1, k)))),
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

        centers = p["pool.centers"][0]
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

    def test_an_underflowed_denominator_counts_as_no_support(self):
        # A narrow kernel centred far from the one observed cell: its weight
        # there, the denominator, is a subnormal ~1e-310, and g / den would
        # overflow. It pools to about its numerator with finite gradients.
        tape = Tape()
        sigma = np.sqrt(0.5 / (310 * np.log(10.0)))
        b = bind(tape, xhat=np.array([[[0.0, 2.0, 0.0]]]),
                 **{"pool.log_alpha": np.log([[0.5, sigma]]),
                    "pool.w_proj": np.ones((3, 4))})
        b["pool.centers"] = np.array([[0.5, 1.5]])
        t_norm = np.array([[0.0, 0.5, 1.0]])
        weights = np.exp(-0.5 * (t_norm[0, 1] - 1.5) ** 2 / sigma**2)
        assert 0.0 < weights < 1e-308
        z = pool_all(b["xhat"], np.array([[0.0, 1.0, 0.0]]), t_norm, b)
        assert np.allclose(z.data, 2.0 + 1.0)    # 2 pooled by the wide kernel, and the flag
        grads = tape.backward(z.sum())
        for name in ("xhat", "pool.log_alpha", "pool.w_proj"):
            assert np.isfinite(grads[name]).all(), name

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
        pooled = np.zeros(k)
        for j in range(k):
            for l in range(length):
                pooled[j] += a[l, j] * x[l, 0]
        flagged = np.concatenate([pooled, [1.0]])
        expected = np.zeros(d)
        for col in range(d):
            for j in range(k + 1):
                expected[col] += flagged[j] * p["pool.w_proj"].data[j, col]
        assert np.abs(z - expected).max() < 1e-12

    def test_vectorized_pooling_equals_per_variate_composition(self):
        rng = np.random.default_rng(14)
        n, length, k, d = 4, 9, 3, 6
        tape = Tape()
        p = pool_params(tape, k=k, d=d, seed=15)
        values = rng.standard_normal((n, length))
        mask_rows = (rng.uniform(size=(n, length)) < 0.6).astype(float)
        mask_rows[2] = 0.0  # one empty variate
        xhat = tape.const(values * mask_rows)   # zero off the cells, as encoding leaves it
        t_norm = np.sort(rng.uniform(0, 1, size=(1, length)))
        z_fast = pool_all(reshape(xhat, (1, n, length)), mask_rows, t_norm, p).data
        for v in range(n):
            coeffs = pool_coefficients(tape.const(t_norm.T),
                                       tape.const(mask_rows[v][:, None]), p)
            z_slow = pool_summary(transpose(narrow(xhat, np.s_[v : v + 1, :])), coeffs,
                                  tape.const(mask_rows[v][:, None]), p).data
            assert np.abs(z_fast[v] - z_slow[0]).max() < 1e-12


def adjoints(fn, params, probe):
    """(output, adjoints) of ``fn`` under the loss sum(out * probe)."""
    tape = Tape()
    out = fn(bind(tape, **params))
    return out.data, tape.backward((out * tape.const(probe)).sum())


# (samples, rows, heads, d_h, R/2) of each linear-attention case. "one_row",
# "tied" and "floored_weights_first" take the weights-first order, the
# others the summary-first one (``_weights_first``).
ATTENTION_CASES = {"one_row": (3, 1, 2, 3, 4), "five_rows": (2, 5, 4, 2, 3),
                   "wide": (1, 128, 1, 3, 4), "floored": (2, 5, 2, 2, 1), "tied": (2, 4, 2, 3, 4),
                   "floored_weights_first": (2, 4, 2, 2, 8)}


def attention_case(name):
    """(q, k and v as parameters, omega, samples) of one linear-attention
    case. Rows are drawn at unit scale; "floored" moves query row 1 of
    sample 0 far from that sample's keys (near -3 (1, 1)) along omega's one
    frequency, so its features meet theirs only where one of each pair is
    ~exp(-360) and its denominator lies below ATTENTION_EPS, and
    "floored_weights_first" does the same with eight equal frequencies and
    four rows; "tied" has a zero query row, whose
    features all tie, a key group of zero rows, whose features all tie, and
    a group whose largest key is the same row twice."""
    samples, rows, heads, d_head, half = ATTENTION_CASES[name]
    rng = np.random.default_rng(list(ATTENTION_CASES).index(name))
    q, k, v = (rng.standard_normal((samples * rows, heads * d_head)) for _ in range(3))
    omega = rng.standard_normal((d_head, half))
    if name.startswith("floored"):
        omega = np.full((d_head, half), 30.0)
        q[1, :d_head] = 3.0
        k[:rows, :d_head] = -3.0 + 0.1 * k[:rows, :d_head]    # distinct, so no shift ties
    if name == "tied":
        # x = omega_j / 2 for the longest column j maximizes x omega_j - |x|^2,
        # so two such rows hold their group's largest key feature.
        peak = omega[:, np.argmax((omega * omega).sum(axis=0))] / 2.0
        q[2, :d_head] = 0.0
        k[rows : 2 * rows, d_head:] = 0.0
        k[[0, 2], d_head:] = peak
    return {"q": q, "k": k, "v": v}, omega, samples


def attention_conditions(params, omega, samples, probe):
    """Per entry, the sum of the absolute terms of linear attention's output
    and of its adjoints under the loss sum(out * probe): the chain's
    formulas with every term made non-negative, which bounds what summing
    the same terms in another order can change. Adjoints that cancel
    exactly (q's and k's at N = 1, where the output is v) are thus bounded
    by the size of their terms, not by roundoff."""
    q, k, v = params["q"], params["k"], params["v"]
    total, d = q.shape
    d_head, half = omega.shape
    heads, rows = d // d_head, total // samples

    def stack(x):
        """(B*N, .) rows -> the (B, H, N, .) stack of their heads."""
        return x.reshape(samples, rows, heads, -1).transpose(0, 2, 1, 3)

    capture = []
    tape = Tape()
    linear_attention(tape.const(q), tape.const(k), tape.const(v), omega, samples=samples,
                     capture=capture)
    fq, fk = (capture[0][name].transpose(0, 2, 1, 3) for name in ("phi_q", "phi_k"))
    v_abs = np.concatenate([np.abs(stack(v)), np.ones((samples, heads, rows, 1))], axis=3)
    den = fq @ fk.sum(axis=2)[..., None]                              # (B, H, N, 1)
    guarded = np.maximum(den, ATTENTION_EPS)
    out = fq @ (fk.swapaxes(-1, -2) @ v_abs[..., :d_head]) / guarded
    g_num = np.abs(stack(probe)) / guarded
    g_den = np.where(den > ATTENTION_EPS, (g_num * out).sum(axis=3, keepdims=True), 0.0)
    adj = np.concatenate([g_num, g_den], axis=3)
    g_summary = fq.swapaxes(-1, -2) @ adj                             # (B, H, R, d_h+1)
    g_v = fk @ g_summary[..., :d_head]
    conditions = {"v": g_v.transpose(0, 2, 1, 3).reshape(total, d)}
    for name, phi, g_phi in (("q", fq, adj @ (fk.swapaxes(-1, -2) @ v_abs).swapaxes(-1, -2)),
                             ("k", fk, v_abs @ g_summary.swapaxes(-1, -2))):
        terms = g_phi * phi                                           # (B, H, N, R)
        # The shift's derivative adds each group's sum at its first maximum.
        sums = terms.sum(axis=(2, 3) if name == "k" else 3)
        flat = terms.transpose(0, 2, 1, 3).copy()                     # (B, N, H, R)
        flat.reshape(-1)[first_maxima(phi.transpose(0, 2, 1, 3), name == "k")] += sums.ravel()
        g_x = (flat[..., :half] + flat[..., half:]) @ np.abs(omega).T
        if name == "k":
            g_x += 2.0 * np.abs(stack(k).transpose(0, 2, 1, 3)) * flat.sum(axis=3, keepdims=True)
        conditions[name] = g_x.reshape(total, d)
    return out.transpose(0, 2, 1, 3).reshape(total, d), conditions


def exponent_scale(params, omega):
    """1 plus the largest sum of absolute terms of any feature exponent:
    |x| |omega| for a query, plus |k|^2 and the shift for a key. exp turns
    an exponent's absolute error into the same relative error in its
    feature, so a reordered exponent moves the features by up to this
    many roundings."""
    d_head = omega.shape[0]
    q, k = (params[name].reshape(-1, d_head) for name in ("q", "k"))
    key_terms = np.abs(k) @ np.abs(omega) + 2.0 * (k * k).sum(axis=1, keepdims=True)
    return 1.0 + max((np.abs(q) @ np.abs(omega)).max(), key_terms.max())


def assert_attention_matches_its_chain(params, omega, samples):
    """The fused node against ``oracles.chain_linear_attention`` under one
    random probe: the exponents, the products and every adjoint sum in
    another order than the chain's, so each output and adjoint entry is
    bounded by 1e-13 of its ``attention_conditions`` times the
    ``exponent_scale``. Over 40 random draws of each case at scales 0.3 to
    3 the error stayed within 2.9e-14 of the condition alone and within
    1.5e-16 of the scaled one."""
    probe = np.random.default_rng(6).standard_normal(params["v"].shape)
    results = [adjoints(lambda b: fn(b["q"], b["k"], b["v"], omega, samples=samples),
                        params, probe)
               for fn in (linear_attention, chain_linear_attention)]
    bound, conditions = attention_conditions(params, omega, samples, probe)
    tol = 1e-13 * exponent_scale(params, omega)
    assert (np.abs(results[0][0] - results[1][0]) <= tol * bound).all()
    for name in params:
        assert (conditions[name] > 0.0).all(), name
        error = np.abs(results[0][1][name] - results[1][1][name])
        assert (error <= tol * conditions[name]).all(), name


class TestRandomFeatures:
    def feature_draw(self, d_h, r, seed=0):
        return np.random.default_rng(seed).standard_normal((d_h, r // 2))

    def features(self, x, omega, keys=False):
        """The features of the rows of ``x`` as one (sample, head) group,
        read from ``linear_attention``'s capture."""
        rows, capture = Tape().const(x), []
        linear_attention(rows, rows, rows, omega, capture=capture)
        return capture[0]["phi_k" if keys else "phi_q"][0, :, 0]

    def test_inner_products_estimate_the_gaussian_kernel(self):
        # Monte Carlo: R = 20000 features of six rows of norm ~0.5. Over 60
        # draws the largest relative error of the 36 inner products had a
        # median of 1.1% and a maximum of 2.8%; the diagonal estimates 1/2.
        # The shifts scale query row i by exp(|x_i|^2 - a_i) and every key
        # by exp(-b) (a_i the largest |x_i omega|, b the keys' largest
        # exponent); they are undone here.
        omega = self.feature_draw(4, 20000, seed=1)
        x = np.random.default_rng(2).standard_normal((6, 4)) * 0.25
        proj, sq = x @ omega, (x * x).sum(axis=1, keepdims=True)
        a = np.abs(proj).max(axis=1, keepdims=True)
        b = (np.concatenate([proj, -proj], axis=1) - sq).max()
        phi = self.features(x, omega) @ self.features(x, omega, keys=True).T
        estimate = phi * np.exp(a - sq + b)
        diff = x[:, None, :] - x[None, :, :]
        exact = 0.5 * np.exp(-0.5 * (diff * diff).sum(axis=2))
        assert np.abs(estimate / exact - 1.0).max() < 0.04

    def test_inner_product_equals_hyperbolic_cosine_average(self):
        # For a query row x and a lone key y,
        # phi(x).phi(y) = sum_i cosh(omega_i . (x + y)) / R * exp(-max|x omega| - max|y omega|).
        omega = self.feature_draw(4, 16, seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        px, py = self.features(x, omega), self.features(y, omega, keys=True)
        expected = np.cosh((x + y) @ omega).sum() / 16 * np.exp(
            -np.abs(x @ omega).max() - np.abs(y @ omega).max())
        assert (px @ py.T).item() == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*(
        hnp.arrays(np.float64, (n, 3), elements=st.floats(-3.0, 3.0)) for _ in range(3)))))
    def test_features_and_denominators_are_positive(self, qkv):
        # Finite rows of norm at most ~5: every feature is non-negative, the
        # largest of each query row and of the keys is s = 1/sqrt(2R) = 1/4
        # (up to the rounding of the shift), and every denominator is
        # positive.
        q, k, v = qkv
        omega = self.feature_draw(3, 8, seed=3)
        tape, capture = Tape(), []
        linear_attention(tape.const(q), tape.const(k), tape.const(v), omega, capture=capture)
        fq, fk = capture[0]["phi_q"], capture[0]["phi_k"]
        assert (fq >= 0).all() and (fk >= 0).all()
        assert np.allclose(fq.max(axis=3), 0.25, rtol=1e-12, atol=0)
        assert fk.max() == pytest.approx(0.25, rel=1e-12)
        assert (fq[0, :, 0] @ fk[0, :, 0].sum(axis=0) > 0).all()

    def test_fused_feature_map_gradients(self):
        # Every input of the fused node: the queries' and the keys' feature
        # maps and the values, two samples of three rows, two heads.
        omega = self.feature_draw(3, 8, seed=9)
        rng = np.random.default_rng(10)
        flat, views = flat_views({name: rng.standard_normal((6, 6)) for name in "qkv"})
        probe = rng.standard_normal((6, 6))

        def build(tape):
            p = tape.param_vector(flat, views)
            out = linear_attention(p["q"], p["k"], p["v"], omega, samples=2)
            return (out * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    @pytest.mark.parametrize("r", [16, 12])
    def test_output_based_adjoint_equals_the_primitive_composition(self, r):
        # The VJP reads the derivatives off the features, moves each group's
        # sum to its first maximum and forms the inputs' adjoints with one
        # omega product, for R/2 = 8 and 6 frequencies: within the condition
        # of the primitive chain, which sums in another order.
        omega = self.feature_draw(3, r, seed=11)
        rng = np.random.default_rng(12)
        params = {name: rng.standard_normal((6, 6)) for name in "qkv"}
        assert_attention_matches_its_chain(params, omega, samples=2)

    def test_an_underflowed_row_is_degenerate_with_finite_outputs_and_gradients(self):
        # In head 0, query row 1 lies at 400 (1, 1) and every key at
        # -400 (1, 1): the query's features peak where the keys' vanish and
        # each product of the two underflows to 0, so its denominator is 0.
        # The other queries of head 0, near the origin, still meet the keys.
        rng = np.random.default_rng(14)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        q[1, :2] = 400.0
        k[:, :2] = -400.0
        omega = self.feature_draw(2, 8, seed=15)
        tape = Tape()
        p = bind(tape, q=q, k=k, v=v)
        stats = {}
        out = linear_attention(p["q"], p["k"], p["v"], omega, stats=stats)
        grads = tape.backward((out * tape.const(rng.standard_normal((3, 4)))).sum())
        assert stats["degenerate_rows"] == 1
        assert np.isfinite(out.data).all() and not out.data[1, :2].any()
        assert all(np.isfinite(g).all() for g in grads.values())
        assert not grads["q"][1, :2].any()

    def test_a_far_query_keeps_a_gradient(self):
        # The query's shift keeps its largest feature at s wherever it lies,
        # so a query far from keys near the origin still attends, and its
        # gradient is not 0.
        rng = np.random.default_rng(16)
        q, k, v = (rng.standard_normal((3, 2)) for _ in range(3))
        q[1] = 40.0
        tape = Tape()
        p = bind(tape, q=q, k=k, v=v)
        stats = {}
        out = linear_attention(p["q"], p["k"], p["v"], self.feature_draw(2, 8, seed=15),
                               stats=stats)
        grads = tape.backward((out * tape.const(rng.standard_normal((3, 2)))).sum())
        assert stats["degenerate_rows"] == 0
        assert np.abs(grads["q"][1]).max() > 1e-6


def head_case(rows, hidden=32, heads=4, rff_dim=64, samples=2):
    """(q, k and v as parameters, omega, samples) for ``samples`` samples of
    ``rows`` rows in the head shape of a config's ``hidden``, ``heads`` and
    ``rff_dim``, drawn at unit scale."""
    rng = np.random.default_rng([rows, hidden, heads, rff_dim])
    params = {name: rng.standard_normal((samples * rows, hidden)) for name in "qkv"}
    return params, rng.standard_normal((hidden // heads, rff_dim // 2)), samples


# The default config's head shape (d_h = 8, R = 64) and a small odd one (d_h = 2, R = 10).
HEAD_SHAPES = {"default": {}, "small": dict(hidden=6, heads=3, rff_dim=10)}


class TestAssociationOrder:
    """``linear_attention`` forms phi_Q^T phi_K [V | 1] weights first or
    summary first, whichever needs fewer multiply-adds (``_weights_first``):
    the rule at the default config, and each order against the chain."""

    def test_the_default_config_takes_weights_first_up_to_14_rows(self):
        cfg = TrainConfig()
        rank, d_head = cfg.rff_dim, cfg.hidden // cfg.heads
        assert _weights_first(14, rank, d_head)
        assert not _weights_first(15, rank, d_head)

    @pytest.mark.parametrize("shape", list(HEAD_SHAPES))
    @pytest.mark.parametrize("rows", [1, 5, 8, 14, 15, 128])
    def test_each_order_matches_the_chain(self, rows, shape):
        # Weights first at N <= 14 in the default shape and at N <= 4 in
        # the small one.
        assert_attention_matches_its_chain(*head_case(rows, **HEAD_SHAPES[shape]))

    @pytest.mark.parametrize("rows,weights_first", [(3, True), (6, False)])
    def test_gradients_in_each_order(self, rows, weights_first):
        params, omega, samples = head_case(rows, **HEAD_SHAPES["small"])
        assert _weights_first(rows, 2 * omega.shape[1], omega.shape[0]) == weights_first
        flat, views = flat_views(params)
        probe = np.random.default_rng(3).standard_normal(params["v"].shape)

        def build(tape):
            b = tape.param_vector(flat, views)
            out = linear_attention(b["q"], b["k"], b["v"], omega, samples=samples)
            return (out * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
        assert report.ok, report.lines()

    def test_a_floored_row_in_the_weights_first_order(self):
        # The chain's count of denominators at or below the floor, from its
        # own features, and finite adjoints.
        params, omega, samples = attention_case("floored_weights_first")
        total, d = params["q"].shape
        d_head, half = omega.shape
        rows, heads = total // samples, d // d_head
        assert _weights_first(rows, 2 * half, d_head)
        stats = {}
        probe = np.random.default_rng(4).standard_normal((total, d))
        out, grads = adjoints(lambda b: linear_attention(b["q"], b["k"], b["v"], omega,
                                                         stats=stats, samples=samples),
                              params, probe)
        tape, split = Tape(), (samples, rows, heads, d_head)
        fq, fk = (chain_positive_features(reshape(tape.const(params[name]), split), omega,
                                          keys=name == "k").data for name in "qk")
        chain_count = int((np.einsum("bnhr,bmhr->bnh", fq, fk) <= ATTENTION_EPS).sum())
        assert stats["degenerate_rows"] == chain_count > 0
        assert np.isfinite(out).all()
        assert all(np.isfinite(g).all() for g in grads.values())


class TestRecomputeNodes:
    """The fused nodes that recompute an intermediate in backward instead of
    keeping it (the fused series recomputes its cells' grid times), and the
    queries' features, which read their time encoding's derivative off
    their output: finite-difference checks of every input, outputs bitwise
    equal to the primitives they replace, and adjoints bitwise equal to
    theirs too, except where a product sums in another order than the
    chain's (the grid's projected time encoding, the kernel weights and
    pooling's quotient), which is compared at a tolerance. The queries'
    features, the kernel weights, the fused series and pooling's quotient
    are gradchecked in the tape's primitive table, which has rows for the
    other two as well."""

    def smoothing_inputs(self, seed):
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal((3, 7))
        return taps, {"w1": rng.standard_normal((4, 3)), "b1": rng.standard_normal((4, 1)),
                      "w2": rng.standard_normal((1, 4)), "b2": rng.standard_normal((1, 1))}

    def time_inputs(self, seed, count=9, latest=12.0):
        rng = np.random.default_rng(seed)
        widths = {"te.w_s": 1, "te.b_s": 1, "te.w_f": 3, "te.b_f": 3}
        return (rng.uniform(-3.0, latest, (count, 1)),
                {name: rng.standard_normal((1, w)) for name, w in widths.items()})

    def projection_inputs(self, variant):
        """Times and the encoding's and projection's parameters; ``variant``
        "late" draws 400 times up to 1e4."""
        times, params = (self.time_inputs(8, count=400, latest=1e4) if variant == "late"
                         else self.time_inputs(8))
        params["te.w_t"] = np.random.default_rng(9).standard_normal((7, 1))
        return times, params

    def pool_inputs(self, seed):
        """Pooling's quotient of two samples of three variates on a grid of 6
        times with four kernels: a fused series zero off its mask, in which
        variate 2 of sample 1 is empty and every grid time has an observed
        cell, and positive weights; sample 0's kernel 0 has weights of about
        1e-160, so all its denominators are at or below POOLING_EPS."""
        rng = np.random.default_rng(seed)
        mask = (rng.uniform(size=(2, 3, 6)) < 0.5).astype(np.float64)
        mask[:, 0] = 1.0
        mask[1, 2] = 0.0
        weights = rng.uniform(0.05, 1.0, (2, 4, 6))
        weights[0, 0] *= 1e-160
        assert (np.einsum("nl,l->n", mask[0], weights[0, 0]) <= POOLING_EPS).all()
        return mask.reshape(6, 6), {"xhat": rng.standard_normal((2, 3, 6)) * mask,
                                    "weights": weights}

    def kernel_inputs(self, seed, sigma=None):
        """Times and log-widths for the five centres 0, 0.25, ..., 1. With
        ``sigma``, every kernel has that width and the times lie within a
        few widths of the centres, where such narrow kernels have support."""
        rng = np.random.default_rng(seed)
        if sigma is None:
            t_norm = np.sort(rng.uniform(0.0, 1.0, (2, 7)), axis=1)
            return t_norm, {"pool.log_alpha": np.log(rng.uniform(0.05, 1.0, (1, 5)))}
        near = (np.linspace(0.0, 1.0, 5)[rng.integers(0, 5, (2, 60))]
                + rng.normal(0.0, 3.0 * sigma, (2, 60)))
        return (np.sort(near, axis=1),
                {"pool.log_alpha": np.full((1, 5), np.log(sigma))})

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
        # With a floored row: its denominator lies ~1e-157, far below the
        # floor, so no finite difference steps across it.
        params, omega, samples = attention_case("floored")
        flat, views = flat_views(params)
        probe = np.random.default_rng(3).standard_normal(params["v"].shape)
        stats = {}

        def build(tape):
            b = tape.param_vector(flat, views)
            out = linear_attention(b["q"], b["k"], b["v"], omega, stats=stats, samples=samples)
            return (out * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
        assert report.ok, report.lines()
        assert stats["degenerate_rows"] > 0

    def fused_and_unfused(self, node, variant=""):
        """(parameter arrays, fused node, the primitive chain it replaces);
        ``variant`` "late" draws the times up to 1e4, "narrow" gives the
        kernels a width of 1e-3."""
        centers = np.linspace(0.0, 1.0, 5)[None, :]

        def with_centers(b):
            return {**b, "pool.centers": centers}

        if node == "smoothing_layers":
            taps, params = self.smoothing_inputs(4)
            return (params,
                    lambda b: _smoothing_layers(taps, b["w1"], b["b1"], b["w2"], b["b2"]),
                    lambda b: (b["w2"] @ T.relu(b["w1"] @ b["w1"].tape.const(taps) + b["b1"])
                               + b["b2"]))
        if node == "query_features":
            # Seven queries read three of z's four rows, one of them thrice.
            times, params = self.time_inputs(6, count=7)
            params["z"] = np.random.default_rng(7).standard_normal((4, 5))
            rows = np.array([2, 0, 2, 3, 0, 2, 3])
            return (params,
                    lambda b: query_features(b["z"], rows, times[:, 0], b),
                    lambda b: chain_query_features(b["z"], rows, times[:, 0], b))
        if node == "time_projection":
            times, params = self.projection_inputs(variant)
            return (params,
                    lambda b: time_projection(times, b),
                    lambda b: chain_time_encode(b["te.w_s"].tape.const(times), b) @ b["te.w_t"])
        if node == "pool_quotient":
            mask_rows, params = self.pool_inputs(10)
            return (params,
                    lambda b: _pool_quotient(b["xhat"], b["weights"], mask_rows),
                    lambda b: chain_pool_quotient(b["xhat"], b["weights"], mask_rows))
        t_norm, params = self.kernel_inputs(7, sigma=1e-3 if variant == "narrow" else None)
        return (params,
                lambda b: _kernel_weights(t_norm, with_centers(b)),
                lambda b: chain_kernel_weights(t_norm, with_centers(b)))

    def outputs_and_adjoints(self, node, variant=""):
        """[(output, adjoints)] of the fused node and of its chain under one
        random probe, the parameter names, and the chain's conditions: for
        each adjoint entry, the sum over the probe's entries of the absolute
        adjoint that entry alone gives, which bounds what summing the same
        terms in another order can change; and the probe."""
        params, fused, unfused = self.fused_and_unfused(node, variant)
        shape_tape = Tape()
        probe = np.random.default_rng(6).standard_normal(unfused(
            {k: shape_tape.const(v) for k, v in params.items()}).data.shape)
        results = [adjoints(fn, params, probe) for fn in (fused, unfused)]
        conditions = {name: np.zeros(np.shape(value)) for name, value in params.items()}
        for index in np.ndindex(probe.shape):
            alone = np.zeros_like(probe)
            alone[index] = probe[index]
            _out, grads = adjoints(unfused, params, alone)
            for name in conditions:
                conditions[name] += np.abs(grads[name])
        return results, list(params), conditions, probe

    @staticmethod
    def encoding_moves(times, g_enc, n_lin):
        """How far w_f's and b_f's adjoints can move when every sin and cos
        entry of the encoding moves by up to ENCODING_ATOL, under the
        (M, d_te) adjoint ``g_enc`` of the encoding: each of their terms
        carries one sin or cos factor."""
        pairs = (g_enc.shape[1] - n_lin) // 2
        both = np.abs(g_enc[:, n_lin : n_lin + pairs]) + np.abs(g_enc[:, n_lin + pairs :])
        return {"te.w_f": ENCODING_ATOL * (np.abs(times).T @ both),
                "te.b_f": ENCODING_ATOL * both.sum(axis=0, keepdims=True)}

    @pytest.mark.parametrize("node", ["smoothing_layers", "query_features"])
    def test_fused_node_is_bitwise_its_primitives(self, node):
        # query_features is bitwise its chain but for the time encoding's
        # sin/cos pairs, which ``_encoding`` forms from tan of the half angle
        # where the chain calls sin and cos: those entries differ by at most
        # ENCODING_ATOL, and w_f's and b_f's adjoints, which read them, by
        # what that moves (``encoding_moves``) plus a summation's rounding
        # of the differing terms, bounded by 1e-13 of their condition.
        results, names, conditions, probe = self.outputs_and_adjoints(node)
        (out, grads), (chain_out, chain) = results
        if node == "smoothing_layers":
            # The output and b2's adjoint are the chain's numpy calls. w1's
            # and b1's adjoints come from one (C, 4) product of the relu mask
            # with [g taps ; g], scaled by w2, and w2's multiplies g by the
            # hidden layer through a transposed view where the chain's matmul
            # copies it first: all three sum in another order than the chain.
            # Over 1,000 random draws (up to 40 cells and 20 channels) the
            # error stayed within 4.4e-16 of the condition.
            assert np.array_equal(out, chain_out)
            assert np.array_equal(grads["b2"], chain["b2"])
            for name in ("w1", "b1", "w2"):
                error = np.abs(grads[name] - chain[name])
                assert (error <= 1e-13 * conditions[name]).all(), name
            return
        times, params = self.time_inputs(6, count=7)
        n_lin = params["te.w_s"].shape[1]
        d = out.shape[1] - n_lin - 2 * params["te.w_f"].shape[1]      # z's width
        assert np.array_equal(out[:, : d + n_lin], chain_out[:, : d + n_lin])
        assert (np.abs(out[:, d + n_lin :] - chain_out[:, d + n_lin :]) <= ENCODING_ATOL).all()
        moves = self.encoding_moves(times, probe[:, d:], n_lin)
        for name in names:
            if name in moves:
                error = np.abs(grads[name] - chain[name])
                assert (error <= 1e-13 * conditions[name] + moves[name]).all(), name
            else:
                assert np.array_equal(grads[name], chain[name]), name

    @pytest.mark.parametrize("rows", [[3, 0, 3, 1, 0, 3, 3, 3], []],
                             ids=["out_of_order", "no_queries"])
    def test_query_features_scatter_adds_z_adjoint_in_query_order(self, rows):
        # Rows out of order, row 3 queried five times, rows 2 and 4 never;
        # and a chunk with no queries at all. The probe's entries span 16
        # orders of magnitude, so any other order of the sums would show.
        rows = np.array(rows, dtype=np.intp)
        times, params = self.time_inputs(6, count=rows.size)
        rng = np.random.default_rng(11)
        params["z"] = rng.standard_normal((5, 4))
        width = 4 + params["te.w_s"].shape[1] + 2 * params["te.w_f"].shape[1]
        probe = (rng.standard_normal((rows.size, width))
                 * 10.0 ** rng.uniform(-8.0, 8.0, (rows.size, width)))
        _out, grads = adjoints(lambda b: query_features(b["z"], rows, times[:, 0], b),
                               params, probe)
        expected = np.zeros(params["z"].shape)
        np.add.at(expected, rows, probe[:, :4])
        assert grads["z"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("node,variant", [
        ("kernel_weights", ""), ("kernel_weights", "narrow"),
        ("time_projection", ""), ("time_projection", "late"), ("pool_quotient", ""),
        *(("linear_attention", case) for case in ATTENTION_CASES),
    ], ids=["kernel_weights", "kernel_weights-narrow", "time_projection",
            "time_projection-late", "pool_quotient", "linear_attention-one_row",
            "linear_attention-five_rows", "linear_attention-wide",
            "linear_attention-floored", "linear_attention-tied",
            "linear_attention-floored_weights_first"])
    def test_contracted_node_matches_its_primitives(self, node, variant):
        # These VJPs form their adjoints as contractions (see their
        # docstrings), so they sum in another order than the chain: the
        # adjoints move in their last bits. Each adjoint entry is bounded by
        # its own condition, so a sum that cancels (time_projection's
        # sum(t g) for w_s) may move as far as any reordering can, and a
        # small adjoint beside a large one (b_f beside w_f at times up to
        # 1e4) is still checked to its own size. Over 1,000 random draws of
        # each case the error stayed within 4.5e-16 of the condition. The
        # outputs are bitwise the chain's, except the projection w_t^T enc,
        # whose d_te-term sums run in another order too: it is bounded by
        # its condition |enc| |w_t|, and the encoding it projects is bitwise.
        # Linear attention's cases (N = 1, 4, 5 and 128; 1, 2 and 4 heads;
        # a floored row in each association order; tied first maxima) are
        # bounded as described in ``assert_attention_matches_its_chain``.
        # time_projection's encoding is bitwise the chain's in its linear
        # rows only; each sin and cos entry is within ENCODING_ATOL of the
        # chain's (see ``_encoding``). That moves the projection by at
        # most ENCODING_ATOL sum|w_t|, w_t's adjoint by ENCODING_ATOL sum|g|
        # on the pair rows, and w_f's and b_f's as ``encoding_moves`` says,
        # on top of the reordering bounds above.
        if node == "linear_attention":
            assert_attention_matches_its_chain(*attention_case(variant))
            return
        results, names, conditions, probe = self.outputs_and_adjoints(node, variant)
        moves = dict.fromkeys(names, 0.0)
        if node == "time_projection":
            times, params = self.projection_inputs(variant)
            tape = Tape()
            b = bind(tape, **params)
            encoding = chain_time_encode(tape.const(times), b).data
            n_lin = params["te.w_s"].shape[1]
            fused_encoding = _encoding(times, *(params[n] for n in TE_NAMES)).T
            assert np.array_equal(fused_encoding[:, :n_lin], encoding[:, :n_lin])
            assert (np.abs(fused_encoding[:, n_lin:] - encoding[:, n_lin:])
                    <= ENCODING_ATOL).all()
            w_t = np.abs(params["te.w_t"])
            bound = np.abs(encoding) @ w_t
            assert (bound > 0.0).all()
            moved = ENCODING_ATOL * w_t[n_lin:].sum()
            assert (np.abs(results[0][0] - results[1][0]) <= 1e-13 * bound + moved).all()
            moves.update(self.encoding_moves(times, probe @ params["te.w_t"].T, n_lin))
            moves["te.w_t"] = np.zeros_like(w_t)
            moves["te.w_t"][n_lin:] = ENCODING_ATOL * np.abs(probe).sum()
        else:
            assert np.array_equal(results[0][0], results[1][0])
        chain = results[1][1]
        for name in names:
            assert (conditions[name] > 0.0).all(), name
            error = np.abs(results[0][1][name] - chain[name])
            assert (error <= 1e-13 * conditions[name] + moves[name]).all(), name

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
                  for name in ("te.w_s", "te.b_s", "te.w_f", "te.b_f")}
        # The time encoding is written by the queries' features.
        params["z"] = np.ones((2, 3))
        rows, at = np.array([1]), np.array([times])
        # Where neither raises, the row of z and the linear column are the
        # chain's, and each sin and cos entry is within ENCODING_ATOL of it.
        bound = np.r_[np.zeros(4), np.full(6, ENCODING_ATOL)]
        self.same_failures(lambda b: query_features(b["z"], rows, at, b),
                           lambda b: chain_query_features(b["z"], rows, at, b),
                           params, "query_features", bound)

    @pytest.mark.parametrize("times,scale,bias,weight", [
        (1e308, 10.0, 0.0, 1.0),       # the encoding overflows
        (1e308, 10.0, 0.0, 0.0),       # ... under a zero projection
        (1e200, 1.0, 0.0, 1e200),      # a finite encoding, an overflowing projection
        (1e300, 1.0, 0.0, 1e10),
        (5.0, 1e300, 0.0, 1e-300),     # large but finite arguments of sin and cos
        (3.0, 2.0, -1.0, 1e300),       # a finite projection of sin and cos
    ])
    def test_time_projection_raises_wherever_its_pair_raised(self, times, scale, bias,
                                                             weight):
        params = {name: np.full((1, 1 if name in ("te.w_s", "te.b_s") else 3),
                                bias if ".b_" in name else scale)
                  for name in ("te.w_s", "te.b_s", "te.w_f", "te.b_f")}
        params["te.w_t"] = np.full((7, 1), weight)
        # Where neither raises, the projection is within ENCODING_ATOL of
        # the sin/cos entries times their |w_t|, plus the reordering bound
        # 1e-13 |enc| |w_t| of ``test_contracted_node_matches_its_primitives``.
        with np.errstate(all="ignore"):
            theta = times * scale + bias
            encoding = np.r_[theta, np.full(3, np.sin(theta)), np.full(3, np.cos(theta))]
            bound = 1e-13 * np.abs(encoding) @ np.abs(params["te.w_t"]) \
                + ENCODING_ATOL * 6 * abs(weight)
        self.same_failures(lambda b: time_projection(np.array([[times]]), b),
                           lambda b: chain_time_encode(b["te.w_s"].tape.const([[times]]), b)
                           @ b["te.w_t"], params, "time_projection", bound)

    @pytest.mark.parametrize("tap,weight", [
        (-np.inf, 1.0),       # a -inf tap: max(h, 0) alone would rectify it to 0
        (np.inf, 1.0),
        (np.nan, 1.0),
        (1e200, -1e200),      # the pre-activations overflow to -inf
        (1e200, 1e200),       # ... and to +inf
        (1e200, -1e100),      # large but finite
    ])
    def test_smoothing_layers_raise_wherever_their_chain_raised(self, tap, weight):
        taps = np.array([[tap, 0.5], [tap, -1.0], [tap, 2.0]])
        params = {"w1": np.full((4, 3), weight), "b1": np.zeros((4, 1)),
                  "w2": np.ones((1, 4)), "b2": np.zeros((1, 1))}
        self.same_failures(
            lambda b: _smoothing_layers(taps, b["w1"], b["b1"], b["w2"], b["b2"]),
            lambda b: (b["w2"] @ T.relu(b["w1"] @ b["w1"].tape.const(taps) + b["b1"])
                       + b["b2"]), params, "smoothing_layers")

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
        t_norm = np.array([[0.0, 0.25, 1.0]])
        centers = np.array([[0.25, centre]])

        def with_centers(b):
            return {**b, "pool.centers": centers}

        self.same_failures(lambda b: _kernel_weights(t_norm, with_centers(b)),
                           lambda b: chain_kernel_weights(t_norm, with_centers(b)),
                           {"pool.log_alpha": np.full((1, 2), log_alpha)}, "kernel_weights")

    @pytest.mark.parametrize("series,weights,mask", [
        ([1e308, 1e308], [1.0, 1.0], [1.0, 1.0]),          # the numerator overflows
        ([-1e308, -1e308], [1.0, 0.9], [1.0, 1.0]),
        ([1e308, 1e308], [0.5, 0.5], [1.0, 1.0]),          # large but finite
        ([1.7e308, -1.7e308], [1.0, 1.0], [1.0, 1.0]),     # large terms that cancel
        ([1e300, 0.0], [1.0, 1e-100], [0.0, 1.0]),         # a quotient over a tiny denominator
        ([1e300, 0.0], [1.0, 1e-200], [0.0, 1.0]),         # ... at or below POOLING_EPS
        ([0.0, 0.0], [1.0, 1.0], [0.0, 0.0]),              # an empty variate
    ])
    def test_pool_quotient_raises_wherever_its_chain_raised(self, series, weights, mask):
        # One sample, one variate and one kernel on a grid of 2 times. The
        # node reads the series at every cell, so a value off the mask
        # (which encoding never leaves) still reaches the numerator.
        mask_rows = np.array([mask])
        self.same_failures(lambda b: _pool_quotient(b["xhat"], b["weights"], mask_rows),
                           lambda b: chain_pool_quotient(b["xhat"], b["weights"], mask_rows),
                           {"xhat": np.array([[series]]), "weights": np.array([[weights]])},
                           "pool_quotient")

    @pytest.mark.parametrize("where,value", [
        ("q", np.nan), ("q", np.inf),
        ("q", 1.7e308),    # the projection overflows
        ("q", 1e308),      # the lowest exponent minus its shift overflows
        ("k", np.nan), ("k", -np.inf),
        ("k", 1e154),      # |k|^2 overflows
        ("k", 1e153),      # large but finite
        ("v", np.nan), ("v", np.inf), ("v", 1e300),
        ("omega", np.nan), ("omega", -np.inf), ("omega", 1e300),
    ])
    def test_linear_attention_raises_wherever_its_chain_raised(self, where, value):
        # One sample of three rows, two heads of width 2. Row 1 of q, k or v,
        # or omega's first row, is set to ``value``; q, k and v enter the
        # tape unchecked, so a non-finite one reaches the node. Where
        # neither raises, the outputs agree to 1e-12 of the largest.
        rng = np.random.default_rng(21)
        arrays = {name: rng.standard_normal((3, 4)) for name in "qkv"}
        omega = np.array([[1.0, -0.5], [0.25, 0.75]])
        if where == "omega":
            omega[0] = value
        else:
            arrays[where][1] = value
        results = []
        with np.errstate(all="ignore"):
            for fn in (linear_attention, chain_linear_attention):
                tape = Tape()
                q, k, v = (tape.append("const", arrays[name], (), None) for name in "qkv")
                try:
                    results.append(fn(q, k, v, omega).data)
                except T.NonFiniteError as err:
                    results.append(str(err))
        if isinstance(results[1], str):
            assert results[0] == "linear_attention: produced non-finite values"
        else:
            assert not isinstance(results[0], str), results[0]
            assert (np.abs(results[0] - results[1]) <= 1e-12 * np.abs(results[1]).max()).all()

    def fuse_inputs(self, seed):
        """A chunk of three 4-variate random samples, each on its own grid
        (so the shorter ones carry padded tails), with (1, P) cell values
        and a (B*L, 1) grid projection."""
        rng = np.random.default_rng(seed)
        samples = []
        while len(samples) < 3:
            sample = random_sample(rng, max_variates=4)
            if sample.n_variates == 4:
                samples.append(sample)
        block = chunk_of(samples)[0]
        assert len({align(s).grid_length for s in samples}) > 1
        return block, {"values": rng.standard_normal((1, block.cells.size)),
                       "proj": rng.standard_normal((block.samples * block.grid_length, 1))}

    def fuse(self, block):
        return (lambda b: _fuse_at_cells(b["values"], b["proj"], block, b["values"].tape),
                lambda b: chain_fuse_at_cells(b["values"], b["proj"], block))

    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_fused_series_is_bitwise_its_chain(self, seed):
        # The chain places the values, adds the projection to every cell
        # and multiplies by the mask; these chunks hold empty variates.
        block, params = self.fuse_inputs(seed)
        assert (block.mask.sum(axis=1) == 0).any()
        probe = np.random.default_rng(seed + 10).standard_normal(
            (block.samples, block.n_variates, block.grid_length))
        results = []
        for fn in self.fuse(block):
            tape = Tape()
            out = fn(bind(tape, **params))
            grads = tape.backward((out * tape.const(probe)).sum())
            results.append((out.data, grads))
        assert np.array_equal(results[0][0], results[1][0])
        for name in params:
            assert np.array_equal(results[0][1][name], results[1][1][name]), name

    def test_fused_series_is_zero_off_the_observed_cells(self):
        block, params = self.fuse_inputs(1)
        out = self.fuse(block)[0](bind(Tape(), **params)).data.reshape(-1)
        off = np.ones(out.size, dtype=bool)
        off[block.cells] = False
        assert off.any() and np.all(out[off] == 0.0)

    @pytest.mark.parametrize("values,proj", [
        ([1e308, 0.0], [0.0, 1e308, 0.0, 0.0]),       # a cell's sum overflows
        ([0.0, -1e308], [0.0, 0.0, -1e308, 0.0]),
        ([1e308, 0.0], [0.0, -1e308, 0.0, 0.0]),      # large terms that cancel
        ([0.0, 0.0], [1.7e308, 0.0, 0.0, 1.7e308]),   # large at times no cell reads
        ([1.7e308, 1.0], [1.7e308, 0.0, 0.0, 0.0]),
    ])
    def test_fused_series_raises_wherever_its_chain_raised(self, values, proj):
        # Two samples of two variates on two grid times: cell 1 reads grid
        # time 1, cell 6 (sample 1, variate 1, column 0) grid time 2.
        block = AlignedTriplet(times=np.zeros((2, 2)), cells=np.array([1, 6]),
                               taps=np.zeros((3, 2)), n_variates=2)
        fused, chain = self.fuse(block)
        self.same_failures(fused, chain, {"values": np.array([values]),
                                          "proj": np.array(proj)[:, None]}, "fuse_at_cells")

    def same_failures(self, fused, chain, params, name, bound=0.0):
        """``fused`` raises NonFiniteError, naming itself, exactly where
        ``chain`` raised it, and otherwise gives the chain's values, each
        shaped as they are and each within ``bound`` of them."""
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
            assert not isinstance(results[0], str), results[0]
            assert results[0].shape == results[1].shape
            assert (np.abs(results[0] - results[1]) <= bound).all()


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

    def test_sinusoid_a_chunk_keeps_under_17_30_floats_per_padded_cell(self):
        # A whole 32-sample batch of the reference task (B=32, N=5, L=126)
        # keeps 17.297 floats per padded cell: 17.139 before linear
        # attention kept its (32, 4, 5, 5) weights for backward, 17.393
        # while the queries' time encoding was kept apart from their
        # features. The estimate that budgets chunks is within 1% above the
        # count.
        kept, estimate, cells = self.chunk(generate(PRESETS["sinusoid-a"])[:32], TrainConfig())
        assert kept / 8 / cells < 17.30
        assert kept <= estimate <= 1.01 * kept

    # The small-config row keeps the id it had when rows 2 and 3 turned the
    # convolution and the pool gate off; those switches are deleted. At the
    # default config, N = 14 and 15 lie on either side of linear attention's
    # switch of association order (``_weights_first``), whose middle
    # product the node keeps.
    @pytest.mark.parametrize("cfg_kw,variates", [
        pytest.param(dict(), (1, 3, 7, 14, 15), id="cfg_kw0"),
        pytest.param(dict(heads=1), (1, 3, 7), id="cfg_kw1"),
        pytest.param(dict(hidden=6, heads=3, rff_dim=10, kernels=3, conv_channels=2, time_dim=5,
                          blocks=2), (1, 3, 7), id="cfg_kw4"),
    ])
    def test_estimate_bounds_what_the_tape_keeps(self, cfg_kw, variates):
        default = TrainConfig()
        shape = (default.rff_dim, default.hidden // default.heads)
        assert _weights_first(14, *shape) and not _weights_first(15, *shape)
        rng = np.random.default_rng(13)
        for n in variates:
            samples = []
            while len(samples) < 4:
                sample = random_sample(rng, max_variates=n)
                if sample.n_variates == n and sum(q.size for q in sample.query_times):
                    samples.append(sample)
            kept, estimate, _cells = self.chunk(samples, TrainConfig(**cfg_kw))
            assert kept <= estimate <= 1.1 * kept, (n, kept, estimate)

    def test_a_long_grid_chunk_makes_few_grid_wide_temporaries(self):
        # Two samples of 8 sparse variates on a grid of 4,810 times, as in
        # the long-grid benchmark: the forward's and the backward's
        # temporaries peak at ~0.3 and ~41.1 floats per padded grid time
        # (B*L). Grid-wide nodes that made a throwaway array per numpy call
        # peaked at ~14.4 and ~50.1; a forward that formed the fused series
        # on every cell and then masked it, at ~8.3 and ~41.9; VJPs that
        # formed the grid's (B*L, d_te) encoding adjoint and recomputed the
        # (B, L, K) kernel exponent, at ~0.3 and ~42.9.
        spec = SynthSpec(n_variates=8, n_samples=4, split=(2, 1, 1), mean_observations=600.0,
                         mode="independent", seed=1)
        samples = generate(spec)[:2]
        padded, queries = chunk_of(samples)
        model, tape = ModelParams.init(TrainConfig(), seed=0), Tape()
        res, forward_peak = transient_bytes(lambda: forward(tape, model, padded, queries))
        loss = build_loss(res, np.concatenate([t for s in samples for t in s.query_targets]))
        _grads, backward_peak = transient_bytes(lambda: tape.backward(loss))
        grid = padded.samples * padded.grid_length
        assert padded.grid_length == 4810
        assert forward_peak / 8 / grid < 1.0
        assert backward_peak / 8 / grid < 46.0

    def test_time_projection_backward_peaks_under_6_floats_per_grid_time(self):
        # 20,000 grid times at the default width: with the loss's mul, the
        # backward's temporaries peak at ~3.0 floats per grid time. A VJP
        # that formed the (M, d_te) encoding adjoint and the (M, P) pair
        # adjoints peaked at ~31.8.
        length = 20_000
        rng = np.random.default_rng(2)
        shapes, _buffers = layout(TrainConfig())
        tape = Tape()
        p = bind(tape, **{name: rng.standard_normal(shapes[name][0])
                          for name in ("te.w_s", "te.b_s", "te.w_f", "te.b_f", "te.w_t")})
        out = time_projection(rng.uniform(0.0, 50.0, (length, 1)), p)
        loss = (out * tape.const(rng.standard_normal((length, 1)))).sum()
        _grads, peak = transient_bytes(lambda: tape.backward(loss))
        assert peak / 8 / length <= 6.0

    def test_kernel_weights_backward_peaks_under_6_floats_per_weight(self):
        # 2,000 kernels on a grid of 3 times: with the loss's mul, the
        # backward's temporaries peak at ~4.0 floats per (time, kernel)
        # weight; a VJP that recomputed the (B, L, K) exponent, at ~5.0. One
        # that formed a (K, K) product of the distances and g w to read its
        # diagonal would need ~670.
        kernels, rng = 2000, np.random.default_rng(3)
        tape = Tape()
        p = {**bind(tape, **{"pool.log_alpha": np.full((1, kernels), np.log(1.0 / kernels))}),
             "pool.centers": np.linspace(0.0, 1.0, kernels)[None, :]}
        weights = _kernel_weights(rng.uniform(0.0, 1.0, (1, 3)), p)
        loss = (weights * tape.const(rng.standard_normal((1, kernels, 3)))).sum()
        _grads, peak = transient_bytes(lambda: tape.backward(loss))
        assert peak / 8 / weights.data.size <= 6.0


def dense_triplet(n, length, seed=0):
    """Every variate observed at every grid time."""
    rng = np.random.default_rng([seed, n, length])
    return grid_triplet(rng.standard_normal((length, n)).T.copy(), np.ones((n, length)),
                        np.linspace(0.0, 1.0, length)[None, :])


class TestCountedCost:
    """The paper's cost claims as counts, not timings: one forward's
    recorded floats grow linearly in the variate count N and the grid
    length L, no node holds N^2 entries (quadratic attention would), and
    the node and parameter counts do not depend on N or L."""

    def record(self, monkeypatch, n, length, queries=2):
        """Sizes of every node one forward appends, its tape, and the ops of
        those nodes that ran the finiteness check (``Tape.record``)."""
        sizes, checked = [], []
        append, record = Tape.append, Tape.record

        def spy_append(self, op, data, *args, **kwargs):
            out = append(self, op, data, *args, **kwargs)
            sizes.append(out.data.size)
            return out

        def spy_record(self, op, *args, **kwargs):
            checked.append(op)
            return record(self, op, *args, **kwargs)

        monkeypatch.setattr(Tape, "append", spy_append)
        monkeypatch.setattr(Tape, "record", spy_record)
        tape = Tape()
        times = [np.linspace(1.01, 1.2, queries) for _ in range(n)]
        forward(tape, ModelParams.init(TrainConfig(), seed=0), dense_triplet(n, length), times)
        monkeypatch.undo()
        return sizes, tape, checked

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
        # query records 66 nodes. 29 run the finiteness check, all of them
        # nodes that compute, among them pooling's quotient, linear
        # attention (one node for the two feature maps, the quotient and
        # the four reshapes around them) and the queries' features (one
        # node for the gather of z's rows, the time encoding and the
        # concat). No time enters as a constant: the grid's and the
        # queries' times are read as plain arrays by the nodes that encode
        # them, which check the encoding. The 28 parameter leaves share one
        # check of the flat vector, the frozen buffers are read as plain
        # arrays, the convolution reads the block's taps unchecked (its
        # layers' node checks their output), pooling's mask is read inside
        # its quotient's node, the 3 constants the forward builds finite
        # itself (pooling's flags and the DFT pair) enter unchecked, and of
        # the other 6 nodes, two check only what they compute (the fused
        # series' sums at the observed cells and the kernel exponent) and
        # the rest only move, select or clamp finite values.
        sizes, tape, checked = self.record(monkeypatch, 1, 2, queries=1)
        assert len(sizes) == len(tape.nodes) == 66
        assert len(checked) == 29 and "const" not in checked


def positive_phi(m, omega, keys=False):
    """The feature map written out: s [exp(m omega - |m|^2), exp(-m omega - |m|^2)],
    s = 1/sqrt(2R), with the exponents of each row (queries) or of all the
    rows (keys) shifted to a largest value of 0."""
    proj = m @ omega
    sq = (m * m).sum(axis=1, keepdims=True)
    ex = np.concatenate([proj - sq, -proj - sq], axis=1)
    ex -= ex.max() if keys else ex.max(axis=1, keepdims=True)
    return np.exp(ex) / np.sqrt(4 * omega.shape[1])


class TestLinearAttention:
    def draw(self, n, d_h, r, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((n, d_h)),
            rng.standard_normal((n, d_h)),
            rng.standard_normal((n, d_h)),
            rng.standard_normal((d_h, r // 2)),
        )

    def test_single_key_returns_its_value(self):
        tape = Tape()
        q, k, v, omega = self.draw(1, 4, 16, seed=0)
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v), omega).data
        assert np.abs(out - v).max() < 1e-5  # exact above the ATTENTION_EPS floor

    def test_identical_keys_average_the_values(self):
        tape = Tape()
        q, k, v, omega = self.draw(6, 4, 32, seed=1)
        k_same = np.tile(k[:1], (6, 1))
        out = linear_attention(tape.const(q), tape.const(k_same), tape.const(v), omega).data
        assert np.abs(out - v.mean(axis=0)).max() < 1e-5

    def test_linear_order_equals_quadratic_order(self):
        for seed in range(10):
            tape = Tape()
            q, k, v, omega = self.draw(6, 8, 32, seed=seed)
            out = linear_attention(tape.const(q), tape.const(k), tape.const(v), omega).data
            raw = positive_phi(q, omega) @ positive_phi(k, omega, keys=True).T
            expected = (raw @ v) / np.maximum(raw.sum(axis=1, keepdims=True), 1e-6)
            assert np.abs(out - expected).max() < 1e-10

    def test_degenerate_denominator_counted(self):
        # One frequency, (1, 1, 1, 1): the queries project to +400 and +480
        # and the keys to -400, so the queries' features vanish where the
        # keys' peak and each product underflows to 0: both rows collapse.
        tape = Tape()
        _q, _k, v, _omega = self.draw(2, 4, 8, seed=2)
        q = np.array([[100.0] * 4, [120.0] * 4])
        stats = {}
        linear_attention(tape.const(q), tape.const(np.full((2, 4), -100.0)),
                         tape.const(v), np.ones((4, 1)), stats=stats)
        assert stats["degenerate_rows"] == 2

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 5, 128])
    def test_head_batched_equals_per_head_loop(self, heads, n):
        d_h, r = 8, 64
        rng = np.random.default_rng([heads, n])
        q, k, v = (rng.standard_normal((n, heads * d_h)) for _ in range(3))
        omega = rng.standard_normal((d_h, r // 2))
        tape = Tape()
        out = linear_attention(tape.const(q), tape.const(k), tape.const(v), omega).data

        for h in range(heads):
            cols = slice(h * d_h, (h + 1) * d_h)
            pq, pk = positive_phi(q[:, cols], omega), positive_phi(k[:, cols], omega, keys=True)
            expected = (pq @ (pk.T @ v[:, cols])) / np.maximum(pq @ pk.sum(axis=0)[:, None], 1e-6)
            assert np.abs(out[:, cols] - expected).max() < 1e-10

    def test_degenerate_rows_counted_per_row_and_head(self):
        # One frequency: the keys lie at -400 and -390 in both heads, so
        # their features are s [0, 1] and 0, and a query at 400 has features
        # s [1, 0]: query 0 collapses in head 0 and query 1 in head 1, while
        # the queries near the origin give well-conditioned denominators.
        q = np.array([[400.0, 0.3], [0.7, 400.0]])
        k = np.array([[-400.0, -400.0], [-390.0, -390.0]])
        v = np.ones((2, 2))
        omega = np.ones((1, 1))
        tape = Tape()
        batched = {}
        linear_attention(tape.const(q), tape.const(k), tape.const(v), omega, stats=batched)
        per_head = {}
        for h in range(2):
            cols = slice(h, h + 1)
            linear_attention(tape.const(q[:, cols]), tape.const(k[:, cols]),
                             tape.const(v[:, cols]), omega, stats=per_head)
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
            pq, pk = positive_phi(q, omega), positive_phi(k, omega, keys=True)
            num = pq @ (pk.T @ v)
            den = pq @ pk.sum(axis=0)[:, None]
            heads.append(num / np.maximum(den, 1e-6))
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
        triplet = grid_triplet(values, mask, times)
        queries = [np.sort(rng.uniform(1.0, 1.5, size=2)) for _ in range(n)]
        cfg = block_config()
        model = ModelParams.init(cfg, seed=7)

        base = forward(Tape(), model, triplet, queries)
        perm = np.random.default_rng(8).permutation(n)
        permuted = grid_triplet(values[perm], mask[perm], times)
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

    def test_forward_and_backward_leave_the_block_unchanged(self):
        # A block of one is the sample's own aligned arrays (no copy), and
        # ``train`` re-reads them every epoch.
        rng = np.random.default_rng(12)
        sample = random_sample(rng, max_variates=3, allow_empty_variates=False)
        while not sum(q.size for q in sample.query_times):
            sample = random_sample(rng, max_variates=3, allow_empty_variates=False)
        model = ModelParams.init(block_config(), seed=12)
        block = align(sample)
        before = [arr.copy() for arr in (block.times, block.cells, block.taps)]
        tape = Tape()
        res = forward(tape, model, block, sample.query_times)
        tape.backward(build_loss(res, np.concatenate(sample.query_targets)))
        after = (block.times, block.cells, block.taps)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_tap_raises(self, bad):
        # The layout is data the forward reads unchecked: the convolution's
        # node must raise.
        sample, model = self.sample_and_model(seed=13)
        block = align(sample)
        taps = block.taps.copy()
        taps[1, taps.shape[1] // 2] = bad
        with pytest.raises(T.NonFiniteError):
            forward(Tape(), model, replace(block, taps=taps), sample.query_times)

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

    def test_per_variate_arrays_share_one_copy_the_tape_does_not_hold(self):
        sample, model = self.sample_and_model(seed=10)
        res = forward(Tape(), model, align(sample), sample.query_times)
        parts = res.per_variate()
        assert all(part.base is parts[0].base is not None for part in parts)
        assert not any(np.shares_memory(part, res.predictions.data) for part in parts)
        assert np.array_equal(np.concatenate(parts), res.predictions.data.ravel())

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
        assert model.flat.size == expected_param_count(cfg) == param_count_closed_form(cfg)

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
        ("old_format", "cos/sin random-feature map.*retrain"),
        # save writes each entry's data as a flat list of floats; np.asarray
        # coerced the first four, and eval exited 0; an integer beyond float
        # range ended in an OverflowError traceback.
        *[(f"{section}_{kind}", f"malformed {section} entry")
          for section in ("params", "buffers")
          for kind in ("string", "bool", "nested", "bare", "hugeint")],
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
                doc["params"]["head.w2"] = {"shape": [2, 2], "data": [0.0] * 4}
            elif damage == "huge_blocks":
                doc["config"]["blocks"] = 10**12
            elif damage == "old_format":
                doc["format"] = "imtscast-checkpoint-1"
            elif damage.startswith(("params_", "buffers_")):
                section, kind = damage.split("_")
                entry = doc[section]["conv.b2" if section == "params" else "pool.centers"]
                size = len(entry["data"])
                entry["data"] = {"string": ["0.5"] * size, "bool": [True] * size,
                                 "nested": [[0.5]] * size, "bare": 0.5,
                                 "hugeint": [10**400] * size}[kind]
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
        model.arrays["head.w2"][0, 0] = 7.5
        assert 7.5 in model.flat
        twin = model.copy()
        twin.flat[:] = 0.0
        assert model.arrays["head.w2"][0, 0] == 7.5 and not twin.arrays["head.w2"].any()
        tape = Tape()
        bound = model.bind(tape)
        assert all(np.shares_memory(bound[name].data, model.flat) for name in model.arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_parameter_raises_at_bind(self, value):
        model = ModelParams.init(block_config(), seed=13)
        model.arrays["pool.w_proj"][0, 1] = value
        rng = np.random.default_rng(14)
        sample = random_sample(rng, allow_empty_variates=False)
        tape = Tape()
        with pytest.raises(T.NonFiniteError, match="^param pool.w_proj: non-finite"):
            forward(tape, model, align(sample), sample.query_times)
        assert len(tape.nodes) == 0

    @pytest.mark.parametrize("name,node", [("pool.centers", "kernel_weights"),
                                           ("blocks.0.omega", "linear_attention")])
    def test_a_non_finite_buffer_raises_at_the_node_that_reads_it(self, name, node):
        # Buffers enter no tape; a value written into one after init is
        # caught by the node that reads it.
        model = ModelParams.init(block_config(), seed=13)
        model.buffers[name][0, 1] = np.nan
        sample = random_sample(np.random.default_rng(14), allow_empty_variates=False)
        with pytest.raises(T.NonFiniteError, match=f"^{node}: produced non-finite"):
            forward(Tape(), model, align(sample), sample.query_times)

    def test_a_huge_block_count_is_refused_before_its_layout_is_listed(self, monkeypatch):
        # The memory check counts floats from the layout at one and two
        # blocks; listing ten million blocks would take minutes and GBs.
        listed = []

        def recording_layout(cfg):
            listed.append(cfg.blocks)
            return layout(cfg)

        monkeypatch.setattr(model_module, "layout", recording_layout)
        _layout_floats.cache_clear()
        with pytest.raises(ConfigError, match="more than fit in this machine"):
            ModelParams.init(TrainConfig(blocks=10**7))
        assert sorted(listed) == [1, 2]
        for blocks in (1, 2, 5):
            cfg = block_config(blocks=blocks)
            model = ModelParams.init(cfg)
            stored = model.flat.size + sum(b.size for b in model.buffers.values())
            assert (expected_param_count(cfg), _stored_floats(cfg)) == (
                model.flat.size, stored)

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
        assert set(model.buffers) == {"pool.centers", "blocks.0.omega"}


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

