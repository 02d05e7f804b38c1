import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import imtscast.tape as T
from imtscast.data import AlignedTriplet
from imtscast.model import (
    _fuse_at_cells,
    _kernel_weights,
    _pool_quotient,
    _smoothing_layers,
    linear_attention,
    query_features,
    time_projection,
)
from conftest import bind
from oracles import div, narrow, place, reshape, sigmoid, take_rows, transpose

from imtscast.tape import NonFiniteError, ShapeError, Tape, TapeError, flat_views, grad_check


def const(tape, x):
    return tape.const(np.asarray(x, dtype=float))


class TestForward:
    def test_relu_definition(self):
        tape = Tape()
        out = T.relu(const(tape, [-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_matmul_identity(self):
        tape = Tape()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5))
        out = T.matmul(const(tape, np.eye(3)), const(tape, a))
        assert np.array_equal(out.data, a)

    def test_layernorm_constant_vector_is_zero(self):
        tape = Tape()
        out = T.layernorm(const(tape, [[4.0, 4.0, 4.0, 4.0]]))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_layernorm_raises_on_a_finite_row_whose_variance_overflows(self):
        tape = Tape()
        with pytest.raises(NonFiniteError, match="^layernorm: produced non-finite values"):
            T.layernorm(const(tape, [[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]]))

    def test_layernorm_of_finite_variances_is_the_plain_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 5)) * np.array([[1e-300], [1e-3], [1.0], [1e3], [1e150],
                                                    [1.3e153]])
        xc = x - x.mean(axis=-1, keepdims=True)
        want = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYERNORM_EPS)
        assert np.array_equal(T.layernorm(const(Tape(), x)).data, want)

    def test_shape_mismatch_names_the_primitive(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(const(tape, np.ones((2, 3))), const(tape, np.ones((2, 3))))
        for op, fn in (("add", T.add), ("sub", T.sub), ("mul", T.mul), ("div", div)):
            with pytest.raises(ShapeError, match=rf"{op}: shapes \(2, 3\) and \(4,\)"):
                fn(const(tape, np.ones((2, 3))), const(tape, np.ones((4,))))

    def test_non_finite_result_rejected(self):
        tape = Tape()
        with pytest.raises(NonFiniteError, match="div"):
            div(const(tape, [1.0]), const(tape, [0.0]))

    def test_broadcasting_binary_ops(self):
        tape = Tape()
        out = const(tape, np.ones((3, 4))) * const(tape, [[2.0, 3.0, 4.0, 5.0]])
        assert np.array_equal(out.data, np.tile([2.0, 3.0, 4.0, 5.0], (3, 1)))


class TestBackward:
    def test_quadratic(self):
        tape = Tape()
        w = bind(tape, w=np.array([1.0, 2.0]))["w"]
        loss = (w * w).sum()
        grads = tape.backward(loss)
        assert grads["w"].tolist() == [2.0, 4.0]

    def test_unreachable_parameter_gets_zeros(self):
        tape = Tape()
        p = bind(tape, w=np.array([1.0, 2.0]), unused=np.array([[3.0]]))
        grads = tape.backward((p["w"] * p["w"]).sum())
        assert grads["unused"].tolist() == [[0.0]]

    def test_loss_must_be_scalar(self):
        tape = Tape()
        w = bind(tape, w=np.array([1.0, 2.0]))["w"]
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(w * w)

    def test_parent_from_other_tape_rejected(self):
        tape, other = Tape(), Tape()
        with pytest.raises(TapeError, match="^add: parent tensor belongs to a different tape"):
            const(tape, [1.0]) + const(other, [2.0])

    def test_loss_from_other_tape_rejected(self):
        tape = Tape()
        other = Tape()
        loss = const(other, 1.0).sum()
        with pytest.raises(TapeError, match="different tape"):
            tape.backward(loss)

    def test_backward_is_linear(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4,))

        def grad_of(a, b):
            tape = Tape()
            w = bind(tape, w=x)["w"]
            f = (w * w).sum()
            g = sigmoid(w).sum()
            return tape.backward(f * a + g * b)["w"]

        ga = grad_of(1.0, 0.0)
        gb = grad_of(0.0, 1.0)
        mixed = grad_of(2.5, -1.5)
        assert np.allclose(mixed, 2.5 * ga - 1.5 * gb, atol=1e-12)

    def test_replaying_same_tape_program_is_bitwise_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6))
        w = rng.standard_normal((6, 3))

        def run():
            tape = Tape()
            wt = bind(tape, w=w)["w"]
            out = T.relu(const(tape, x) @ wt)
            loss = T.layernorm(out).sum()
            return loss.data.copy(), tape.backward(loss)["w"]

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_fanout_accumulates(self):
        tape = Tape()
        w = bind(tape, w=np.array([3.0]))["w"]
        loss = (w * w + w * 2.0).sum()  # d/dw = 2w + 2
        assert tape.backward(loss)["w"].tolist() == [8.0]


TE_NAMES = ("te.w_s", "te.b_s", "te.w_f", "te.b_f")
TIMES = np.linspace(-1.0, 2.0, 5)[:, None]
T_NORM = np.linspace(0.0, 1.0, 6).reshape(2, 3)
CENTERS = np.linspace(0.0, 1.0, 4)[None, :]
OMEGA = np.random.default_rng(7).standard_normal((4, 3))
TAPS = np.random.default_rng(9).standard_normal((3, 5))
BIG = 1.7e308   # twice this overflows


def query_features_of_rows(t):
    """The five queries' features from a (6, 3) tensor: z from its first
    two rows, gathered with a repeat and in reverse, and the four ``te.*``
    parameters from the other rows, scalar linear terms and three sin/cos
    pairs."""
    p = {name: narrow(t, np.s_[i + 2 : i + 3, : 1 if i < 2 else 3])
         for i, name in enumerate(TE_NAMES)}
    return query_features(narrow(t, np.s_[:2]), np.array([1, 0, 0, 1, 1]), TIMES[:, 0], p)


def time_projection_of_rows(t):
    """The projected time encoding with its parameters taken from a (5, 7)
    tensor: the encoding's from the first four rows, scalar linear terms
    and three sin/cos pairs, and the (7, 1) projection from the fifth."""
    p = {name: narrow(t, np.s_[i : i + 1, : 1 if i < 2 else 3])
         for i, name in enumerate(TE_NAMES)}
    p["te.w_t"] = reshape(narrow(t, np.s_[4:5, :]), (7, 1))
    return time_projection(TIMES, p)


def smoothing_of_blocks(t):
    """Both conv layers, three channels, with w1, b1, w2 and b2 the four
    blocks of a (4, 4) tensor split after its third row and column."""
    w1, b1 = narrow(t, np.s_[:3, :3]), narrow(t, np.s_[:3, 3:])
    w2, b2 = narrow(t, np.s_[3:, :3]), narrow(t, np.s_[3:, 3:])
    return _smoothing_layers(TAPS, w1, b1, w2, b2)


# Two samples of two variates on a grid of 3 times, with cells at flat
# indices of the (4, 3) grid: sample 1's first variate is empty, so its grid
# time 0 meets no cell, and sample 0's time 2 meets two.
FUSE_BLOCK = AlignedTriplet(times=np.zeros((2, 3)), cells=np.array([0, 2, 4, 5, 10, 11]),
                            taps=np.zeros((3, 6)), n_variates=2)


def fuse_of_entries(t):
    """The fused series with the six cells' values from the first six
    entries of a (1, 12) tensor and the (6, 1) grid projection from the rest."""
    return _fuse_at_cells(narrow(t, np.s_[:, :6]), reshape(narrow(t, np.s_[:, 6:]), (6, 1)),
                          FUSE_BLOCK, t.tape)


# Two samples of two variates on a grid of 3 times: sample 1's variate 1 is
# empty, so its denominators are 0 and pool to their numerators, and every
# grid time of each sample has an observed cell.
POOL_MASK = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def pool_quotient_of_stack(t):
    """Pooling's quotient with two kernels, from a (2, 4, 3) tensor: the
    fused series from rows 0-1 of each sample, zeroed off ``POOL_MASK``'s
    cells, and positive weights from a function of rows 2-3."""
    series = narrow(t, np.s_[:, :2]) * POOL_MASK.reshape(2, 2, 3)
    weights = narrow(t, np.s_[:, 2:])
    return _pool_quotient(series, weights * weights + 0.5, POOL_MASK)


def attention_of_rows(samples):
    """Linear attention of ``samples`` samples with q, k and v the three
    column blocks of a (B*N, 3d) tensor; OMEGA's d_h = 4 sets the heads."""
    def attend(t):
        d = t.data.shape[1] // 3
        q, k, v = (narrow(t, np.s_[:, i * d : (i + 1) * d]) for i in range(3))
        return linear_attention(q, k, v, OMEGA, samples=samples)
    return attend


PRIMITIVE_CASES = [
    ("relu", lambda t: T.relu(t), (3, 4)),
    ("sigmoid", lambda t: sigmoid(t), (3, 4)),
    # The model's fused nodes built on one input tensor.
    ("query_features", lambda t: query_features_of_rows(t), (6, 3)),
    # Two samples of three rows, two heads. Ids carry the row's position:
    # the three linear_attention rows reuse the slots of the feature maps'
    # and the attention quotient's rows, which that one node replaced.
    ("linear_attention", attention_of_rows(2), (6, 24)),
    ("kernel_weights", lambda t: _kernel_weights(
        T_NORM, {"pool.log_alpha": t, "pool.centers": CENTERS}), (1, 4)),
    ("sum_all", lambda t: reshape(t.sum(), (1, 1)), (3, 4)),
    ("sum_axis0", lambda t: t.sum(axis=0, keepdims=True), (3, 4)),
    ("sum_axis1", lambda t: t.sum(axis=1), (3, 4)),
    ("layernorm", lambda t: T.layernorm(t), (3, 4)),
    # Ids carry the row's position, so a retired row's slot is reused rather
    # than shifting the rows after it. The two fused nodes that take several
    # inputs, each fed from one tensor.
    # Three samples of one row each: every key group is a single key.
    ("linear_attention_one_row", attention_of_rows(3), (3, 24)),
    ("reshape", lambda t: reshape(t, (2, 6)), (3, 4)),
    ("smoothing_layers", smoothing_of_blocks, (4, 4)),
    ("broadcast", lambda t: t * np.arange(1.0, 6.0).reshape(5, 1, 1), (2, 4)),
    # A constant as the left operand of mul, whose adjoint the VJP skips.
    # Ids carry the row's position: keep this row in slot 13.
    ("mul_const_left", lambda t: T.mul(t.tape.const(np.linspace(-1.0, 2.0, 4)), t), (3, 4)),
    ("take_rows", lambda t: take_rows(t, np.array([0, 2, 2, 1])), (3, 4)),
    ("matmul", lambda t: t @ np.arange(12.0).reshape(4, 3), (3, 4)),
    ("div_const", lambda t: div(t, np.linspace(1.0, 2.0, 4)), (3, 4)),
    ("concat_self", lambda t: T.concat([t, t * 2.0], axis=1), (3, 4)),
    # A quotient by a broadcast column of its own input.
    ("div_column_self", lambda t: div(t, (t * t).sum(axis=1, keepdims=True) + 1.0), (3, 4)),
    ("fuse_at_cells", lambda t: fuse_of_entries(t), (1, 12)),
    ("add_self", lambda t: t + t * t, (3, 4)),
    ("sub_self", lambda t: t - t * t, (3, 4)),
    ("div_self", lambda t: div(t, t * t + 1.0), (3, 4)),
    ("matmul_stacked", lambda t: t @ np.arange(24.0).reshape(2, 4, 3), (2, 3, 4)),
    # t on both sides also checks the right operand's adjoint of a stacked matmul.
    ("matmul_stacked_self", lambda t: t @ reshape(t, (2, 4, 3)), (2, 3, 4)),
    # A constant as the left operand, whose adjoint the VJP skips.
    ("matmul_const_left", lambda t: T.matmul(t.tape.const(np.arange(6.0).reshape(2, 3)), t),
     (3, 4)),
    ("sub_const_left", lambda t: T.sub(t.tape.const(1.0), t), (3, 4)),
    ("div_const_left", lambda t: div(t.tape.const(1.0), t * t + 1.0), (3, 4)),
    ("concat_const_first", lambda t: T.concat([t.tape.const(np.ones((3, 2))), t], axis=1),
     (3, 4)),
    # One sample of five rows, one head.
    ("linear_attention_one_head", attention_of_rows(1), (5, 12)),
    ("time_projection", time_projection_of_rows, (5, 7)),
    ("pool_quotient", pool_quotient_of_stack, (2, 4, 3)),
]


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
def test_every_primitive_passes_gradient_check(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.standard_normal(shape)
    # Project to a scalar with fixed random weights to cover the Jacobian.
    probe = rng.standard_normal(fn(Tape().const(x)).data.shape)

    flat, views = flat_views({"x": x})

    def build(tape):
        return (fn(tape.param_vector(flat, views)["x"]) * tape.const(probe)).sum()

    report = grad_check(build, flat, views, step=1e-5, tol=1e-5)
    assert report.ok, report.lines()


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
def test_no_vjp_writes_into_the_adjoint_it_receives(name, fn, shape):
    # ``add``'s VJP hands one array to both parents, and ``backward`` keeps
    # a node's adjoint while its closure runs: a VJP that wrote into its
    # ``g`` would corrupt a sibling's gradient. Every closure here gets a
    # read-only view, so such a write raises, and the gradient must equal
    # the one of an unguarded backward.
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.standard_normal(shape)
    probe = rng.standard_normal(fn(Tape().const(x)).data.shape)

    def read_only(vjp):
        def guarded(g):
            g = g.view()
            g.setflags(write=False)
            return vjp(g)
        return guarded

    grads = []
    for guard in (False, True):
        tape = Tape()
        loss = (fn(bind(tape, x=x)["x"]) * tape.const(probe)).sum()
        if guard:
            tape.nodes[:] = [(parents, None if vjp is None else read_only(vjp))
                             for parents, vjp in tape.nodes]
        grads.append(tape.backward(loss)["x"])
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
def test_every_primitive_frees_its_tape(name, fn, shape):
    # A VJP closure that captured a Tensor would tie the tape into a
    # reference cycle, which only the cyclic garbage collector breaks.
    x = np.random.default_rng(0).standard_normal(shape)
    gc.disable()
    try:
        for grad in (True, False):
            tape = Tape(grad=grad)
            loss = fn(bind(tape, x=x)["x"]).sum()
            if grad:
                tape.backward(loss)
            ref = weakref.ref(tape)
            del tape, loss
            assert ref() is None, grad
    finally:
        gc.enable()


class TestGradientFlags:
    def test_flags_follow_the_parents(self):
        tape = Tape()
        w, c = bind(tape, w=np.ones(2))["w"], const(tape, np.ones(2))
        assert (w.needs_grad, c.needs_grad) == (True, False)
        assert (c * c).needs_grad is False and (c * w).needs_grad is True
        assert tape.nodes[(c + c)._index] == ((), None)
        parents, vjp = tape.nodes[(c * w)._index]
        assert parents == (None, w._index) and vjp is not None

    def test_custom_vjp_with_an_adjoint_for_a_constant_gives_the_same_gradients(self):
        # ``record`` is public: a VJP that ignores the flags and returns an
        # adjoint for every parent must still work.
        rng = np.random.default_rng(10)
        x, c = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))

        def scale(t, k):
            td, kd = t.data, k.data
            return t.tape.record("scale", td * kd, (k, t), lambda g: (g * td, g * kd))

        grads = []
        for op in (lambda t, k: scale(t, k), lambda t, k: k * t):
            tape = Tape()
            w = bind(tape, w=x)["w"]
            grads.append(tape.backward((sigmoid(op(w, const(tape, c))) * w).sum())["w"])
        assert np.array_equal(grads[0], grads[1])

    def test_no_grad_tape_records_the_same_values_and_no_closures(self):
        from conftest import random_sample

        from imtscast.config import TrainConfig
        from imtscast.data import align
        from imtscast.model import ModelParams, forward

        rng = np.random.default_rng(11)
        sample = random_sample(rng, max_variates=3)
        while not sum(q.size for q in sample.query_times):
            sample = random_sample(rng, max_variates=3)
        model = ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                             conv_channels=2, time_dim=4, blocks=2))
        taped, bare = Tape(), Tape(grad=False)
        want = forward(taped, model, align(sample), sample.query_times).predictions
        got = forward(bare, model, align(sample), sample.query_times).predictions
        assert np.array_equal(got.data, want.data)
        assert len(bare.nodes) == len(taped.nodes)
        assert all(node == ((), None) for node in bare.nodes)
        assert not any(t.needs_grad for t in (got, bind(bare, extra=np.ones(1))["extra"]))
        with pytest.raises(TapeError, match="grad=False"):
            bare.backward(got.sum())


def test_stacked_matmul_matches_per_entry_matmul():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4, 5))
    tape = Tape()
    out = (transpose(const(tape, a)) @ const(tape, b)).data
    for i in range(3):
        assert np.abs(out[i] - a[i].T @ b[i]).max() < 1e-14
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(const(tape, a), const(tape, b))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(transpose(const(tape, a[:2])), const(tape, b))


def test_every_primitive_the_model_records_is_in_the_table(monkeypatch):
    """The primitive table gradchecks exactly the ops a training step and
    ``attention_maps`` record: an unused primitive or an unchecked one fails.
    Some rows take their inputs with the oracle ``narrow`` node, and the
    ``div_*``, ``reshape`` and ``take_rows`` rows check the oracle ``div``,
    ``reshape`` and ``take_rows`` nodes that the chains the fused nodes
    replace are built with; the ``sigmoid`` row checks the oracle
    ``sigmoid``, which the tape's tests use as a bounded primitive. The
    table reaches all five, but none is a primitive of the tape."""
    from conftest import chunk_of, random_sample

    from imtscast.config import TrainConfig
    from imtscast.data import align
    from imtscast.model import ModelParams, attention_maps, forward
    from imtscast.train import build_loss

    ops: set[str] = set()
    append = Tape.append   # every node, checked or not, is appended here

    def spy(self, op, *args, **kwargs):
        ops.add(op)
        return append(self, op, *args, **kwargs)

    monkeypatch.setattr(Tape, "append", spy)
    rng = np.random.default_rng(9)
    samples = []
    while len(samples) < 3:
        sample = random_sample(rng, max_variates=3)
        if sample.n_variates == 3 and sum(q.size for q in sample.query_times):
            samples.append(sample)
    model = ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                         conv_channels=2, time_dim=4, blocks=2))
    tape = Tape()
    res = forward(tape, model, *chunk_of(samples))
    tape.backward(build_loss(res, np.concatenate([t for s in samples for t in s.query_targets])))
    attention_maps(model, align(samples[0]), samples[0].query_times)
    model_ops, ops = ops, set()

    for _name, fn, shape in PRIMITIVE_CASES:
        fn(bind(Tape(), x=np.ones(shape))["x"])
    assert (model_ops - ops, ops - model_ops) == (
        set(), {"narrow", "div", "reshape", "take_rows", "sigmoid"})


def test_a_default_training_step_reaches_every_primitive(monkeypatch):
    """Every primitive ``tape.py`` defines (a function that records a node)
    runs in a default-config forward, ``build_loss`` and backward, so an
    unused primitive fails here."""
    import inspect
    import re

    from imtscast.config import TrainConfig
    from imtscast.datasets import PRESETS, generate
    from imtscast.model import ModelParams, forward
    from imtscast.train import build_loss
    from conftest import chunk_of

    primitives = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                  if fn.__module__ == T.__name__
                  and re.search(r"tape\.(record|append)\(", inspect.getsource(fn))}
    assert {"matmul", "concat", "layernorm"} <= primitives
    reached: set[str] = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in primitives:
        monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
    samples = generate(PRESETS["sinusoid-tiny"])[:2]
    tape = Tape()
    res = forward(tape, ModelParams.init(TrainConfig()), *chunk_of(samples))
    tape.backward(build_loss(res, np.concatenate([t for s in samples for t in s.query_targets])))
    assert primitives - reached == set()


def test_place_puts_entries_at_flat_positions():
    # ``place`` left the tape; the fused node is checked against the chain
    # built on this oracle copy of it.
    tape = Tape()
    out = place(const(tape, [[1.0, 2.0, 3.0]]), [5, 0, 2], (2, 3)).data
    assert out.tolist() == [[2.0, 0.0, 3.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ShapeError, match="place"):
        place(const(tape, [1.0, 2.0]), [0, 1, 2], (2, 3))


class TestDivisionAdjoint:
    def grads(self, a, b):
        tape = Tape()
        p = bind(tape, a=np.array([a]), b=np.array([b]))
        return tape.backward(div(p["a"], p["b"]).sum())

    def test_zero_numerator_over_tiny_denominator(self):
        # b * b underflows to 0 here, so -g * a / (b * b) would be 0 / 0.
        grads = self.grads(0.0, 1e-170)
        assert grads["a"].tolist() == [1e170]
        assert grads["b"].tolist() == [0.0]

    def test_no_digits_lost_below_the_normal_range_of_the_square(self):
        # b * b = 1e-320 is subnormal; d(a/b)/db = -a / b**2 = -1e160.
        grads = self.grads(1e-160, 1e-160)
        assert grads["a"][0] == pytest.approx(1e160, rel=1e-15)
        assert grads["b"][0] == pytest.approx(-1e160, rel=1e-15)


def test_relu_at_kink_uses_zero_subgradient():
    tape = Tape()
    w = bind(tape, w=np.array([0.0]))["w"]
    assert tape.backward(T.relu(w).sum())["w"].tolist() == [0.0]


def bad_square(t):
    """x**2 with a deliberately wrong vector-Jacobian product (3x, not 2x)."""
    return t.tape.record("bad_square", t.data**2, (t,), lambda g: (3.0 * t.data * g,))


class TestGradCheck:
    def test_sigmoid_matmul_chain_passes(self):
        rng = np.random.default_rng(3)
        flat, views = flat_views({"w": rng.standard_normal((4, 2)),
                                  "b": rng.standard_normal((1, 2))})
        x = rng.standard_normal((5, 4))

        def build(tape):
            p = tape.param_vector(flat, views)
            return sigmoid(tape.const(x) @ p["w"] + p["b"]).sum()

        assert grad_check(build, flat, views, step=1e-4, tol=1e-4).ok

    def test_wrong_hand_gradient_fails(self):
        # Negative control: a custom primitive with a deliberately wrong
        # vector-Jacobian product must be caught.
        flat, views = flat_views({"x": np.array([1.0, -2.0])})

        def build(tape):
            return bad_square(tape.param_vector(flat, views)["x"]).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert not report.ok

    def test_kernel_pool_log_bandwidths_pass(self):
        from oracles import pool_coefficients

        rng = np.random.default_rng(4)
        t_norm = np.sort(rng.uniform(0, 1, size=9))[:, None]
        mask = (rng.uniform(size=(9, 1)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        centers = np.linspace(0, 1, 4)[None, :]
        probe = rng.standard_normal((9, 4))
        flat, views = flat_views({"pool.log_alpha": np.log(0.25) * np.ones((1, 4))})

        def build(tape):
            p = {**tape.param_vector(flat, views), "pool.centers": centers}
            coeffs = pool_coefficients(tape.const(t_norm), tape.const(mask), p)
            return (coeffs * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    def test_tolerance_floor_documented_by_failure(self):
        # At an absurdly tight tolerance the finite-difference noise floor
        # itself fails the check; this pins the method's resolution.
        rng = np.random.default_rng(5)
        flat, views = flat_views({"w": rng.standard_normal((3, 3))})

        def build(tape):
            w = tape.param_vector(flat, views)["w"]
            return sigmoid(w @ w).sum()

        assert not grad_check(build, flat, views, step=1e-4, tol=1e-14).ok

    def test_a_wrong_vjp_fails_only_its_own_view(self):
        rng = np.random.default_rng(6)
        flat, views = flat_views({"a": rng.standard_normal((2, 3)),
                                  "b": rng.standard_normal(4),
                                  "c": rng.standard_normal((1, 1))})

        def build(tape):
            p = tape.param_vector(flat, views)
            return (sigmoid(p["a"]).sum() + bad_square(p["b"]).sum()
                    + (p["c"] * p["c"]).sum())

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert [(e.name, e.ok) for e in report.entries] == [
            ("a", True), ("b", False), ("c", True)]

    @pytest.mark.parametrize("tol", [1e-4, 1e-14])
    def test_flat_is_bitwise_unchanged_after_a_report(self, tol):
        # Passes at 1e-4 and fails at 1e-14 (see the floor test above).
        rng = np.random.default_rng(7)
        flat, views = flat_views({"w": rng.standard_normal((3, 3)),
                                  "b": rng.standard_normal((1, 3))})
        before = flat.tobytes()

        def build(tape):
            p = tape.param_vector(flat, views)
            return sigmoid(p["w"] @ p["w"] + p["b"]).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=tol)
        assert report.ok == (tol == 1e-4)
        assert flat.tobytes() == before

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_flat_is_restored_when_build_raises_at_a_perturbed_point(self, sign):
        # The loss is finite at the base point; moving the first entry away
        # from zero overflows it to inf, which build's param_vector rejects:
        # at +step for sign 1, at -step for sign -1.
        flat, views = flat_views({"x": np.array([sign * BIG, 0.5]), "y": np.ones((1, 2))})
        before = flat.tobytes()

        def build(tape):
            p = tape.param_vector(flat, views)
            return (p["x"] * 0.5).sum() + p["y"].sum()

        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^param x:"):
            grad_check(build, flat, views, step=1e307)
        assert flat.tobytes() == before


class TestFiniteness:
    """Every tensor on a tape is finite: leaves are checked when they enter,
    and so is every primitive that can turn finite inputs into inf or NaN.
    The others only move, select, clamp or bound finite values."""

    # The unchecked primitives, each on a (3, 4) input.
    UNCHECKED = {
        "reshape": lambda t: reshape(t, (2, 6)),
        "concat": lambda t: T.concat([t, t], axis=0),
        "take_rows": lambda t: take_rows(t, np.array([2, 0, 2])),
        "relu": T.relu,
        "sigmoid": sigmoid,
    }

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(allow_nan=False,
                                                             allow_infinity=False)
                      | st.sampled_from([1.79e308, -1.79e308])))
    def test_unchecked_primitives_map_finite_to_finite(self, x):
        for op, fn in self.UNCHECKED.items():
            assert np.isfinite(fn(bind(Tape(), x=x)["x"]).data).all(), op

    def test_the_unchecked_primitives_skip_the_check(self, monkeypatch):
        checked = []
        record = Tape.record

        def spy(self, op, *args, **kwargs):
            checked.append(op)
            return record(self, op, *args, **kwargs)

        monkeypatch.setattr(Tape, "record", spy)
        for op, fn in self.UNCHECKED.items():
            checked.clear()
            fn(Tape().const(np.ones((3, 4))))
            assert checked and op not in checked, (op, checked)

    CHECKED = {
        "add": lambda tp: tp.const([BIG]) + tp.const([BIG]),
        "sub": lambda tp: tp.const([BIG]) - tp.const([-BIG]),
        "mul": lambda tp: tp.const([1e200]) * tp.const([1e200]),
        "div": lambda tp: div(tp.const([1.0]), tp.const([1e-320])),
        "matmul": lambda tp: tp.const([[1e200]]) @ tp.const([[1e200]]),
        "sum": lambda tp: tp.const([BIG, BIG]).sum(),
        "layernorm": lambda tp: T.layernorm(tp.const([[BIG, BIG]])),
        # The queries' features: the time encoding's stage, whose linear
        # term overflows.
        "time_encode": lambda tp: query_features(tp.const(np.zeros((1, 2))), np.array([0]),
                                                 np.array([1e308]), {
            name: tp.const(np.full((1, 1 if i < 2 else 3), 10.0))
            for i, name in enumerate(TE_NAMES)}),
        # A finite encoding whose projection overflows.
        "time_projection": lambda tp: time_projection(np.array([[1e200]]), {
            **{name: tp.const(np.full((1, 1 if i < 2 else 3), 1.0))
               for i, name in enumerate(TE_NAMES)},
            "te.w_t": tp.const(np.full((7, 1), 1e200))}),
        # sigma^2 = exp(-2e4) underflows to 0, so the exponent is -inf (and
        # 0/0 at a centre): exp would map it to a finite 0.
        "kernel_weights": lambda tp: _kernel_weights(T_NORM, {
            "pool.log_alpha": tp.const(np.full((1, 4), -1e4)),
            "pool.centers": CENTERS}),
        # The feature map's stage of linear_attention: the projection
        # overflows to inf, and so does |k|^2.
        "positive_features": lambda tp: linear_attention(
            *(tp.const([[BIG, BIG]]) for _ in range(3)), np.ones((2, 1))),
        # Its quotient's stage: finite features, each 1/2, but a numerator
        # summed from four values of BIG.
        "attend": lambda tp: linear_attention(
            tp.const(np.zeros((4, 2))), tp.const(np.zeros((4, 2))),
            tp.const(np.full((4, 2), BIG)), np.ones((2, 1))),
        "smoothing_layers": lambda tp: _smoothing_layers(
            np.full((3, 2), 1e200), *(tp.const(np.full(shape, 1e200))
                                      for shape in [(4, 3), (4, 1), (1, 4), (1, 1)])),
        # A numerator summed from two cells of 1e308.
        "pool_quotient": lambda tp: _pool_quotient(tp.const(np.full((1, 1, 2), 1e308)),
                                                   tp.const(np.ones((1, 1, 2))), np.ones((1, 2))),
        # A cell's value plus the projection at its grid time.
        "fuse_at_cells": lambda tp: _fuse_at_cells(
            tp.const([[BIG]]), tp.const([[0.0], [BIG]]),
            AlignedTriplet(times=np.zeros((1, 2)), cells=np.array([1]), taps=np.zeros((3, 1)),
                           n_variates=1), tp),
    }

    # The retired nodes whose checks a fused node makes.
    CHECKED_BY = {"positive_features": "linear_attention", "attend": "linear_attention",
                  "time_encode": "query_features"}

    @pytest.mark.parametrize("op", sorted(CHECKED))
    def test_checked_primitive_names_itself_on_overflow(self, op):
        node = self.CHECKED_BY.get(op, op)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError,
                                                      match=rf"^{node}: produced non-finite"):
            self.CHECKED[op](Tape())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_leaves_and_custom_records_are_checked(self, bad):
        tape = Tape()
        with pytest.raises(NonFiniteError, match="^const:"):
            tape.const([1.0, bad])
        with pytest.raises(NonFiniteError, match="^param w:"):
            bind(tape, w=np.array([bad]))
        with pytest.raises(NonFiniteError, match="^my_op:"):
            tape.record("my_op", np.array([[bad]]), (), None)

    def test_param_vector_names_the_non_finite_entry(self):
        flat, views = flat_views({"a": np.arange(2.0), "b": np.arange(2.0, 5.0).reshape(1, 3)})
        flat[3] = np.nan
        with pytest.raises(NonFiniteError, match="^param b:"):
            Tape().param_vector(flat, views)


class TestParamVector:
    def vector(self):
        return flat_views({"a": np.array([1.0, -2.0]), "b": np.array([[0.5], [3.0], [4.0]])})

    def test_leaves_are_the_views(self):
        flat, views = self.vector()
        tape = Tape()
        bound = tape.param_vector(flat, views)
        assert bound["b"].data is views["b"] and bound["b"].needs_grad
        assert not Tape(grad=False).param_vector(flat, views)["a"].needs_grad
        assert {k: v[1] for k, v in tape.params.items()} == {"a": (2,), "b": (3, 1)}
        with pytest.raises(TapeError, match="registered twice"):
            tape.param_vector(flat, views)

    def test_backward_into_adds_each_gradient_into_its_segment(self):
        flat, views = self.vector()
        acc = np.full(5, 10.0)
        for _ in range(2):
            tape = Tape()
            p = tape.param_vector(flat, views)
            loss = (p["a"] * p["a"]).sum() + (p["b"] * 3.0).sum()
            want = tape.backward(loss)
            got = tape.backward(loss, into=acc)
            assert set(got) == {"a", "b"} and np.shares_memory(got["b"], acc)
        assert acc.tolist() == (10.0 + 2 * np.concatenate([2.0 * flat[:2], [3.0] * 3])).tolist()
        assert want["b"].tolist() == [[3.0]] * 3

    def test_backward_into_leaves_unreached_segments_and_checks_the_size(self):
        flat, views = self.vector()
        tape = Tape()
        p = tape.param_vector(flat, views)
        acc = np.ones(5)
        tape.backward((p["a"] * 2.0).sum(), into=acc)
        assert acc.tolist() == [3.0, 3.0, 1.0, 1.0, 1.0]
        with pytest.raises(TapeError, match="into has 4 entries, the parameters 5"):
            tape.backward((p["a"] * 2.0).sum(), into=np.ones(4))
