import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imtscast.tape as T
from imtscast.tape import NonFiniteError, ShapeError, Tape, TapeError, grad_check


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

    def test_shape_mismatch_names_the_primitive(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(const(tape, np.ones((2, 3))), const(tape, np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            const(tape, np.ones((2, 3))) + const(tape, np.ones((4,)))

    def test_non_finite_result_rejected(self):
        tape = Tape()
        with pytest.raises(NonFiniteError, match="div"):
            const(tape, [1.0]) / const(tape, [0.0])

    def test_broadcasting_binary_ops(self):
        tape = Tape()
        out = const(tape, np.ones((3, 4))) * const(tape, [[2.0, 3.0, 4.0, 5.0]])
        assert np.array_equal(out.data, np.tile([2.0, 3.0, 4.0, 5.0], (3, 1)))


class TestBackward:
    def test_quadratic(self):
        tape = Tape()
        w = tape.param("w", np.array([1.0, 2.0]))
        loss = (w * w).sum()
        grads = tape.backward(loss)
        assert grads["w"].tolist() == [2.0, 4.0]

    def test_unreachable_parameter_gets_zeros(self):
        tape = Tape()
        w = tape.param("w", np.array([1.0, 2.0]))
        tape.param("unused", np.array([[3.0]]))
        grads = tape.backward((w * w).sum())
        assert grads["unused"].tolist() == [[0.0]]

    def test_loss_must_be_scalar(self):
        tape = Tape()
        w = tape.param("w", np.array([1.0, 2.0]))
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(w * w)

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
            w = tape.param("w", x)
            f = (w * w).sum()
            g = T.sin(w).sum()
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
            wt = tape.param("w", w)
            out = T.relu(const(tape, x) @ wt)
            loss = T.layernorm(out).sum()
            return loss.data.copy(), tape.backward(loss)["w"]

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_fanout_accumulates(self):
        tape = Tape()
        w = tape.param("w", np.array([3.0]))
        loss = (w * w + w * 2.0).sum()  # d/dw = 2w + 2
        assert tape.backward(loss)["w"].tolist() == [8.0]


PRIMITIVE_CASES = [
    ("relu", lambda t: T.relu(t), (3, 4)),
    ("sigmoid", lambda t: T.sigmoid(t), (3, 4)),
    ("sin", lambda t: T.sin(t), (3, 4)),
    ("cos", lambda t: T.cos(t), (3, 4)),
    ("exp", lambda t: T.exp(t), (3, 4)),
    ("sum_all", lambda t: t.sum().reshape((1, 1)), (3, 4)),
    ("sum_axis0", lambda t: t.sum(axis=0, keepdims=True), (3, 4)),
    ("mean_axis1", lambda t: t.mean(axis=1, keepdims=True), (3, 4)),
    ("layernorm", lambda t: T.layernorm(t), (3, 4)),
    ("transpose", lambda t: t.T, (3, 4)),
    ("reshape", lambda t: t.reshape((2, 6)), (3, 4)),
    ("slice", lambda t: t[1:3, 0:2], (3, 4)),
    ("broadcast", lambda t: T.broadcast_to(t, (5, 2, 4)), (2, 4)),
    ("neg", lambda t: -t, (3, 4)),
    ("take_rows", lambda t: T.take_rows(t, np.array([0, 2, 2, 1])), (3, 4)),
    ("matmul", lambda t: t @ np.arange(12.0).reshape(4, 3), (3, 4)),
    ("div_const", lambda t: t / np.linspace(1.0, 2.0, 4), (3, 4)),
    ("concat_self", lambda t: T.concat([t, t * 2.0], axis=1), (3, 4)),
    ("permute", lambda t: T.permute(t, (2, 0, 1)), (2, 3, 4)),
    ("place", lambda t: T.place(t, np.array([7, 0, 3, 11, 5, 2]), (3, 4)), (2, 3)),
    ("add_self", lambda t: t + t * t, (3, 4)),
    ("sub_self", lambda t: t - t * t, (3, 4)),
    ("div_self", lambda t: t / (t * t + 1.0), (3, 4)),
    ("bmm", lambda t: T.bmm(t, np.arange(24.0).reshape(2, 4, 3)), (2, 3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
def test_every_primitive_passes_gradient_check(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.standard_normal(shape)
    # Project to a scalar with fixed random weights to cover the Jacobian.
    probe = rng.standard_normal(fn(Tape().const(x)).data.shape)

    def build(tape, bound):
        return (fn(bound["x"]) * tape.const(probe)).sum()

    report = grad_check(build, {"x": x}, step=1e-5, tol=1e-5)
    assert report.ok, report.lines()


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
def test_every_primitive_frees_its_tape(name, fn, shape):
    # A VJP closure that captured a Tensor would tie the tape into a
    # reference cycle, which only the cyclic garbage collector breaks.
    x = np.random.default_rng(0).standard_normal(shape)
    gc.disable()
    try:
        tape = Tape()
        loss = fn(tape.param("x", x)).sum()
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("transpose_a", [False, True])
def test_bmm_passes_gradient_check(transpose_a):
    rng = np.random.default_rng(6 + transpose_a)
    a = rng.standard_normal((3, 4, 2) if transpose_a else (3, 2, 4))
    b = rng.standard_normal((3, 4, 5))
    probe = rng.standard_normal((3, 2, 5))

    def build(tape, bound):
        return (T.bmm(bound["a"], bound["b"], transpose_a=transpose_a)
                * tape.const(probe)).sum()

    report = grad_check(build, {"a": a, "b": b}, step=1e-5, tol=1e-5)
    assert report.ok, report.lines()


def test_bmm_matches_per_entry_matmul():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4, 5))
    tape = Tape()
    out = T.bmm(const(tape, a), const(tape, b), transpose_a=True).data
    for i in range(3):
        assert np.abs(out[i] - a[i].T @ b[i]).max() < 1e-14
    with pytest.raises(ShapeError, match="bmm"):
        T.bmm(const(tape, a), const(tape, b))


def test_place_puts_entries_at_flat_positions():
    tape = Tape()
    out = T.place(const(tape, [[1.0, 2.0, 3.0]]), [5, 0, 2], (2, 3)).data
    assert out.tolist() == [[2.0, 0.0, 3.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ShapeError, match="place"):
        T.place(const(tape, [1.0, 2.0]), [0, 1, 2], (2, 3))


class TestDivisionAdjoint:
    def grads(self, a, b):
        tape = Tape()
        pa, pb = tape.param("a", np.array([a])), tape.param("b", np.array([b]))
        return tape.backward((pa / pb).sum())

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


def test_permute_rejects_a_non_permutation():
    tape = Tape()
    with pytest.raises(ShapeError, match="permute"):
        T.permute(const(tape, np.ones((2, 3))), (0, 0))


def test_relu_at_kink_uses_zero_subgradient():
    tape = Tape()
    w = tape.param("w", np.array([0.0]))
    assert tape.backward(T.relu(w).sum())["w"].tolist() == [0.0]


class TestGradCheck:
    def test_sigmoid_matmul_chain_passes(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.standard_normal((4, 2)), "b": rng.standard_normal((1, 2))}
        x = rng.standard_normal((5, 4))

        def build(tape, bound):
            return T.sigmoid(tape.const(x) @ bound["w"] + bound["b"]).sum()

        assert grad_check(build, params, step=1e-4, tol=1e-4).ok

    def test_wrong_hand_gradient_fails(self):
        # Negative control: a custom primitive with a deliberately wrong
        # vector-Jacobian product must be caught.
        def bad_square(t):
            return t.tape.record(
                "bad_square", t.data**2, (t,), lambda g: (3.0 * t.data * g,)
            )

        def build(tape, bound):
            return bad_square(bound["x"]).sum()

        report = grad_check(build, {"x": np.array([1.0, -2.0])}, step=1e-4, tol=1e-4)
        assert not report.ok

    def test_kernel_pool_log_bandwidths_pass(self):
        from oracles import pool_coefficients

        rng = np.random.default_rng(4)
        t_norm = np.sort(rng.uniform(0, 1, size=9))[:, None]
        mask = (rng.uniform(size=(9, 1)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        centers = np.linspace(0, 1, 4)[None, :]
        probe = rng.standard_normal((9, 4))

        def build(tape, bound):
            p = {"pool.log_alpha": bound["log_alpha"], "pool.centers": tape.const(centers)}
            coeffs = pool_coefficients(tape.const(t_norm), tape.const(mask), p)
            return (coeffs * tape.const(probe)).sum()

        report = grad_check(build, {"log_alpha": np.log(0.25) * np.ones((1, 4))},
                            step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    def test_tolerance_floor_documented_by_failure(self):
        # At an absurdly tight tolerance the finite-difference noise floor
        # itself fails the check; this pins the method's resolution.
        rng = np.random.default_rng(5)
        params = {"w": rng.standard_normal((3, 3))}

        def build(tape, bound):
            return T.sigmoid(bound["w"] @ bound["w"]).sum()

        assert not grad_check(build, params, step=1e-4, tol=1e-14).ok
