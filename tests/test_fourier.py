import numpy as np
import pytest

import imtscast.tape as T
from imtscast.fourier import dft_matrices, irfft_rows, rfft_rows
from imtscast.tape import ShapeError, Tape, flat_views, grad_check

from oracles import naive_dft_rows


def rfft(x):
    return rfft_rows(Tape().const(x)).data


def irfft(packed):
    return irfft_rows(Tape().const(packed)).data


class TestForwardTransform:
    def test_constant_row_is_dc_only(self):
        # Forward normalization: the DC bin is the row's mean.
        d, c = 16, 3.25
        out = rfft(np.full((1, d), c))
        assert out[0, 0] == pytest.approx(c, abs=1e-10)
        assert np.allclose(out[0, 1:], 0.0, atol=1e-10)

    def test_pure_cosine_hits_single_bin(self):
        d = 16
        row = np.cos(2 * np.pi * np.arange(d) / d)[None, :]
        out = rfft(row)
        expected = np.zeros(d)
        expected[1] = 0.5
        assert np.allclose(out[0], expected, atol=1e-10)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 16))
        assert np.allclose(rfft(x), naive_dft_rows(x), atol=1e-10)

    def test_smallest_case(self):
        out = naive_dft_rows(np.array([[3.0, 5.0]]))
        assert np.allclose(out, [[4.0, -1.0]], atol=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            rfft(np.ones((1, 5)))

    def test_non_power_of_two_length(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6))
        assert np.allclose(rfft(x), naive_dft_rows(x), atol=1e-10)
        assert np.allclose(irfft(rfft(x)), x, atol=1e-10)

    def test_matrices_built_once_and_read_only(self):
        forward, inverse = dft_matrices(8)
        assert dft_matrices(8) is dft_matrices(8)
        assert not forward.flags.writeable and not inverse.flags.writeable
        assert np.abs(forward @ inverse - np.eye(8)).max() < 1e-12


class TestInverseTransform:
    def test_dc_inversion(self):
        d = 8
        spectrum = np.zeros((1, d))
        spectrum[0, 0] = 1.0
        assert np.allclose(irfft(spectrum), 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 64))
        assert np.abs(irfft(rfft(x)) - x).max() < 1e-10

    def test_zero_spectrum(self):
        assert np.all(irfft(np.zeros((2, 8))) == 0.0)


class TestAgainstOracle:
    def test_agreement_on_many_seeded_rows(self):
        rng = np.random.default_rng(3)
        for d in (4, 8, 16, 64):
            x = rng.standard_normal((50, d))
            assert np.abs(rfft(x) - naive_dft_rows(x)).max() < 1e-10

    def test_parseval_energy_identity(self):
        rng = np.random.default_rng(4)
        for d in (4, 8, 16, 64):
            x = rng.standard_normal((8, d))
            spectrum = rfft(x)
            # Packed bins 1..d/2-1 (real and imaginary parts) each stand for
            # a conjugate pair; DC and Nyquist occur once. The bins carry
            # 1/d, so their energy is scaled by d.
            pairs = np.full(d, 2.0)
            pairs[[0, d // 2]] = 1.0
            lhs = (spectrum * spectrum) @ pairs * d
            rhs = (x * x).sum(axis=1)
            assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((3, 32)), rng.standard_normal((3, 32))
        lhs = rfft(2.5 * x - 1.25 * y)
        rhs = 2.5 * rfft(x) - 1.25 * rfft(y)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestDifferentiability:
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_forward_transform_gradients(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((3, d))
        probe = rng.standard_normal((3, d))
        flat, views = flat_views({"x": x})

        def build(tape):
            return (rfft_rows(tape.param_vector(flat, views)["x"]) * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_inverse_transform_gradients(self, d):
        rng = np.random.default_rng(d + 100)
        x = rng.standard_normal((3, d))
        probe = rng.standard_normal((3, d))
        flat, views = flat_views({"x": x})

        def build(tape):
            return (irfft_rows(tape.param_vector(flat, views)["x"]) * tape.const(probe)).sum()

        report = grad_check(build, flat, views, step=1e-4, tol=1e-4)
        assert report.ok, report.lines()

    def test_round_trip_through_tape(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 8))
        tape = Tape()
        out = irfft_rows(rfft_rows(tape.const(x)))
        assert np.abs(out.data - x).max() < 1e-10
