"""Real-input Fourier transforms along matrix rows, in a packed-real layout.

Layout for even row length ``d``:

    [Re_0, Re_1, ..., Re_{d/2}, Im_1, ..., Im_{d/2-1}]

The DC and Nyquist bins of a real signal have zero imaginary parts, so the
spectrum occupies exactly ``d`` reals and the transform is an invertible
linear map R^d -> R^d, with ``irfft_rows(rfft_rows(x)) == x``.

The one convention is forward normalization (numpy's ``norm="forward"``):
the forward transform carries the 1/d factor and the inverse none. Without
it the attention blocks' projections would see a ~sqrt(d) larger scale,
which in training drifts the random-feature kernel into saturation, where
attention denominators collapse to roundoff and the loss spikes.

Both directions are one matmul with a constant (d, d) matrix, built once per
row length and shared read-only. The rows the model transforms are short
(d is the hidden width), where a dense DFT matmul is far cheaper than any
Python-level FFT, and the gradients are simply those of the matmul. The
tape functions ``rfft_rows`` and ``irfft_rows`` are the one implementation;
plain arrays go through ``dft_matrices`` directly. The independent test
oracle ``naive_dft_rows`` (in ``tests/oracles.py``) uses per-bin direct
summation and shares nothing with the matrices.
"""

from __future__ import annotations

import functools

import numpy as np

from .tape import ShapeError, Tensor


def _check_rows(x: np.ndarray) -> int:
    if x.ndim != 2:
        raise ShapeError(f"spectral transform expects a matrix, got shape {x.shape}")
    d = x.shape[1]
    if d < 2 or d % 2 != 0:
        raise ShapeError(f"spectral transform needs an even row length >= 2, got {d}")
    return d


@functools.cache
def dft_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (F, G) with ``rfft(x) = x @ F`` and ``irfft(y) = y @ G``.

    Column j of F samples cos(2 pi j n / d) / d for the real bins and
    -sin(2 pi j n / d) / d for the imaginary ones. G inverts F: the DC and
    Nyquist rows carry weight 1, every other bin stands for a conjugate
    pair and carries 2. Angles are reduced mod d before scaling so every
    entry is computed from an argument in [0, 2 pi).
    """
    half = d // 2
    n = np.arange(d)
    real_bins = np.arange(half + 1)
    imag_bins = np.arange(1, half)
    ang_re = 2.0 * np.pi * (np.outer(n, real_bins) % d) / d     # (d, half+1)
    ang_im = 2.0 * np.pi * (np.outer(n, imag_bins) % d) / d     # (d, half-1)
    forward = np.concatenate([np.cos(ang_re), -np.sin(ang_im)], axis=1) * (1.0 / d)
    weight = np.full(half + 1, 2.0)
    weight[0] = weight[half] = 1.0
    inverse = np.concatenate([np.cos(ang_re.T) * weight[:, None], -np.sin(ang_im.T) * 2.0],
                             axis=0)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def rfft_rows(t: Tensor) -> Tensor:
    """Tape-recorded forward transform of each row."""
    return t @ _matrix_leaf(t, 0)


def irfft_rows(t: Tensor) -> Tensor:
    """Tape-recorded inverse transform of each row."""
    return t @ _matrix_leaf(t, 1)


def _matrix_leaf(t: Tensor, which: int) -> Tensor:
    """One of the read-only matrices for ``t``'s rows as a constant leaf on
    its tape. ``dft_matrices`` builds them finite, so they enter unchecked."""
    return t.tape.append("const", dft_matrices(_check_rows(t.data))[which], (), None)
