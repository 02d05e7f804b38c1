"""Dense reference implementations of model layers, used only by tests.

The model smooths observed cells only and pools every variate in one
batched pass. These are the straightforward forms they replace: the
convolution over every grid cell, and per-variate pooling coefficients
followed by a per-variate summary.
"""

import numpy as np

import imtscast.tape as T
from imtscast.model import _kernel_weights, _nonzero, time_encode
from imtscast.tape import Tensor


def dense_conv_smooth(rows: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Width-3 then 1x1 convolution along time with zero same-padding, at
    every cell of the (N, L) rows."""
    n, length = rows.data.shape
    zero = rows.tape.const(np.zeros((n, 1)))
    padded = T.concat([zero, rows, zero], axis=1)              # (N, L+2)
    taps = T.concat(
        [
            padded[:, 0:length].reshape((1, n * length)),
            padded[:, 1 : length + 1].reshape((1, n * length)),
            padded[:, 2 : length + 2].reshape((1, n * length)),
        ],
        axis=0,
    )                                                          # (3, N*L)
    hidden = T.relu(p["conv.w1"] @ taps + p["conv.b1"])        # (C, N*L)
    out = p["conv.w2"] @ hidden + p["conv.b2"]                 # (1, N*L)
    return out.reshape((n, length))


def dense_encode_series(rows: Tensor, tcol: Tensor, p: dict[str, Tensor],
                        use_conv: bool = True, mask=None) -> Tensor:
    """``model.encode_series`` with the convolution run on the whole grid;
    ``mask`` is accepted and ignored."""
    base = dense_conv_smooth(rows, p) if use_conv else rows
    total, length = rows.data.shape
    samples = tcol.data.shape[0] // length
    tproj = (time_encode(tcol, p) @ p["te.w_t"]).reshape((samples, 1, length))
    fused = base.reshape((samples, total // samples, length)) + tproj
    return fused.reshape((total, length))


def pool_coefficients(t_norm: Tensor, mask_col: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-variate kernel coefficients.

    ``t_norm`` and ``mask_col`` are (L, 1); the result (L, K) holds the mask-
    gated Gaussian affinity of each grid point to each kernel, normalized so
    every column with at least one observation sums to exactly one. Columns
    with no observed support are all zeros.
    """
    weights = _kernel_weights(t_norm, p) * mask_col            # (L, K)
    colsum = weights.sum(axis=0, keepdims=True)
    return weights / _nonzero(colsum)


def pool_summary(x_col: Tensor, coeffs: Tensor, mask_col: Tensor,
                 p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool one variate (L, 1) into a (1, d) vector via its coefficients."""
    pooled = (coeffs.T @ x_col).T                              # (1, K)
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    flag = 1.0 if float(mask_col.data.sum()) > 0 else 0.0
    withflag = T.concat([pooled, x_col.tape.const([[flag]])], axis=1)
    return withflag @ p["pool.w_proj"]                         # (1, d)
