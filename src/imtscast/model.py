"""Model layers and the end-to-end forward pass.

Pipeline per sample: convolutional smoothing of the zero-filled series,
continuous time encoding fused in, Gaussian-kernel pooling of each variate
down to a fixed-width vector, stacked spectral linear-attention blocks that
mix variates, and a query-conditioned MLP head.

Pooling multiplies the fused series by the mask before both of its sums,
so it reads observed cells only. The smoothing convolution therefore runs
at those cells alone (its taps still see the zero-filled neighbours) and
places its output on the grid; the rest of the grid, mostly unobserved on
long sparse series, costs no convolution work and no backward work.

The forward pass runs one block of B samples that share the variate count
N (``data.AlignedTriplet``); a sample is a block of one. Every layer works
on the block's (B*N, .) rows in sample-major order. Only pooling and
attention need to know where one sample ends. Encoding builds the (B, N, L)
stack to broadcast each sample's time projection over its rows and hands
pooling that stack, whose batched matmuls read it as it is. Attention
takes the sample count and regroups its rows into per-(sample, head)
stacks; the [V | 1] numerator/denominator trick of linear attention lives
inside its one ``_attend`` node.

All layers run on the differentiation tape. The learnables live in one
flat float64 vector with a named view per array (``ModelParams``), so a
forward binds them with one finiteness check and the optimizer updates
them in a handful of vector operations; serialization uses the named
views, and the gradient check moves entries of the vector in place.

A training tape keeps what its VJP closures capture until backward, and
that memory bounds how many samples a chunk can hold. Five nodes exist to
keep less: ``rff_features`` differentiates from its own output, and
``_smoothing_layers``, ``_attend``, ``time_encode`` and ``_kernel_weights``
recompute their largest intermediates in backward (the conv's hidden
layer, the KV summary, the sin and cos arguments, the Gaussian exponent).
The last two also replace grid-wide chains of 9 and 10 nodes, which cuts
the fixed per-node cost of every forward. ``tape_bytes`` sums what a
chunk's tape keeps; ``train.chunk_spans`` budgets chunks by it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .config import ConfigError, TrainConfig, validate
from .data import AlignedTriplet, DataError, normalize_times
from .fourier import irfft_rows, rfft_rows
from .tape import NonFiniteError, Tape, Tensor

ATTENTION_EPS = 1e-6          # guard for sign-indefinite random-feature denominators
DEGENERATE_DENOM = 1e-12      # below this (pre-guard) a row counts as collapsed


@dataclass
class ModelParams:
    """Flat registry of every learnable array plus the frozen feature draws.

    The learnables live in one flat float64 vector, ``flat``, in the order
    of ``arrays``; each entry of ``arrays`` is a view of its segment. The
    arrays passed in are copied into a new vector. Write parameters in
    place (``arrays[name][...] = x``); rebinding a dict entry would detach
    it from ``flat``.
    """

    cfg: TrainConfig
    arrays: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.arrays = T.flat_views(self.arrays)

    @classmethod
    def init(cls, cfg: TrainConfig, seed: int | None = None) -> "ModelParams":
        """Seeded initialization: uniform(+-1/sqrt(fan_in)) weights, zero biases."""
        validate(cfg)
        if seed is None:
            seed = cfg.seed
        rng = np.random.default_rng([int(seed), 0x5EED])
        d, dte, k, c = cfg.hidden, cfg.time_dim, cfg.kernels, cfg.conv_channels
        n_sin = (dte - 1) // 2
        n_cos = dte - 1 - n_sin

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        arrays: dict[str, np.ndarray] = {}
        arrays["conv.w1"] = uniform((c, 3), 3)
        arrays["conv.b1"] = np.zeros((c, 1))
        arrays["conv.w2"] = uniform((1, c), c)
        arrays["conv.b2"] = np.zeros((1, 1))
        arrays["te.w_s"] = uniform((1, 1), 1)
        arrays["te.b_s"] = np.zeros((1, 1))
        arrays["te.w_p"] = uniform((1, n_sin), 1)
        arrays["te.b_p"] = np.zeros((1, n_sin))
        arrays["te.w_c"] = uniform((1, n_cos), 1)
        arrays["te.b_c"] = np.zeros((1, n_cos))
        arrays["te.w_t"] = uniform((dte, 1), dte)
        arrays["pool.log_alpha"] = np.full((1, k), np.log(1.0 / k))
        arrays["pool.gate"] = np.zeros((1, k))
        arrays["pool.w_proj"] = uniform((k + 1, d), k + 1)
        for b in range(cfg.blocks):
            p = f"blocks.{b}."
            arrays[p + "wq"] = uniform((d, d), d)
            arrays[p + "wk"] = uniform((d, d), d)
            arrays[p + "wv"] = uniform((d, d), d)
            arrays[p + "ln1_g"] = np.ones((1, d))
            arrays[p + "ln1_b"] = np.zeros((1, d))
            arrays[p + "ln2_g"] = np.ones((1, d))
            arrays[p + "ln2_b"] = np.zeros((1, d))
            arrays[p + "mlp_w1"] = uniform((d, 2 * d), d)
            arrays[p + "mlp_b1"] = np.zeros((1, 2 * d))
            arrays[p + "mlp_w2"] = uniform((2 * d, d), 2 * d)
            arrays[p + "mlp_b2"] = np.zeros((1, d))
        arrays["out.w"] = uniform((d, d), d)
        arrays["head.w1"] = uniform((d + dte, d), d + dte)
        arrays["head.b1"] = np.zeros((1, d))
        arrays["head.w2"] = uniform((d, d), d)
        arrays["head.b2"] = np.zeros((1, d))
        arrays["head.w3"] = uniform((d, 1), d)
        arrays["head.b3"] = np.zeros((1, 1))

        # The random feature draws are sampled once, stored with the model
        # and never trained.
        rff_rng = np.random.default_rng([int(seed), 0xF0F0])
        d_head = d // cfg.heads
        buffers: dict[str, np.ndarray] = {
            "pool.centers": np.linspace(0.0, 1.0, k)[None, :],
        }
        for b in range(cfg.blocks):
            buffers[f"blocks.{b}.omega"] = rff_rng.standard_normal((d_head, cfg.rff_dim // 2))
            buffers[f"blocks.{b}.phase"] = rff_rng.uniform(0.0, 2.0 * np.pi, (1, cfg.rff_dim // 2))
        return cls(cfg=cfg, arrays=arrays, buffers=buffers)

    def bind(self, tp: Tape) -> dict[str, Tensor]:
        """Register all learnables on a tape, checking the flat vector's
        finiteness once; buffers come along as constants."""
        bound = tp.param_vector(self.flat, self.arrays)
        for name, arr in self.buffers.items():
            bound[name] = tp.const(arr)
        return bound

    def param_count(self) -> int:
        return int(self.flat.size)

    def copy(self) -> "ModelParams":
        return ModelParams(
            cfg=self.cfg,
            arrays=self.arrays,
            buffers={k: v.copy() for k, v in self.buffers.items()},
        )

    def save(self, path) -> None:
        doc = {
            "format": "imtscast-checkpoint-1",
            "config": self.cfg.to_dict(),
            "params": {
                n: {"shape": list(a.shape), "data": a.ravel().tolist()}
                for n, a in self.arrays.items()
            },
            "buffers": {
                n: {"shape": list(a.shape), "data": a.ravel().tolist()}
                for n, a in self.buffers.items()
            },
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read a checkpoint written by ``save``.

        Raises DataError for invalid JSON, missing sections, parameter and
        buffer names or shapes that differ from what ``init`` builds for the
        stored config, or entries holding NaN or infinite values. An
        ``rff_seed`` entry, which older checkpoints carry, is ignored: the
        feature draws are read from the stored buffers.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as err:  # invalid JSON or text encoding
            raise DataError(f"{path}: not a valid checkpoint: {err}") from err
        if not isinstance(doc, dict) or doc.get("format") != "imtscast-checkpoint-1":
            raise DataError(f"{path}: not a checkpoint file")
        missing = [key for key in ("config", "params", "buffers") if key not in doc]
        if missing:
            raise DataError(f"{path}: checkpoint has no {', '.join(missing)}")
        try:
            cfg = TrainConfig.from_dict(doc["config"])
            reference = cls.init(cfg)
        except (ConfigError, TypeError, ValueError) as err:
            raise DataError(f"{path}: bad checkpoint config: {err}") from err

        def restore(key, expected):
            section = doc[key]
            if not isinstance(section, dict) or set(section) != set(expected):
                raise DataError(f"{path}: {key} names differ from what the config builds")
            out = {}
            for name in expected:   # the order ``init`` builds, whatever the file's
                entry = section[name]
                try:
                    arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
                except (KeyError, TypeError, ValueError) as err:
                    raise DataError(f"{path}: malformed {key} entry {name!r}: {err}") from err
                if arr.shape != expected[name].shape:
                    raise DataError(f"{path}: {key} {name!r} has shape {arr.shape}, "
                                    f"the config builds {expected[name].shape}")
                if not np.isfinite(arr).all():
                    raise DataError(f"{path}: {key} {name!r} holds non-finite values")
                out[name] = arr
            return out

        return cls(
            cfg=cfg,
            arrays=restore("params", reference.arrays),
            buffers=restore("buffers", reference.buffers),
        )


def expected_param_count(cfg: TrainConfig) -> int:
    """Closed-form learnable parameter count from the config shapes."""
    d, dte, k, c = cfg.hidden, cfg.time_dim, cfg.kernels, cfg.conv_channels
    conv = 3 * c + c + c + 1
    te = 3 * dte  # scale pair + sin/cos branches (2*(dte-1)) + projection (dte)
    pool = 2 * k + (k + 1) * d
    block = 3 * d * d + 4 * d + (2 * d * d + 2 * d) + (2 * d * d + d)
    head = (d + dte) * d + d + d * d + d + d + 1
    return conv + te + pool + cfg.blocks * block + d * d + head


def tape_bytes(cfg: TrainConfig, samples: int, n_variates: int, grid_length: int,
               observed: int, queries: int) -> int:
    """Bytes that the VJP closures of a training tape keep until backward
    for one chunk: ``samples`` samples of ``n_variates`` variates padded to
    ``grid_length``, with ``observed`` observed cells and ``queries`` query
    times in all.

    Each term counts the arrays one stage's closures keep, once however many
    closures share them (see ``train.chunk_spans``, which budgets chunks by
    this sum). Every parameter, feature draw and DFT matrix is counted, kept
    or not, so the sum is an upper bound.
    """
    d, dte, k, heads = cfg.hidden, cfg.time_dim, cfg.kernels, cfg.heads
    rows = samples * n_variates
    times = samples * grid_length
    mask = (d + 3) // 4          # 2d relu-mask bytes per row, in floats
    floats = (
        # encode: the conv taps (3, P) and placement index (P,); the grid
        # times and the time encoding (B*L, 1 + d_te)
        (4 * observed if cfg.use_preconv else 0) + times * (1 + dte)
        # pool: the normalized times and the kernel weights (B, L, 1 + K),
        # the mask and the masked series (B*N, L) x2, the quotient and its
        # denominator (B*N, K) x2, the summary with its flag (B*N, K+1)
        + times * (1 + k) + rows * grid_length * 2 + rows * (3 * k + 1)
        # per block: two layernorms (B*N, d+1), the spectral coefficients,
        # the MLP input (B*N, d) and hidden layer (B*N, 2d) with its relu
        # mask (bytes), the features of Q and K (B*N*H, R) x2, [V | 1] and
        # the attention quotient with its denominator (B*N*H, d_h+1) x2
        + cfg.blocks * rows * (8 * d + mask + 2 * heads * cfg.rff_dim + 2 * heads + 2)
        # the output projection's input (B*N, d)
        + rows * d
        # head and loss per query: row index, time, features (d + d_te),
        # two hidden layers with relu masks, residual and weight
        + queries * (3 * d + mask + dte + 5)
        # parameters, feature draws, the DFT pair and a few tiny arrays
        + expected_param_count(cfg) + k + cfg.blocks * (d // heads + 1) * cfg.rff_dim // 2
        + 2 * d * d + 2 * k + 64 * (cfg.blocks + 1)
    )
    return 8 * floats


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def time_encode(tcol: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Continuous time encoding of a (M, 1) column of raw times -> (M, d_te).

    Concatenation order: [linear term, sin branch, cos branch]. The times
    are data, so no gradient flows back to them. One node; backward
    recomputes the sin and cos arguments from the times, so the node keeps
    only the (M, 1) column.
    """
    # Each step is the numpy call of the primitive chain it replaces (three
    # matmuls and adds, sin, cos, concat), so the output and the adjoints
    # are bitwise that chain's.
    t = tcol.data
    names = ("te.w_s", "te.b_s", "te.w_p", "te.b_p", "te.w_c", "te.b_c")
    ws, bs, wp, bp, wc, bc = (p[name].data for name in names)
    n_sin = wp.shape[1]

    with np.errstate(over="ignore", invalid="ignore"):   # record() raises instead
        out = np.concatenate([np.matmul(t, ws) + bs, np.sin(np.matmul(t, wp) + bp),
                              np.cos(np.matmul(t, wc) + bc)], axis=1)

    def vjp(g):
        g_lin, g_s, g_c = g[:, :1], g[:, 1 : 1 + n_sin], g[:, 1 + n_sin :]
        g_p = g_s * np.cos(np.matmul(t, wp) + bp)
        g_q = g_c * (-np.sin(np.matmul(t, wc) + bc))
        t_t = t.swapaxes(-1, -2)
        return (t_t @ g_lin, g_lin.sum(axis=0, keepdims=True),
                t_t @ g_p, g_p.sum(axis=0, keepdims=True),
                t_t @ g_q, g_q.sum(axis=0, keepdims=True))

    return tcol.tape.record("time_encode", out, tuple(p[name] for name in names), vjp)


def conv_smooth(values: np.ndarray, mask: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Width-3 then 1x1 convolution along time with zero same-padding,
    evaluated at the observed cells only.

    ``values`` is the (N, L) zero-filled data, one variate per row, and
    ``mask`` marks its observed cells. The same filter bank applies to every
    variate. Each observed cell's three taps come from the zero-padded rows
    as one (3, P) constant, both layers run over those P columns, and the
    (1, P) result is placed into a zero (N, L) grid. Unobserved cells hold
    0 instead of the filters' response there; that is exact for the model,
    since pooling, the only reader, multiplies every cell by the mask.
    ``values`` is data, so no gradient flows back to it.
    """
    n, length = values.shape
    flat = np.flatnonzero(mask)
    padded = np.pad(values, ((0, 0), (1, 1))).reshape(-1)     # rows of L+2
    centre = flat + 2 * (flat // length) + 1                   # cell positions in ``padded``
    taps = np.stack([padded[centre - 1], padded[centre], padded[centre + 1]])   # (3, P)
    out = _smoothing_layers(taps, p["conv.w1"], p["conv.b1"], p["conv.w2"], p["conv.b2"])
    return T.place(out, flat, (n, length))


def _smoothing_layers(taps: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor,
                      b2: Tensor) -> Tensor:
    """Both conv layers as one node; backward recomputes the (C, P) hidden layer from the taps."""
    # Each step is the numpy call of the primitive it replaces (matmul, add,
    # relu), so the output and the adjoints are bitwise those primitives'.
    w1d, b1d, w2d, b2d = w1.data, b1.data, w2.data, b2.data

    def hidden():
        pre = np.matmul(w1d, taps) + b1d
        mask = pre > 0
        return pre * mask, mask

    h, _ = hidden()

    def vjp(g):
        h, mask = hidden()
        g_pre = (w2d.swapaxes(-1, -2) @ g) * mask
        return (g_pre @ taps.swapaxes(-1, -2), g_pre.sum(axis=1, keepdims=True),
                g @ h.swapaxes(-1, -2), g.sum(axis=1, keepdims=True))

    return w1.tape.record("smoothing_layers", np.matmul(w2d, h) + b2d, (w1, b1, w2, b2), vjp)


def encode_series(rows: Tensor, tcol: Tensor, mask: np.ndarray, p: dict[str, Tensor],
                  use_conv: bool = True) -> Tensor:
    """Smoothing convolution plus the projected time encoding, per Eq. of the
    fused representation: all variates share both the filters and the grid.

    ``rows`` is (B*N, L), sample-major; ``tcol`` is the (B*L, 1) column of
    the B samples' grid times, one grid after another. ``mask`` marks the
    observed cells of ``rows``; the convolution runs only there (see
    ``conv_smooth``). The projection is added to each sample's N rows by
    broadcasting, on the whole grid, so the result is the (B, N, L) stack
    that pooling reads.
    """
    base = conv_smooth(rows.data, mask, p) if use_conv else rows
    total, length = rows.data.shape
    samples = tcol.data.shape[0] // length
    tproj = (time_encode(tcol, p) @ p["te.w_t"]).reshape((samples, 1, length))
    return base.reshape((samples, total // samples, length)) + tproj


def _nonzero(den: Tensor) -> Tensor:
    """``den`` with its exact zeros replaced by ones.

    A pooling denominator is exactly zero only where its numerator is too:
    a variate with no observation, or a kernel with no support at any
    observed point. Those entries then pool to 0 / 1 = 0 with finite
    gradients, where a tiny additive guard would give 0 / 0 in the
    division's gradient. Every other entry is left bitwise unchanged.
    """
    return den + den.tape.const((den.data == 0.0).astype(np.float64))


def _kernel_weights(t_norm: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Gaussian affinity of each normalized time to each kernel centre:
    (..., L, 1) times -> (..., L, K) weights exp(-(t - c)^2 / (2 sigma^2)),
    sigma = exp(log_alpha).

    One node, differentiated for ``pool.log_alpha`` only (the centres are
    a frozen buffer, the times data). Backward recomputes the exponent from
    the times, so the node keeps the weights and the (..., L, 1) times.
    """
    # The numpy calls of the primitive chain it replaces (sub, mul, exp,
    # mul, mul, div, exp), so the output and the adjoint are bitwise that
    # chain's. The exponent is checked: exp would map its -inf to 0.
    log_alpha = p["pool.log_alpha"]
    la, centers = log_alpha.data, p["pool.centers"].data

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sig2 = np.exp(la * 2.0)

        def exponent():
            diff = t_norm - centers
            return diff * diff * -0.5 / sig2

        ex = exponent()
    if not (np.isfinite(sig2).all() and np.isfinite(ex).all()):
        raise NonFiniteError("kernel_weights: produced non-finite values")
    weights = np.exp(ex)

    def vjp(g):
        g_sig2 = T.unbroadcast(-((g * weights) / sig2) * exponent(), sig2.shape)
        return (g_sig2 * sig2 * 2.0,)

    # exp of a finite exponent <= 0 lies in [0, 1]: no second check.
    return log_alpha.tape.append("kernel_weights", weights, (log_alpha,), vjp)


def pool_all(xhat: Tensor, mask_rows: np.ndarray, t_norm: np.ndarray,
             p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool every variate of every sample at once: (B, N, L) -> (B*N, d).

    ``xhat`` is the (B, N, L) stack of ``encode_series``, ``mask_rows`` its
    (B*N, L) mask, sample-major, and ``t_norm`` holds the (B, L)
    normalized grid times of ``data.normalize_times``. A sample's variates
    share its grid, so one (L, K) kernel-weight matrix serves all N of its
    rows. The (B, L, K) weights meet the masked rows in one batched matmul
    for the numerator and one for the denominator; the normalization is
    folded into one division, so no (L, K) coefficient matrix per variate
    is materialized. Masked and padded cells drop out of both sums, so
    ``xhat`` is read at observed cells only.
    """
    tp = xhat.tape
    weights = _kernel_weights(t_norm[:, :, None], p)           # (B, L, K)
    mask = tp.const(mask_rows.reshape(xhat.data.shape))
    num = (xhat * mask) @ weights                              # (B, N, K)
    den = mask @ weights
    pooled = (num / _nonzero(den)).reshape((mask_rows.shape[0], weights.data.shape[2]))
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    flags = tp.const((mask_rows.sum(axis=1, keepdims=True) > 0).astype(np.float64))
    return T.concat([pooled, flags], axis=1) @ p["pool.w_proj"]


def rff_features(x: Tensor, omega: Tensor, phase: Tensor) -> Tensor:
    """Random Fourier feature map (rows, d_h) -> (rows, R).

    Layout is the cos block then the sin block, scaled by 1/sqrt(R); inner
    products of two feature rows then estimate exp(-|x-y|^2/2)/2 for
    standard-normal frequency draws. The map is one tape node whose VJP
    reads the derivatives off its own output (d cos = -sin, d sin = cos),
    so it keeps no array beyond the features the attention keeps anyway.
    """
    proj = x @ omega + phase                                   # (rows, R/2)
    half = proj.data.shape[1]
    scale = 1.0 / np.sqrt(2 * half)
    out = np.concatenate([np.cos(proj.data), np.sin(proj.data)], axis=1) * scale

    def vjp(g):
        return (g[:, half:] * out[:, :half] - g[:, :half] * out[:, half:],)

    # cos and sin of a finite ``proj``, scaled: finite, so no check.
    return x.tape.append("rff_features", out, (proj,), vjp)


def _split_heads(x: Tensor, samples: int, n: int, heads: int) -> Tensor:
    """Regroup (B*N, H*w) rows, sample-major with head h in columns
    [h*w, (h+1)*w), into the (B, H, N, w) stack; each caller reshapes it
    once to the layout it reads."""
    width = x.data.size // (samples * n * heads)
    return T.permute(x.reshape((samples, n, heads, width)), (0, 2, 1, 3))


def _merge_heads(x: Tensor, samples: int) -> Tensor:
    """(B*H, N, w) -> (B*N, H*w), the inverse of ``_split_heads``."""
    stack, n, width = x.data.shape
    heads = stack // samples
    merged = T.permute(x.reshape((samples, heads, n, width)), (0, 2, 1, 3))
    return merged.reshape((samples * n, heads * width))


def _attend(fq: Tensor, fk: Tensor, values: Tensor) -> Tensor:
    """phi(Q) (phi(K)^T [V | 1]) from (B*H, N, .) stacks as one node, which
    forms phi(K)^T and [V | 1] itself; backward recomputes the (B*H, R, d_h+1)
    summary. Output: (B*H, N, d_h+1), numerators then denominators."""
    # The same numpy calls as the transpose, concat and two matmul nodes
    # they replace, so the output and the adjoints are bitwise theirs.
    qd, kd = fq.data, fk.data.swapaxes(-1, -2)
    d_head = values.data.shape[2]
    vd = np.concatenate([values.data, np.ones(values.data.shape[:2] + (1,))], axis=2)

    def vjp(g):
        g_kv = qd.swapaxes(-1, -2) @ g                         # (B*H, R, d_h+1)
        return (g @ np.matmul(kd, vd).swapaxes(-1, -2),
                (g_kv @ vd.swapaxes(-1, -2)).swapaxes(-1, -2),
                (kd.swapaxes(-1, -2) @ g_kv)[:, :, :d_head])

    return fq.tape.record("attend", np.matmul(qd, np.matmul(kd, vd)), (fq, fk, values), vjp)


def linear_attention(q: Tensor, k: Tensor, v: Tensor, omega: Tensor, phase: Tensor,
                     stats: dict | None = None, samples: int = 1,
                     capture: list | None = None) -> Tensor:
    """Kernelized attention of every (sample, head) at once, in linear-cost order.

    ``q``, ``k`` and ``v`` are (B*N, d), sample-major, with head h in columns
    [h*d_h, (h+1)*d_h); d_h is the row count of ``omega``. Per sample and
    head, the numerator phi(Q) (phi(K)^T V) and the denominator
    phi(Q) (phi(K)^T 1) never materialize the (N, N) weight matrix.

    Layout: ``q``, ``k`` and ``v`` are first regrouped into (B, H, N, d_h)
    stacks, one entry per (sample, head), so the only regrouping copies are
    d_h wide. One feature map per stack runs over its (B*H*N, d_h) rows and
    the R-wide features are born in the (B*H, N, R) layout as a view. One
    node (``_attend``) forms every phi(K)^T [V | 1] and, from it, every
    numerator and denominator; it recomputes that (B*H, R, d_h+1) summary
    in backward rather than keeping it. Random features are
    sign-indefinite, so the denominator is guarded by a small epsilon; each
    (row, head) whose pre-guard magnitude falls below DEGENERATE_DENOM is
    counted as collapsed in ``stats``.

    With ``capture``, one dict of the (B*H, N, .) stacks is appended:
    ``phi_q``, ``phi_k``, the head-split ``values`` and the pre-merge
    ``linear_out``; stack entry b*H + h is sample b, head h.
    """
    total, d = q.data.shape
    d_head = omega.data.shape[0]
    heads, n = d // d_head, total // samples
    stack = samples * heads

    def features(x):
        rows = _split_heads(x, samples, n, heads).reshape((stack * n, d_head))
        phi = rff_features(rows, omega, phase)
        return phi.reshape((stack, n, phi.data.shape[1]))      # (B*H, N, R)

    fq, fk = features(q), features(k)
    values = _split_heads(v, samples, n, heads).reshape((stack, n, d_head))
    both = _attend(fq, fk, values)                             # (B*H, N, d_h+1)
    num, den = both[:, :, :d_head], both[:, :, d_head:]
    if stats is not None:
        stats["degenerate_rows"] = stats.get("degenerate_rows", 0) + int(
            (np.abs(den.data) < DEGENERATE_DENOM).sum()
        )
    out = num / (den + ATTENTION_EPS)
    if capture is not None:
        capture.append({"phi_q": fq.data, "phi_k": fk.data, "values": values.data,
                        "linear_out": out.data})
    return _merge_heads(out, samples)


def attention_block(z: Tensor, block: int, p: dict[str, Tensor],
                    stats: dict | None = None, capture: list | None = None,
                    samples: int = 1) -> Tensor:
    """One pre-norm block: spectral mixing across each sample's variates, then
    an MLP. ``z`` is (B*N, d), sample-major."""
    pre = f"blocks.{block}."

    normed = T.layernorm(z) * p[pre + "ln1_g"] + p[pre + "ln1_b"]
    coeffs = rfft_rows(normed)                                 # (B*N, d), forward-normalized
    q_all = coeffs @ p[pre + "wq"]
    k_all = coeffs @ p[pre + "wk"]
    v_all = coeffs @ p[pre + "wv"]
    mixed_in = linear_attention(q_all, k_all, v_all, p[pre + "omega"], p[pre + "phase"],
                                stats=stats, samples=samples, capture=capture)
    if capture is not None:
        capture[-1]["block"] = block
    mixed = z + irfft_rows(mixed_in)
    normed2 = T.layernorm(mixed) * p[pre + "ln2_g"] + p[pre + "ln2_b"]
    inner = T.relu(normed2 @ p[pre + "mlp_w1"] + p[pre + "mlp_b1"])
    return mixed + inner @ p[pre + "mlp_w2"] + p[pre + "mlp_b2"]


@dataclass
class ForwardResult:
    """Flat per-query predictions of a chunk plus the bookkeeping to regroup them.

    Rows run sample after sample, and within a sample variate after variate.
    """

    predictions: Tensor          # (total_queries, 1)
    counts: list[int]            # queries per variate, sample after sample (B*N entries)
    samples: int = 1
    stats: dict = field(default_factory=dict)

    def per_variate(self) -> list[np.ndarray]:
        """One array per (sample, variate); for a chunk of one, per variate."""
        return self._split(self.counts)

    def per_sample(self) -> list[np.ndarray]:
        """One flat array per sample."""
        n = len(self.counts) // self.samples
        return self._split([sum(self.counts[b * n : (b + 1) * n]) for b in range(self.samples)])

    def _split(self, sizes) -> list[np.ndarray]:
        # A plain loop: np.split costs ~3x more for the many short parts of
        # a wide sample, and this runs on every predict request.
        flat = self.predictions.data.ravel()
        out, start = [], 0
        for size in sizes:
            out.append(flat[start : start + size].copy())
            start += size
        return out


def forward(tp: Tape, model: ModelParams, block: AlignedTriplet, queries,
            capture: list | None = None) -> ForwardResult:
    """Run the full pipeline for a block of samples on the given tape.

    ``queries`` holds one array of future times per row of ``block``, in
    its sample-major row order; for a block of one, one array per variate.
    The block is read, never written. Deterministic given parameters and
    inputs. The model registers its flat parameter vector on the tape
    (``ModelParams.bind``).
    """
    cfg = model.cfg
    samples, length = block.samples, block.grid_length
    queries = [np.asarray(q, dtype=np.float64) for q in queries]
    if len(queries) != block.values.shape[0]:
        raise DataError(f"forward: expected {block.values.shape[0]} query arrays, "
                        f"one per row, got {len(queries)}")
    p = model.bind(tp)
    stats: dict = {"degenerate_rows": 0}

    rows = tp.const(block.values)                              # (B*N, L)
    tcol = tp.const(block.times.reshape((samples * length, 1)))    # (B*L, 1)

    xhat = encode_series(rows, tcol, block.mask, p, use_conv=cfg.use_preconv)
    z = pool_all(xhat, block.mask, normalize_times(block.times), p,
                 use_gate=cfg.use_pool_gate)

    for b in range(cfg.blocks):
        z = attention_block(z, b, p, stats=stats, capture=capture, samples=samples)
    summary = z @ p["out.w"]                                   # (B*N, d)

    counts = [q.size for q in queries]
    row_idx = np.repeat(np.arange(len(counts)), counts)
    flat_times = np.concatenate(queries) if sum(counts) else np.empty(0)
    tq = tp.const(flat_times[:, None])
    feats = T.concat([T.take_rows(summary, row_idx), time_encode(tq, p)], axis=1)
    hidden = T.relu(feats @ p["head.w1"] + p["head.b1"])
    hidden = T.relu(hidden @ p["head.w2"] + p["head.b2"])
    preds = hidden @ p["head.w3"] + p["head.b3"]               # (Q, 1)
    return ForwardResult(predictions=preds, counts=counts, samples=samples, stats=stats)


@dataclass
class AttentionMap:
    block: int
    head: int
    weights: np.ndarray        # (N, N), rows normalized to sum to one
    quadratic_out: np.ndarray  # (N, d_h) via the materialized weight matrix
    linear_out: np.ndarray     # (N, d_h) from the model's linear-order path
    degenerate_rows: int


def attention_maps(model: ModelParams, block: AlignedTriplet, queries=None) -> list[AttentionMap]:
    """Materialize per-block/head variate-attention maps for inspection.

    Uses the quadratic-order evaluation (phi(Q) phi(K)^T, explicitly
    normalized) purely for visualization; the model's own forward never
    builds the (N, N) matrix. The quadratic output must agree with the
    linear-order output up to association-order roundoff. The features,
    values and linear-order output are the stacks the forward pass already
    holds (see ``linear_attention``); ``block`` holds one sample, so stack
    entry h is head h.
    """
    if queries is None:
        queries = [np.empty(0) for _ in range(block.n_variates)]
    capture: list = []
    forward(Tape(grad=False), model, block, queries, capture=capture)
    maps = []
    for entry in capture:
        for head, phi_q in enumerate(entry["phi_q"]):
            raw = phi_q @ entry["phi_k"][head].T               # (N, N)
            rowsum = raw.sum(axis=1, keepdims=True)
            degenerate = np.abs(rowsum) < DEGENERATE_DENOM
            safe = np.where(degenerate, 1.0, rowsum)
            quad_out = (raw @ entry["values"][head]) / (rowsum + ATTENTION_EPS)
            maps.append(
                AttentionMap(
                    block=entry["block"],
                    head=head,
                    weights=raw / safe,
                    quadratic_out=quad_out,
                    linear_out=entry["linear_out"][head],
                    degenerate_rows=int(degenerate.sum()),
                )
            )
    return maps
