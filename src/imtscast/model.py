"""Model layers and the end-to-end forward pass.

Pipeline per sample: convolutional smoothing of the zero-filled series,
continuous time encoding fused in, Gaussian-kernel pooling of each variate
down to a fixed-width vector, stacked spectral linear-attention blocks that
mix variates, and a query-conditioned MLP head.

The fused series (smoothed value plus projected time encoding) is formed
at the observed cells only and placed on a zero grid that pooling's
numerator reads as it is, so the rest of the grid, mostly unobserved on
long sparse series, costs no convolution or encoding work. The cells and
their taps on the zero-filled grid are data, built once per sample by
``data.align`` and re-based for a chunk by ``data.pad_chunk``; pooling's
mask, for its denominator and flags, is built from ``cells`` per forward.

The forward pass runs one block of B samples that share the variate count
N (``data.AlignedTriplet``); a sample is a block of one. Every layer works
on the block's (B*N, .) rows in sample-major order. Only encoding, pooling
and attention need to know where one sample ends: encoding places the
fused series as the (B, N, L) stack pooling's batched matmuls read, and
linear attention takes the sample count and the (B*N, d) rows of q, k and
v; its feature maps, the per-(sample, head) views its matmuls need, the
[V | 1] numerator and denominator and their floored quotient live inside
its one ``linear_attention`` node.

All layers run on the differentiation tape. The learnables live in one
flat float64 vector with a named view per array (``ModelParams``), so a
forward binds them with one finiteness check and the optimizer updates
them in a handful of vector operations; serialization uses the named
views, and the gradient check moves entries of the vector in place.

The frozen buffers (the feature draws and the kernel centres) never enter
the tape: ``init`` and ``load`` check them, and the two nodes that read
them, ``linear_attention`` and ``_kernel_weights``, take them as plain
arrays and check what they compute, so a non-finite value written into a
buffer later still raises at the node that reads it.

A training tape keeps what its VJP closures capture until backward, and
that memory bounds how many samples a chunk can hold. Five nodes exist to
keep less or to skip work: ``linear_attention``, ``query_features`` and
``time_projection`` differentiate from what they keep (the first from its
features and k, the second from the encoding in its own output), so none
runs a transcendental in backward, and ``_smoothing_layers``,
``linear_attention`` and ``_kernel_weights`` recompute their largest
intermediates in backward (the conv's hidden layer, the middle product of
attention's three-matrix chain in whichever order the node chose, the
squared distances to the kernel centres). ``time_projection`` (the grid's
time encoding and its projection), ``query_features`` (each query's row
of the last block's output beside its time's encoding),
``_kernel_weights`` and ``_pool_quotient`` replace chains of 8, 9, 10 and
7 nodes, and ``linear_attention`` the two feature maps, the quotient and
the four reshapes around them, which cuts the fixed per-node cost of
every forward. The two time nodes read their times as plain arrays, so no
time enters the tape as a constant. ``tape_bytes`` sums what a chunk's
tape keeps; ``train.chunk_spans`` budgets chunks by it.

The grid-wide stages are feature-major: the time encoding is built as
(d_te, M) and the kernel weights as (B, K, L), so the axis over grid
times is the contiguous innermost one and every numpy call on them runs a
grid-long inner loop. Pooling reads the weights through a transposed view
and hands back their adjoint in their own layout; ``query_features``
writes the queries' encoding, transposed, beside their rows. The
forwards build their arrays in place, so that no grid-wide node makes a
throwaway temporary per numpy call, and products with a contracted size
of 1 (the encoding's arguments, an adjoint in ``_smoothing_layers``) are
formed by broadcasting rather than as BLAS outer products, which is
exact. Linear attention's features
are feature-major too: one (2, R, B*H*N) buffer holds the queries' and
the keys' with one column per (sample, head, row), so its reductions and
its one exp run (B*H*N)-long inner loops. Its per-(sample, head) products
read the features through (B, H, R, N) views and run in the association
order, weights first or summary first, that needs fewer multiply-adds at
the block's N (see ``linear_attention``).

Every fused node's output is bitwise the chain it replaces, and so are
its adjoints, except where a product sums in another order than the
chain's or where the time encoding replaces sin and cos, either of which
moves the result in its last bits (see each docstring):
- the time encoding (``_encoding``, inside ``time_projection`` and
  ``query_features``) forms each sin/cos pair from one tangent of the
  half angle, so those entries lie within ``ENCODING_ATOL`` (4 eps)
  of the chain's sin and cos, and what reads them moves with them: both
  nodes' outputs, and the adjoints of w_f, b_f and w_t (its linear rows
  and the other adjoints are bitwise);
- ``time_projection``'s output w_t^T enc sums its d_te terms in another
  order than the chain's (M, d_te) @ (d_te, 1) product, and all its
  adjoints come from one (2, M) @ (M, d_te) product instead of an
  (M, d_te) encoding adjoint;
- ``_kernel_weights``' adjoint sums g w (t - c)^2 over each kernel's row
  instead of over the chain's (B, L) axes;
- ``_pool_quotient`` forms the weights' adjoint in their (B, K, L) layout
  where the chain formed its (B, L, K) transpose, which a BLAS may sum in
  another order;
- ``linear_attention`` projects omega^T x^T where the chain formed x omega,
  forms its products and all its adjoints on the feature-major buffer,
  and for few rows per (sample, head) associates its products weights
  first, so its output and adjoints move in their last bits too.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tape as T
from .config import ConfigError, TrainConfig, physical_memory, validate
from .data import AlignedTriplet, DataError, normalize_times
from .fourier import irfft_rows, rfft_rows
from .tape import NonFiniteError, Tape, Tensor

# Positive features give positive attention denominators, which fall
# toward 0 only where a query's features and the keys' barely meet (their
# products underflow when the two lie far apart). A denominator at or below
# ATTENTION_EPS is raised to it, so such a row's quotient shrinks toward 0
# with finite gradients, and the row counts as collapsed; every other
# quotient is exact.
ATTENTION_EPS = 1e-6          # floor of every attention denominator
# A pooling denominator is a sum of Gaussian weights over a variate's
# observed cells. Narrow kernels make it underflow toward subnormals far
# from those cells, where the quotient's adjoint g / den would overflow. A
# denominator at or below POOLING_EPS counts as no support, as an exact
# zero does (see ``_pool_quotient``); 1/POOLING_EPS leaves the adjoints finite.
POOLING_EPS = 1e-150          # largest pooling denominator that counts as no support
# The time encoding forms each sin/cos pair from tan of the half angle (see
# ``_encoding``). ENCODING_ATOL bounds each such entry against np.sin/np.cos
# of the same argument, given a tan and a sin/cos within 1 ulp each
# (relative error <= eps). To first order in eps: tan's error moves sin by
# eps/2 and cos by eps sin^2; the roundings of u^2, 1 + u^2, 2 / (1 + u^2)
# and the last product (sin) or difference (cos; exact, by Sterbenz, while
# 2 / (1 + u^2) >= 1/2) add 2 eps |sin| and 1.75 eps; np.sin's and np.cos's
# own error adds eps/2. That is 3 eps for sin and 3.25 eps for cos. tan's
# 1 ulp is a budget, not a guarantee: numpy's SIMD tan is not correctly
# rounded, and with numpy 2.4 it was measured within 1 ulp of mpmath for
# arguments up to 1e6 in magnitude. The largest difference seen over 1.2e8
# arguments with |theta| from 1e-3 to 400 was 3.3e-16 (1.5 eps).
ENCODING_ATOL = 4.0 * np.finfo(np.float64).eps
CHECKPOINT_FORMAT = "imtscast-checkpoint-4"
# Checkpoint formats this version refuses, each with what changed since it.
RETIRED_FORMATS = {
    "imtscast-checkpoint-1": "whose attention used the retired cos/sin random-feature map; "
                             "this version uses positive random features",
    "imtscast-checkpoint-2": "whose time encoding drew its sin and cos columns from separate "
                             "frequencies; this version replaced them with sin/cos pairs that "
                             "share one frequency and phase each",
    "imtscast-checkpoint-3": "whose model had a separate (d, d) output projection before the "
                             "head; this version's head reads the last attention block's output",
}


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
        """Seeded initialization from ``layout``: uniform(+-1/sqrt(fan_in))
        weights, zero biases, unit layernorm gains.

        Raises ConfigError, before allocating anything, for a config whose
        arrays need more bytes than the machine's physical memory."""
        validate(cfg)
        if seed is None:
            seed = cfg.seed
        memory = physical_memory()
        if 8 * _stored_floats(cfg) > memory:
            raise ConfigError(f"the config has {expected_param_count(cfg):,} learnable "
                              "parameters, more than fit in this machine's "
                              f"{memory / 2**30:.1f} GiB of memory; lower hidden or blocks")
        rng = np.random.default_rng([int(seed), 0x5EED])
        shapes, buffer_shapes = layout(cfg)
        arrays: dict[str, np.ndarray] = {}
        for name, (shape, start) in shapes.items():
            if isinstance(start, int):
                bound = 1.0 / np.sqrt(start)
                arrays[name] = rng.uniform(-bound, bound, size=shape)
            else:
                arrays[name] = np.full(shape, start)

        # The random feature draws are sampled once, stored with the model
        # and never trained.
        rff_rng = np.random.default_rng([int(seed), 0xF0F0])
        buffers = {"pool.centers": np.linspace(0.0, 1.0, cfg.kernels)[None, :]}
        for b in range(cfg.blocks):
            omega = f"blocks.{b}.omega"
            buffers[omega] = rff_rng.standard_normal(buffer_shapes[omega])
        return cls(cfg=cfg, arrays=arrays, buffers=buffers)

    def bind(self, tp: Tape) -> dict[str, Tensor | np.ndarray]:
        """Register all learnables on a tape, checking the flat vector's
        finiteness once. The buffers come along as the plain arrays
        ``init`` and ``load`` checked; the nodes that read them check their
        own outputs (see the module docstring)."""
        return {**tp.param_vector(self.flat, self.arrays), **self.buffers}

    def copy(self) -> "ModelParams":
        return ModelParams(
            cfg=self.cfg,
            arrays=self.arrays,
            buffers={k: v.copy() for k, v in self.buffers.items()},
        )

    def save(self, path) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
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

        Raises DataError for invalid JSON, a file of one of the
        ``RETIRED_FORMATS`` (its message says what changed since), missing
        sections, parameter and buffer names or shapes that differ from the
        stored config's ``layout``, entries whose ``data`` is not a flat list
        of JSON numbers, or entries holding NaN, infinite or out-of-range
        values. Nothing larger than the file's own data is allocated,
        whatever its config asks for.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as err:  # invalid JSON or text encoding
            raise DataError(f"{path}: not a valid checkpoint: {err}") from err
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if isinstance(fmt, str) and fmt in RETIRED_FORMATS:
            raise DataError(f"{path}: an {fmt} file, {RETIRED_FORMATS[fmt]}, so retrain the "
                            "model with imtscast train")
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"{path}: not a checkpoint file")
        missing = [key for key in ("config", "params", "buffers") if key not in doc]
        if missing:
            raise DataError(f"{path}: checkpoint has no {', '.join(missing)}")
        if not isinstance(doc["config"], dict):
            raise DataError(f"{path}: bad checkpoint config: not a JSON object")
        try:
            cfg = TrainConfig.from_dict(doc["config"])
            validate(cfg)
        except (ConfigError, TypeError, ValueError) as err:
            raise DataError(f"{path}: bad checkpoint config: {err}") from err
        # Every block owns parameter entries: this bounds the layout listed
        # below by the file's size, whatever the config asks for.
        if not isinstance(doc["params"], dict) or len(doc["params"]) < cfg.blocks:
            raise DataError(f"{path}: params names differ from what the config builds")
        shapes, buffer_shapes = layout(cfg)

        def restore(key, expected):
            section = doc[key]
            if not isinstance(section, dict) or set(section) != set(expected):
                raise DataError(f"{path}: {key} names differ from what the config builds")
            out = {}
            for name, shape in expected.items():   # the layout's order, whatever the file's
                entry = section[name]
                try:
                    data = entry["data"]
                    # What save writes; np.asarray would also take strings,
                    # booleans, nested lists and a bare number.
                    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
                        raise TypeError("data is not a flat list of numbers")
                    arr = np.asarray(data, dtype=np.float64).reshape(entry["shape"])
                except (KeyError, TypeError, ValueError, OverflowError) as err:
                    raise DataError(f"{path}: malformed {key} entry {name!r}: {err}") from err
                if arr.shape != shape:
                    raise DataError(f"{path}: {key} {name!r} has shape {arr.shape}, "
                                    f"the config builds {shape}")
                if not np.isfinite(arr).all():
                    raise DataError(f"{path}: {key} {name!r} holds non-finite values")
                out[name] = arr
            return out

        return cls(
            cfg=cfg,
            arrays=restore("params", {name: shape for name, (shape, _) in shapes.items()}),
            buffers=restore("buffers", buffer_shapes),
        )


def layout(cfg: TrainConfig) -> tuple[dict, dict[str, tuple[int, ...]]]:
    """Every array ``ModelParams.init`` builds for ``cfg``, without building it.

    The learnables map name -> (shape, start) in flat-vector order: an int
    ``start`` is the fan-in of a uniform(+-1/sqrt(fan_in)) draw, a float the
    value every entry starts at. The buffers map name -> shape.
    """
    d, dte, k, c = cfg.hidden, cfg.time_dim, cfg.kernels, cfg.conv_channels
    # The time encoding's columns are [linear x (d_te - 2P) | sin x P | cos x P]:
    # te.w_s, te.b_s scale and shift the linear ones, and the P sin/cos pairs
    # share one frequency and phase each (te.w_f, te.b_f).
    pairs = (dte - 1) // 2
    shapes = {
        "conv.w1": ((c, 3), 3), "conv.b1": ((c, 1), 0.0),
        "conv.w2": ((1, c), c), "conv.b2": ((1, 1), 0.0),
        "te.w_s": ((1, dte - 2 * pairs), 1), "te.b_s": ((1, dte - 2 * pairs), 0.0),
        "te.w_f": ((1, pairs), 1), "te.b_f": ((1, pairs), 0.0), "te.w_t": ((dte, 1), dte),
        "pool.log_alpha": ((1, k), float(np.log(1.0 / k))), "pool.gate": ((1, k), 0.0),
        "pool.w_proj": ((k + 1, d), k + 1),
    }
    for b in range(cfg.blocks):
        p = f"blocks.{b}."
        shapes.update({
            p + "wq": ((d, d), d), p + "wk": ((d, d), d), p + "wv": ((d, d), d),
            p + "ln1_g": ((1, d), 1.0), p + "ln1_b": ((1, d), 0.0),
            p + "ln2_g": ((1, d), 1.0), p + "ln2_b": ((1, d), 0.0),
            p + "mlp_w1": ((d, 2 * d), d), p + "mlp_b1": ((1, 2 * d), 0.0),
            p + "mlp_w2": ((2 * d, d), 2 * d), p + "mlp_b2": ((1, d), 0.0),
        })
    shapes.update({
        "head.w1": ((d + dte, d), d + dte), "head.b1": ((1, d), 0.0),
        "head.w2": ((d, d), d), "head.b2": ((1, d), 0.0),
        "head.w3": ((d, 1), d), "head.b3": ((1, 1), 0.0),
    })
    buffers = {"pool.centers": (1, k)}
    for b in range(cfg.blocks):
        buffers[f"blocks.{b}.omega"] = (d // cfg.heads, cfg.rff_dim // 2)
    return shapes, buffers


@functools.lru_cache(maxsize=8)
def _layout_floats(cfg: TrainConfig) -> tuple[int, int]:
    """Floats of the learnables and of the buffers ``layout`` lists for ``cfg``.

    The layout is affine in ``blocks``, so it is listed at one and two
    blocks only: a huge ``blocks`` is counted at once, before anything is
    allocated. Cached: ``train.chunk_spans`` asks once per sample.
    """
    def listed(blocks):
        shapes, buffers = layout(replace(cfg, blocks=blocks))
        return (sum(math.prod(shape) for shape, _start in shapes.values()),
                sum(math.prod(shape) for shape in buffers.values()))

    (learn1, buf1), (learn2, buf2) = listed(1), listed(2)
    extra = cfg.blocks - 1
    return learn1 + extra * (learn2 - learn1), buf1 + extra * (buf2 - buf1)


def expected_param_count(cfg: TrainConfig) -> int:
    """Learnable parameter count of ``cfg``: the sizes of ``layout``'s learnables."""
    return _layout_floats(cfg)[0]


def _stored_floats(cfg: TrainConfig) -> int:
    """Floats of every array ``layout`` lists for ``cfg``, learnables and buffers."""
    return sum(_layout_floats(cfg))


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
        # encode: the cells (P,) at which the fused series is placed and,
        # with the conv, its taps (3, P) (a chunk of one keeps its
        # sample's own); the grid times and the time encoding (B*L, 1 + d_te)
        observed * (4 if cfg.use_preconv else 1) + times * (1 + dte)
        # pool: the normalized times (B, L) and the kernel weights (B, K, L),
        # and in the quotient's node the mask and the fused series
        # (B*N, L) x2 and the quotient and its raised denominator (B*N, K)
        # x2; the summary with its flag (B*N, K+1)
        + times * (1 + k) + rows * grid_length * 2 + rows * (3 * k + 1)
        # per block: two layernorms (B*N, d+1), the spectral coefficients,
        # the MLP input (B*N, d) and hidden layer (B*N, 2d) with its relu
        # mask (bytes), and in linear attention's node k (B*N, d), the
        # features of Q and K (2, R, B*H*N), [V | 1] and the quotient with
        # its floored denominator (B*N*H, d_h+1) x2
        + cfg.blocks * rows * (9 * d + mask + 2 * heads * cfg.rff_dim + 2 * heads + 2)
        # head and loss per query: row index, time, features (d + d_te),
        # from which its VJP reads the time encoding, two hidden layers with
        # relu masks, residual and weight
        + queries * (3 * d + mask + dte + 5)
        # parameters, feature draws, the DFT pair and a few tiny arrays
        + _stored_floats(cfg) + 2 * d * d + 2 * k + 64 * (cfg.blocks + 1)
    )
    return 8 * floats


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

TE_NAMES = ("te.w_s", "te.b_s", "te.w_f", "te.b_f")   # the time encoding's parameters


def time_projection(times: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """The time encoding of a (M, 1) column of times projected by
    ``p["te.w_t"]``, as one node: (M, 1) -> (M, 1). The times are data, read
    as a plain array, so a non-finite time raises here, at the encoding's
    check.

    It replaces the encoding's chain (``oracles.chain_time_encode``) and its
    product with w_t, and keeps what that pair kept, the encoding (here the
    (d_te, M) one of ``_encoding``) and the times. The encoding's linear
    rows are bitwise the pair's, and each sin and cos entry lies within
    ``ENCODING_ATOL`` of it (``_encoding``), which moves the projection by
    at most ``ENCODING_ATOL`` sum|w_t|. The projection is w_t^T enc, whose
    d_te-term sums run in another order than the pair's (M, d_te) @
    (d_te, 1) product, so it differs from the pair's output in the last
    bits beyond that too.

    Every adjoint is a contraction of the (M, 1) adjoint g and of t g with
    the encoding, so the VJP forms R = [g | t g]^T enc^T, one (2, M) @
    (M, d_te) product, and no (M, d_te) or (M, P) temporary. R's first row
    is w_t's adjoint. With u and v w_t's sin and cos rows, the pairs'
    adjoints are u R[cos] - v R[sin] (row 0 for b_f, row 1 for w_f), and
    w_s's and b_s's are w_t's linear rows times sum(t g) and sum(g). The
    adjoints are therefore summed in another order than the pair's: the
    reordering alone moves each entry by at most 4.5e-16 of the sum of
    the absolute terms it adds up (1,000 random draws with times up to
    1e4). w_t's, w_f's and b_f's also read the sin and cos entries, so
    each may move further by ``ENCODING_ATOL`` times the sum of its terms'
    other factors.
    """
    # The encoding is checked as the pair checked it: a BLAS product may
    # skip the terms of a zero weight.
    t, wt = times, p["te.w_t"].data
    enc = _encoding(t, *(p[name].data for name in TE_NAMES))           # (d_te, M)
    if not np.isfinite(enc).all():
        raise NonFiniteError("time_projection: produced non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):   # record() raises instead
        proj = np.matmul(wt.swapaxes(-1, -2), enc)                     # (1, M)
    n_lin = p["te.w_s"].data.shape[1]
    pairs = (enc.shape[0] - n_lin) // 2

    def vjp(g):
        both = np.empty((2, g.shape[0]))
        both[0] = g[:, 0]
        np.multiply(t[:, 0], g[:, 0], out=both[1])
        r = both @ enc.swapaxes(-1, -2)                       # (2, d_te)
        sum_g, sum_tg = both.sum(axis=1)
        lin, u, v = wt[:n_lin, 0], wt[n_lin : n_lin + pairs, 0], wt[n_lin + pairs :, 0]
        g_pairs = u * r[:, n_lin + pairs :] - v * r[:, n_lin : n_lin + pairs]
        return ((sum_tg * lin)[None], (sum_g * lin)[None], g_pairs[1:], g_pairs[:1],
                r[:1].swapaxes(-1, -2))

    return p["te.w_t"].tape.record("time_projection", proj.reshape(-1, 1),
                                   tuple(p[name] for name in (*TE_NAMES, "te.w_t")), vjp)


def _encoding(t: np.ndarray, ws: np.ndarray, bs: np.ndarray, wf: np.ndarray,
              bf: np.ndarray) -> np.ndarray:
    """The (d_te, M) time encoding of (M, 1) times, feature-major and
    unchecked.

    Rows: [linear x (d_te - 2P) | sin x P | cos x P], P = (d_te - 1) // 2.
    The linear rows are t w_s + b_s; sin/cos pair j shares one argument
    theta_j = t w_f[j] + b_f[j], the linear-plus-periodic encoding of
    Time2Vec (arXiv 1907.05321) and mTAN (arXiv 2101.10318).

    Each pair comes from one tangent of the half angle (the Weierstrass
    substitution): with u = tan(theta / 2), sin theta = 2u / (1 + u^2) and
    cos theta = 2 / (1 + u^2) - 1. numpy runs float64 ``tan`` on a SIMD
    path where its ``sin`` and ``cos`` call scalar libm per element, so one
    tangent costs about a third of the two; without that path it is still
    one libm call per pair instead of two. Halving theta is exact (but
    for subnormals), and tan of a finite double is finite: no double lies
    closer than ~4.7e-19 to an odd multiple of pi/2 (the nearest is
    6381956970095103 * 2^797), so |u| stays below ~2.2e18 and u^2 cannot
    overflow. A finite theta therefore gives a finite pair and a
    non-finite one a NaN, as sin and cos did. Each sin and cos entry lies
    within ``ENCODING_ATOL`` of ``np.sin``/``np.cos`` of the same theta
    while tan stays within the 1-ulp budget that bound is derived from;
    the linear rows are bitwise the chain's.
    """
    # Each row runs over the M times, so every numpy call below has an
    # M-long inner loop, and each step writes in place into its rows. A
    # matmul with a contracted size of 1 is the broadcast product exactly,
    # so the linear rows and theta are bitwise the primitive chain's. u is
    # formed in the sin rows and 2 / (1 + u^2) in the cos rows.
    n_lin, pairs = ws.shape[1], wf.shape[1]
    row = t.reshape(1, -1)
    out = np.empty((n_lin + 2 * pairs, row.shape[1]))
    lin, sin, cos = out[:n_lin], out[n_lin : n_lin + pairs], out[n_lin + pairs :]
    with np.errstate(over="ignore", invalid="ignore"):   # the callers raise instead
        np.multiply(ws.swapaxes(-1, -2), row, out=lin)
        lin += bs.swapaxes(-1, -2)
        np.multiply(wf.swapaxes(-1, -2), row, out=sin)
        sin += bf.swapaxes(-1, -2)
        sin *= 0.5
        np.tan(sin, out=sin)
        np.multiply(sin, sin, out=cos)
        cos += 1.0
        np.divide(2.0, cos, out=cos)
        sin *= cos
        cos -= 1.0
    return out


def _encoding_vjp(t: np.ndarray, out: np.ndarray, n_lin: int, g: np.ndarray) -> tuple:
    """Adjoints of w_s, b_s, w_f and b_f from the (M, d_te) encoding ``out``
    of the times ``t`` and its adjoint ``g``."""
    # g_theta is laid out as the chain's (C order, whatever ``out``'s
    # layout), so the products below run as the chain's matmuls did.
    pairs = (out.shape[1] - n_lin) // 2
    g_lin = g[:, :n_lin]
    g_theta = np.multiply(g[:, n_lin : n_lin + pairs], out[:, n_lin + pairs :],
                          order="C")                                      # g_sin cos
    g_theta -= g[:, n_lin + pairs :] * out[:, n_lin : n_lin + pairs]     # g_cos sin
    t_t = t.swapaxes(-1, -2)
    return (t_t @ g_lin, g_lin.sum(axis=0, keepdims=True),
            t_t @ g_theta, g_theta.sum(axis=0, keepdims=True))


def _smoothing_layers(taps: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor,
                      b2: Tensor) -> Tensor:
    """Both conv layers as one node; backward recomputes the (C, P) hidden layer from the taps."""
    # Each step is the numpy call of the primitive it replaces (matmul, add,
    # relu), each in place where those made a temporary, so the output and
    # the adjoints are bitwise those primitives'. The ReLU is max(h, 0) in
    # place, which equals relu's h * (h > 0) wherever h is finite or NaN
    # (but for the sign of a zero), and the VJP's mask h > 0 of the
    # rectified layer is relu's mask of the layer before it. A -inf
    # pre-activation (from a -inf tap, or an overflow) differs: relu's
    # product made it a NaN that the node's check raised on, and max makes
    # it 0, so the forward raises on it first. The adjoint w2^T g has a
    # contracted size of 1, so the broadcast product is the matmul's
    # exactly, without a BLAS outer product.
    w1d, b1d, w2d, b2d = w1.data, b1.data, w2.data, b2.data

    def pre_activation():
        h = np.matmul(w1d, taps)
        h += b1d
        return h

    with np.errstate(over="ignore", invalid="ignore"):        # record() raises instead
        h = pre_activation()
        if np.min(h, initial=0.0) == -np.inf:
            raise NonFiniteError("smoothing_layers: produced non-finite values")
        np.maximum(h, 0.0, out=h)
        out = np.matmul(w2d, h)
        out += b2d

    def vjp(g):
        h = pre_activation()
        np.maximum(h, 0.0, out=h)
        mask = h > 0
        g_w2 = g @ h.swapaxes(-1, -2)
        g_pre = np.multiply(w2d.swapaxes(-1, -2), g, out=h)   # h is not read again
        g_pre *= mask
        return (g_pre @ taps.swapaxes(-1, -2), g_pre.sum(axis=1, keepdims=True),
                g_w2, g.sum(axis=1, keepdims=True))

    return w1.tape.record("smoothing_layers", out, (w1, b1, w2, b2), vjp)


def encode_series(block: AlignedTriplet, tp: Tape, p: dict[str, Tensor],
                  use_conv: bool = True) -> Tensor:
    """Smoothing convolution plus the projected time encoding, per Eq. of the
    fused representation: all variates share both the filters and the grid.

    The width-3 then 1x1 convolution with zero same-padding runs over the
    observed cells' (3, P) ``taps`` (without it, their own values enter the
    tape ``tp`` as a checked constant). The block's grid times, one grid
    after another, are projected as a (B*L, 1) column. Returns the
    (B, N, L) stack pooling reads.
    """
    conv = (p[name] for name in ("conv.w1", "conv.b1", "conv.w2", "conv.b2"))
    values = _smoothing_layers(block.taps, *conv) if use_conv else tp.const(block.taps[1:2])
    return _fuse_at_cells(values, time_projection(block.times.reshape(-1, 1), p), block)


def _fuse_at_cells(values: Tensor, proj: Tensor, block: AlignedTriplet) -> Tensor:
    """The (1, P) values at the block's flat ``cells`` plus the (B*L, 1)
    grid-time projection, on a zero (B, N, L) grid: cell (b*N + n)*L + col
    reads time b*L + col. One node; it checks the P sums. Its VJP gathers
    the adjoint at the cells and sums it per grid time, keeping only cells."""
    cells, n_variates, length = block.cells, block.n_variates, block.grid_length

    def grid_times():
        return cells // (n_variates * length) * length + cells % length

    with np.errstate(over="ignore", invalid="ignore"):         # raises below instead
        sums = values.data.reshape(-1) + proj.data.reshape(-1)[grid_times()]
    if not np.isfinite(sums).all():
        raise NonFiniteError("fuse_at_cells: produced non-finite values")
    out = np.zeros((block.samples, n_variates, length))
    out.reshape(-1)[cells] = sums

    def vjp(g):
        at_cells = g.reshape(-1)[cells]
        return (at_cells.reshape(1, -1),
                np.bincount(grid_times(), at_cells, g.shape[0] * length).reshape(-1, 1))

    return values.tape.append("fuse_at_cells", out, (values, proj), vjp)


def _kernel_weights(t_norm: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Gaussian affinity of each normalized time to each kernel centre:
    (B, L) times -> (B, K, L) weights exp(-(t - c)^2 / (2 sigma^2)),
    sigma = exp(log_alpha).

    One node, differentiated for ``pool.log_alpha`` only (the centres are
    a frozen buffer, read as a plain array; the times are data). It keeps
    the weights and the times. The weights are laid out kernel-major, so
    every broadcast below, forward and backward, runs an L-long inner loop
    (a (B, L, K) layout would run K-long ones). Its VJP recomputes the
    squared distances (t - c)^2, bitwise the forward's, scales them by g
    and w in place and sums each kernel's row, which forms only the K sums
    log_alpha's adjoint sum(g w (t - c)^2) / sigma^2 needs: O(K B L) time
    and one (B, K, L) temporary, however many kernels there are. That sum
    runs in another order than the chain's, so the adjoint differs from
    the chain's in the last bits. Expanding (t - c)^2 into moments of t
    would be cheaper, but it cancels: ~7e-13 at the default sigma of 1/K
    (K = 8), ~1.5e-9 at sigma = 1e-3.
    """
    # The numpy calls of the primitive chain it replaces (sub, mul, exp,
    # mul, mul, div, exp), each in place where the chain made a temporary,
    # so the output is bitwise that chain's. The exponent is checked: exp
    # would map its -inf to 0, and a non-finite centre would go unnoticed.
    log_alpha = p["pool.log_alpha"]
    times = t_norm[:, None, :]                                   # (B, 1, L)
    centers = p["pool.centers"].swapaxes(-1, -2)                 # (K, 1)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sig2 = np.exp(log_alpha.data.swapaxes(-1, -2) * 2.0)    # (K, 1)
        weights = times - centers
        weights *= weights
        weights *= -0.5
        weights /= sig2
    if not (np.isfinite(sig2).all() and np.isfinite(weights).all()):
        raise NonFiniteError("kernel_weights: produced non-finite values")
    np.exp(weights, out=weights)

    def vjp(g):
        terms = times - centers
        terms *= terms
        terms *= g
        terms *= weights
        return (terms.sum(axis=(0, 2))[None] / sig2.swapaxes(-1, -2),)

    # exp of a finite exponent <= 0 lies in [0, 1]: no second check.
    return log_alpha.tape.append("kernel_weights", weights, (log_alpha,), vjp)


def _pool_quotient(xhat: Tensor, weights: Tensor, mask_rows: np.ndarray) -> Tensor:
    """Each variate's kernel-weighted mean over its observed cells: the
    (B, N, L) fused series and the (B, K, L) weights -> the (B*N, K)
    quotients num / den, num = xhat W^T and den = mask W^T per sample.

    A denominator is exactly zero only where its numerator is too: a
    variate with no observation, or a kernel with no support at any
    observed point; at or below POOLING_EPS, the kernel's support there
    has underflowed. Such a denominator is raised by one, and since 1 + den
    is then exactly 1, its entry pools to its numerator, at most
    POOLING_EPS times the row's largest value (0 for an exact zero), with
    finite gradients, where a tiny additive guard would give 0 / 0 in the
    division's gradient. Every other denominator is left bitwise unchanged.

    One checked node in place of seven (the mask constant, two batched
    matmuls, the correction constant and its add, the division and the
    reshape); it keeps what they kept: the series, the mask, the weights,
    the raised denominators and the quotients. The weights are read through
    a transposed view, and the VJP returns g_num W for the series and
    g_num^T xhat + g_den^T mask for the weights, each in its parent's
    layout, with g_num = g / den and g_den = -g_num * quotient (the form
    that stays finite for a tiny den). The forward and the series' adjoint
    are the chain's numpy calls, so they are bitwise the chain's. The
    chain formed the weights' adjoint as its (B, L, K) transpose, which a
    BLAS may sum in another order (the two agreed bitwise over 200 random
    draws with OpenBLAS, but no BLAS promises it).
    """
    x, w = xhat.data, weights.data
    mask = mask_rows.reshape(x.shape)
    w_t = w.swapaxes(-1, -2)                                     # (B, L, K)
    with np.errstate(over="ignore", invalid="ignore"):           # record() raises instead
        out = np.matmul(x, w_t)                                  # (B, N, K)
        den = np.matmul(mask, w_t)
        den += den <= POOLING_EPS
        out /= den

    def vjp(g):
        g_num = g.reshape(out.shape) / den
        g_den = -g_num * out
        g_w = np.matmul(g_num.swapaxes(-1, -2), x)               # (B, K, L)
        g_w += np.matmul(g_den.swapaxes(-1, -2), mask)
        return np.matmul(g_num, w), g_w

    return xhat.tape.record("pool_quotient", out.reshape(-1, w.shape[1]), (xhat, weights),
                            vjp)


def pool_all(xhat: Tensor, mask_rows: np.ndarray, t_norm: np.ndarray,
             p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool every variate of every sample at once: (B, N, L) -> (B*N, d).

    ``xhat`` is the (B, N, L) stack of ``encode_series``, ``mask_rows`` its
    (B*N, L) mask, sample-major, built from the block's ``cells`` once per
    forward, and ``t_norm`` holds the (B, L) normalized grid times of
    ``data.normalize_times``. A sample's variates share its grid, so one
    (K, L) kernel-weight matrix serves all N of its rows. The (B, K, L)
    weights meet the rows in one node (``_pool_quotient``), whose batched
    matmuls form the numerators and the masked denominators and divide; no
    (L, K) coefficient matrix per variate is materialized. Precondition:
    xhat is zero off the observed cells (as ``encode_series`` leaves it),
    so unobserved and padded cells drop out of both sums.
    """
    weights = _kernel_weights(t_norm, p)                         # (B, K, L)
    pooled = _pool_quotient(xhat, weights, mask_rows)            # (B*N, K)
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    # The flags are built in {0, 1}: they enter unchecked.
    flags = xhat.tape.append(
        "const", (mask_rows.sum(axis=1, keepdims=True) > 0).astype(np.float64), (), None)
    return T.concat([pooled, flags], axis=1) @ p["pool.w_proj"]


def linear_attention(q: Tensor, k: Tensor, v: Tensor, omega: np.ndarray,
                     stats: dict | None = None, samples: int = 1,
                     capture: list | None = None) -> Tensor:
    """Kernelized attention of every (sample, head) at once.

    ``q``, ``k`` and ``v`` are (B*N, d), sample-major, with head h in columns
    [h*d_h, (h+1)*d_h); d_h is the row count of the frozen (d_h, R/2)
    standard-normal draw ``omega``. Per sample and head, with the features
    of the N rows as the columns of (R, N) matrices phi_Q and phi_K, the
    numerator and the denominator are phi_Q^T phi_K [V | 1]. Each (row,
    head) whose denominator is at or below the ATTENTION_EPS floor gets the
    floor, which no gradient reaches, and is counted as collapsed in
    ``stats``.

    That three-matrix product is evaluated in whichever association needs
    fewer multiply-adds over forward plus backward, a matrix-chain order
    (the associativity argument of Katharopoulos et al. 2020, arXiv
    2006.16236). Per (sample, head), with J = d_h + 1:
    - summary first, phi_Q^T (phi_K [V | 1]) through the (R, J) summary:
      R N (6J + d_h) multiply-adds;
    - weights first, (phi_Q^T phi_K) [V | 1] through the (N, N) weights:
      N^2 (4R + 2J + d_h).
    Weights first is taken where it costs strictly less (``_weights_first``):
    at the default R = 64 and d_h = 8, for N <= 14. It is taken only below
    an N set by R and d_h, so the cost stays linear in N. The order is the
    only thing that depends on the shape; the features, the floor, the
    shift adjoint and the degenerate count are the same code in both.

    The feature map is phi(x) = s [exp(x omega - |x|^2), exp(-x omega - |x|^2)]
    with s = 1/sqrt(2R): the hyperbolic positive random features of
    Choromanski et al. 2021 (arXiv 2009.14794). The inner product of two
    such rows is an unbiased estimate of exp(-|x-y|^2/2)/2 and is never
    negative, so the weights are a Gaussian-kernel average of the values.
    The exponents are shifted so that the largest feature of each group is
    s: each query row is its own group, and all keys of one (sample, head)
    form one. A shift multiplies every feature of a group by one positive
    factor, which cancels in the quotient; it keeps the denominators far
    above the floor wherever a query's features meet the keys', and a query
    row's features can never all underflow. A query row's |x|^2 is constant
    over its group, so it cancels and is not computed. The scale enters the
    exponent as -log(s), so the map costs one exp per feature.

    One checked node in place of the two feature maps, the attention
    quotient and the four reshapes around them. The features are built
    feature-major: one (2, R, C) buffer holds the queries' and the keys'
    features in columns that run over (sample, head, row), C = B*H*N, so
    the projection is one product with omega^T, and every reduction and the
    one exp run C-long inner loops. The finiteness check reads the (2, C)
    column maxima and |k|^2, not the features: from them it forms each
    column's lowest exponent in the steps of the primitive chain (a key's
    exponent less |k|^2, then less its shift), so it raises wherever one of
    those steps would overflow; every exponent lies between that one and
    0, and exp maps that range into [0, 1]. The per-(sample, head) products
    read (B, H, R, N) views of the buffer; the quotient is checked.

    The VJP runs in the forward's order and recomputes its middle product,
    the (B, H, N, N) weights W or the (B, H, R, J) summary S. With adj =
    [g / den | g_den] and G the feature adjoints, summary first forms
    g_S = phi_Q adj, G_Q = S adj^T, G_K = g_S [V | 1]^T and g_V = phi_K^T
    g_S[:, :d_h]; weights first forms g_W = adj [V | 1]^T, G_Q = phi_K
    g_W^T, G_K = phi_Q g_W and g_V = W^T adj[:, :d_h], the same adjoints
    re-associated. Both write G_Q and G_K into one (2, R, C) buffer and
    multiply it by the features. A shift's derivative moves its group's
    sum to the group's first largest feature; but a shift scales its group
    by one factor, which cancels in every quotient whose denominator is not
    floored, so that sum is roundoff except in a group that holds a floored
    row, and only such groups are searched and moved. The keys' column
    sums are taken next; then the adjoints of the two halves' exponents,
    +x omega and -x omega, are subtracted in place in the buffer, so no
    (2, R/2, C) temporary is made, and one product with omega forms both
    inputs' adjoints, to which the keys' add -2 k times their column sums.
    It runs no transcendental; the node keeps the features, k, [V | 1], the
    quotient and the floored denominators, as the replaced nodes did, in
    either order. Its VJP never writes into the adjoint it receives. The
    projection, the products and every adjoint sum their terms in another
    order than the primitive chain (``oracles.chain_linear_attention``), and
    the two orders in another order than each other, so they differ from
    the chain in the last bits.

    With ``capture``, one dict of the forward's (B, N, H, .) stacks (views)
    is appended: ``phi_q``, ``phi_k``, ``values`` and the pre-merge
    ``linear_out``, the node's own output; entry [b, :, h] is sample b,
    head h.
    """
    total, d = q.data.shape
    d_head, half = omega.shape
    heads, rows = d // d_head, total // samples
    lead = (samples, heads, rows)                                # (B, H, N)
    cols, rank = total * heads, 2 * half

    def stack(x):
        """(B*N, d) rows as the (B, N, H, d_h) stack of their heads."""
        return x.reshape(samples, rows, heads, d_head)

    def groups(a):
        """A (R, C) block of the buffer as its (B, H, R, N) view."""
        return a.reshape((rank,) + lead).transpose(1, 2, 0, 3)

    kd = k.data
    x_t = np.empty((2, d_head, cols))                            # q^T and k^T, columns (b, h, n)
    x_t[0].reshape((d_head,) + lead)[...] = stack(q.data).transpose(3, 0, 2, 1)
    x_t[1].reshape((d_head,) + lead)[...] = stack(kd).transpose(3, 0, 2, 1)
    feats = np.empty((2, rank, cols))
    shift = np.empty((2, cols))
    with np.errstate(over="ignore", invalid="ignore"):           # raises below instead
        np.matmul(omega.swapaxes(-1, -2), x_t, out=feats[:, :half])
        np.negative(feats[:, :half], out=feats[:, half:])
        sq = np.einsum("ic,ic->c", x_t[1], x_t[1])               # |k|^2 per column
        top = feats.max(axis=1)                                  # before |k|^2 leaves the keys
        shift[0] = top[0]
        np.subtract(top[1], sq, out=shift[1])
        shift[1].reshape(-1, rows)[...] = shift[1].reshape(-1, rows).max(axis=1, keepdims=True)
        shift += 0.5 * math.log(4 * half)
        lowest = np.negative(top)
        lowest[1] -= sq
        lowest -= shift
    if not np.isfinite(lowest).all():
        raise NonFiniteError("linear_attention: produced non-finite values")
    shift[1] += sq                                               # the keys' whole offset
    feats -= shift[:, None, :]
    np.exp(feats, out=feats)

    phi_q, phi_k = groups(feats[0]), groups(feats[1])
    values = np.empty(lead + (d_head + 1,))                      # [V | 1]
    values[..., :d_head] = stack(v.data).transpose(0, 2, 1, 3)
    values[..., d_head] = 1.0
    first = _weights_first(rows, rank, d_head)

    def middle():
        """The product the VJP recomputes: the (B, H, N, N) weights
        phi_Q^T phi_K, or the (B, H, R, d_h+1) summary phi_K [V | 1]."""
        return np.matmul(phi_q.swapaxes(-1, -2), phi_k) if first else np.matmul(phi_k, values)

    both = (np.matmul(middle(), values) if first                  # (B, H, N, d_h+1)
            else np.matmul(phi_q.swapaxes(-1, -2), middle()))
    guarded = np.maximum(both[..., d_head:], ATTENTION_EPS)
    out = np.empty((samples, rows, heads, d_head))
    with np.errstate(over="ignore", invalid="ignore"):           # record() raises instead
        np.divide(both[..., :d_head].swapaxes(1, 2), guarded.swapaxes(1, 2), out=out)
    if stats is not None:
        stats["degenerate_rows"] = stats.get("degenerate_rows", 0) + int(
            (both[..., d_head] <= ATTENTION_EPS).sum())
    if capture is not None:
        capture.append({"phi_q": phi_q.transpose(0, 3, 1, 2), "phi_k": phi_k.transpose(0, 3, 1, 2),
                        "values": stack(v.data), "linear_out": out})

    def vjp(g):
        floored = guarded[..., 0] <= ATTENTION_EPS               # (B, H, N)
        adj = np.empty(lead + (d_head + 1,))                     # [g / den | g_den]
        g_num = adj[..., :d_head]
        np.divide(stack(g).transpose(0, 2, 1, 3), guarded, out=g_num)
        np.negative(np.einsum("bhnj,bnhj->bhn", g_num, out), out=adj[..., d_head])
        adj[..., d_head][floored] = 0.0
        g_feats = np.empty((2, rank, cols))
        g_phi_q, g_phi_k = groups(g_feats[0]), groups(g_feats[1])
        # Right operands as contiguous copies: stacked products on a small
        # transposed view ran ~2.5x slower.
        if first:
            weights = middle()
            g_weights = np.matmul(adj, values.swapaxes(-1, -2).copy())     # (B, H, N, N)
            np.matmul(phi_k, g_weights.swapaxes(-1, -2).copy(), out=g_phi_q)
            np.matmul(phi_q, g_weights, out=g_phi_k)
            g_v = np.matmul(weights.swapaxes(-1, -2), adj[..., :d_head])   # (B, H, N, d_h)
        else:
            g_summary = np.matmul(phi_q, adj)                    # (B, H, R, d_h+1)
            np.matmul(middle(), adj.swapaxes(-1, -2).copy(), out=g_phi_q)
            np.matmul(g_summary, values.swapaxes(-1, -2).copy(), out=g_phi_k)
            g_v = np.matmul(phi_k.swapaxes(-1, -2), g_summary[..., :d_head])
        g_feats *= feats
        if floored.any():                                        # see the docstring
            _shift_adjoint(g_feats[0], feats[0], 1, np.flatnonzero(floored))
            _shift_adjoint(g_feats[1], feats[1], rows, np.flatnonzero(floored.any(axis=2)))
        k_sums = g_feats[1].sum(axis=0).reshape(lead).transpose(0, 2, 1)  # (B, N, H)
        diff = np.subtract(g_feats[:, :half], g_feats[:, half:], out=g_feats[:, :half])
        g_x = np.matmul(omega, diff)                                     # (2, d_h, C)
        g_x = g_x.reshape((2, d_head) + lead).transpose(0, 2, 4, 3, 1)   # (2, B, N, H, d_h)
        g_k = stack(kd) * (-2.0 * k_sums[..., None])
        g_k += g_x[1]
        return (g_x[0].reshape(total, d), g_k.reshape(total, d),
                g_v.swapaxes(1, 2).reshape(total, d))

    return q.tape.record("linear_attention", out.reshape(total, d), (q, k, v), vjp)


def _weights_first(rows: int, rank: int, d_head: int) -> bool:
    """Whether ``linear_attention`` takes the weights-first order for N =
    ``rows``, R = ``rank`` and d_h = ``d_head`` (the rule in its docstring)."""
    j = d_head + 1
    return rows * (4 * rank + 2 * j + d_head) < rank * (6 * j + d_head)


def _shift_adjoint(terms: np.ndarray, feats: np.ndarray, width: int,
                   groups: np.ndarray) -> None:
    """Subtract from the (R, C) exponent adjoint ``terms``, in place, each
    listed group's sum at the group's first largest feature: the derivative
    of a shift by the group's largest exponent. Group j is the ``width``
    columns from j * width of the features ``feats``; its first largest
    feature is the first column's, then the first row's, that holds it."""
    rank = feats.shape[0]
    cols = (groups[:, None] * width + np.arange(width)).reshape(-1)
    peaks = groups * width + feats[:, cols].reshape(rank, -1, width).max(axis=0).argmax(axis=1)
    terms[feats[:, peaks].argmax(axis=0), peaks] -= (
        terms[:, cols].reshape(rank, -1, width).sum(axis=(0, 2)))


def attention_block(z: Tensor, block: int, p: dict[str, Tensor | np.ndarray],
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
    mixed_in = linear_attention(q_all, k_all, v_all, p[pre + "omega"], stats=stats,
                                samples=samples, capture=capture)
    if capture is not None:
        capture[-1]["block"] = block
    mixed = z + irfft_rows(mixed_in)
    normed2 = T.layernorm(mixed) * p[pre + "ln2_g"] + p[pre + "ln2_b"]
    inner = T.relu(normed2 @ p[pre + "mlp_w1"] + p[pre + "mlp_b1"])
    return mixed + inner @ p[pre + "mlp_w2"] + p[pre + "mlp_b2"]


def query_features(z: Tensor, rows: np.ndarray, times: np.ndarray,
                   p: dict[str, Tensor]) -> Tensor:
    """What the head reads for each query: row ``rows[q]`` of the (R, d)
    ``z`` beside the time encoding of ``times[q]``, (Q,) -> (Q, d + d_te).

    One checked node in place of the times as a constant, a gather of z's
    rows, the times' encoding and a concat (``oracles.chain_query_features``).
    The times are data, read as a plain array, so a non-finite time
    raises here, at the encoding's check. Its VJP scatter-adds the first d
    columns of the adjoint into z's rows and reads each sin/cos pair's
    derivative off the node's own output, g_theta = g_sin cos(theta) -
    g_cos sin(theta) (``_encoding_vjp``), so backward runs no
    transcendental. It keeps the output, which the head's first matmul
    keeps too, the row indices and the times. The rows of z, the linear
    columns and the adjoints of z, w_s and b_s are bitwise the chain's;
    each sin and cos entry lies within ``ENCODING_ATOL`` of the chain's
    (``_encoding``), and w_f's and b_f's adjoints, which read them, move
    in their last bits with them.
    """
    t = times.reshape(-1, 1)
    idx = np.asarray(rows, dtype=np.intp)
    shape, d = z.data.shape, z.data.shape[1]
    te = tuple(p[name] for name in TE_NAMES)
    enc = _encoding(t, *(q.data for q in te))                    # (d_te, Q)
    out = np.concatenate([z.data[idx], enc.swapaxes(-1, -2)], axis=1)
    n_lin = p["te.w_s"].data.shape[1]

    def vjp(g):
        g_z = np.zeros(shape)
        np.add.at(g_z, idx, g[:, :d])
        return (g_z, *_encoding_vjp(t, out[:, d:], n_lin, g[:, d:]))

    return z.tape.record("query_features", out, (z, *te), vjp)


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
        """One array per (sample, variate); for a chunk of one, per variate.

        The arrays are slices of one copy of the predictions: they share that
        buffer with each other, and the tape does not hold it."""
        # A plain loop: np.split costs ~3x more for the many short parts of
        # a wide sample, and this runs on every predict request.
        flat = self.predictions.data.ravel().copy()
        out, start = [], 0
        for size in self.counts:
            out.append(flat[start : start + size])
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
    samples = block.samples
    queries = [np.asarray(q, dtype=np.float64) for q in queries]
    rows = samples * block.n_variates
    if len(queries) != rows:
        raise DataError(f"forward: expected {rows} query arrays, one per row, got {len(queries)}")
    p = model.bind(tp)
    stats: dict = {"degenerate_rows": 0}

    xhat = encode_series(block, tp, p, use_conv=cfg.use_preconv)
    z = pool_all(xhat, block.mask, normalize_times(block.times), p,
                 use_gate=cfg.use_pool_gate)

    for b in range(cfg.blocks):
        z = attention_block(z, b, p, stats=stats, capture=capture, samples=samples)

    counts = [q.size for q in queries]
    times = np.concatenate(queries) if sum(counts) else np.empty(0)
    # The head's first layer reads the last block's output directly: a
    # separate linear projection before it would add no expressivity.
    feats = query_features(z, np.repeat(np.arange(len(counts)), counts), times, p)
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
    linear_out: np.ndarray     # (N, d_h) the node's own output, in the order it chose
    degenerate_rows: int


def attention_maps(model: ModelParams, block: AlignedTriplet, queries=None) -> list[AttentionMap]:
    """Materialize per-block/head variate-attention maps for inspection.

    Uses the quadratic-order evaluation (phi(Q) phi(K)^T, explicitly
    normalized) purely for visualization; the model's own forward forms
    (N, N) weights only as a temporary, for few rows (see
    ``linear_attention``), and never normalizes them. The positive features
    make every weight non-negative, so a row is a convex combination of the
    values unless its sum is at or below the ATTENTION_EPS floor (a
    degenerate row, left unnormalized). The feature shifts cancel in the
    normalized weights. The quadratic output must agree with the node's own
    output, in the order the node chose, up to association-order roundoff.
    The features, values and that output are the (B, N, H, .) stacks the
    forward pass already holds (see ``linear_attention``); ``block`` holds
    one sample, so head h is ``[0, :, h]``.
    """
    if queries is None:
        queries = [np.empty(0) for _ in range(block.n_variates)]
    capture: list = []
    forward(Tape(grad=False), model, block, queries, capture=capture)
    maps = []
    for entry in capture:
        for head in range(entry["phi_q"].shape[2]):
            phi_q = entry["phi_q"][0, :, head]
            raw = phi_q @ entry["phi_k"][0, :, head].T         # (N, N)
            rowsum = raw.sum(axis=1, keepdims=True)
            degenerate = rowsum <= ATTENTION_EPS
            safe = np.where(degenerate, 1.0, rowsum)
            quad_out = (raw @ entry["values"][0, :, head]) / np.maximum(rowsum, ATTENTION_EPS)
            maps.append(
                AttentionMap(
                    block=entry["block"],
                    head=head,
                    weights=raw / safe,
                    quadratic_out=quad_out,
                    linear_out=entry["linear_out"][0, :, head],
                    degenerate_rows=int(degenerate.sum()),
                )
            )
    return maps
