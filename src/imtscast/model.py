"""Model layers and the end-to-end forward pass.

Pipeline per sample: convolutional smoothing of the zero-filled series,
continuous time encoding fused in, Gaussian-kernel pooling of each variate
down to a fixed-width vector, stacked spectral linear-attention blocks that
mix variates, and a query-conditioned MLP head.

All layers run on the differentiation tape; parameters live in a flat
name -> array dict so the optimizer, serialization and gradient checks can
treat them uniformly.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .config import TrainConfig, validate
from .data import AlignedTriplet, DataError, normalize_times
from .fourier import irfft_rows, rfft_rows
from .tape import Tape, Tensor

ATTENTION_EPS = 1e-6          # guard for sign-indefinite random-feature denominators
DEGENERATE_DENOM = 1e-12      # below this (pre-guard) a row counts as collapsed
POOL_DENOM_GUARD = 1e-300     # rescues all-zero kernel columns; a bitwise no-op
                              # for any column with an observed point


@dataclass
class ModelParams:
    """Flat registry of every learnable array plus the frozen feature draws."""

    cfg: TrainConfig
    arrays: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    rff_seed: int

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
        rff_seed = int(seed)
        rff_rng = np.random.default_rng([rff_seed, 0xF0F0])
        d_head = d // cfg.heads
        buffers: dict[str, np.ndarray] = {
            "pool.centers": np.linspace(0.0, 1.0, k)[None, :],
        }
        for b in range(cfg.blocks):
            buffers[f"blocks.{b}.omega"] = rff_rng.standard_normal((d_head, cfg.rff_dim // 2))
            buffers[f"blocks.{b}.phase"] = rff_rng.uniform(0.0, 2.0 * np.pi, (1, cfg.rff_dim // 2))
        return cls(cfg=cfg, arrays=arrays, buffers=buffers, rff_seed=rff_seed)

    def bind(self, tp: Tape) -> dict[str, Tensor]:
        """Register all learnables on a tape; buffers come along as constants."""
        bound = {name: tp.param(name, arr) for name, arr in self.arrays.items()}
        for name, arr in self.buffers.items():
            bound[name] = tp.const(arr)
        return bound

    def param_count(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))

    def copy(self) -> "ModelParams":
        return ModelParams(
            cfg=self.cfg,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            buffers={k: v.copy() for k, v in self.buffers.items()},
            rff_seed=self.rff_seed,
        )

    def save(self, path) -> None:
        doc = {
            "format": "imtscast-checkpoint-1",
            "config": self.cfg.to_dict(),
            "rff_seed": self.rff_seed,
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != "imtscast-checkpoint-1":
            raise DataError(f"{path}: not a checkpoint file")
        cfg = TrainConfig.from_dict(doc["config"])

        def restore(section):
            return {
                n: np.asarray(e["data"], dtype=np.float64).reshape(e["shape"])
                for n, e in section.items()
            }

        return cls(
            cfg=cfg,
            arrays=restore(doc["params"]),
            buffers=restore(doc["buffers"]),
            rff_seed=int(doc["rff_seed"]),
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


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def time_encode(tcol: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Continuous time encoding of a (M, 1) column of raw times -> (M, d_te).

    Concatenation order: [linear term, sin branch, cos branch].
    """
    lin = tcol @ p["te.w_s"] + p["te.b_s"]
    s = T.sin(tcol @ p["te.w_p"] + p["te.b_p"])
    c = T.cos(tcol @ p["te.w_c"] + p["te.b_c"])
    return T.concat([lin, s, c], axis=1)


def conv_smooth(rows: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Width-3 then 1x1 convolution along time with zero same-padding.

    ``rows`` is (N, L), one variate per row; the same filter bank applies to
    every variate, so all rows go through one matmul.
    """
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


def encode_series(rows: Tensor, tcol: Tensor, p: dict[str, Tensor],
                  use_conv: bool = True) -> Tensor:
    """Smoothing convolution plus the projected time encoding, per Eq. of the
    fused representation: all variates share both the filters and the grid."""
    base = conv_smooth(rows, p) if use_conv else rows
    tproj = time_encode(tcol, p) @ p["te.w_t"]                 # (L, 1)
    return base + tproj.T                                      # (N, L) + (1, L)


def pool_coefficients(t_norm: Tensor, mask_col: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-variate kernel coefficients.

    ``t_norm`` and ``mask_col`` are (L, 1); the result (L, K) holds the mask-
    gated Gaussian affinity of each grid point to each kernel, normalized so
    every column with at least one observation sums to exactly one. Columns
    with no observed support are all zeros.
    """
    weights = _kernel_weights(t_norm, p) * mask_col            # (L, K)
    colsum = weights.sum(axis=0, keepdims=True)
    return weights / (colsum + POOL_DENOM_GUARD)


def _kernel_weights(t_norm: Tensor, p: dict[str, Tensor]) -> Tensor:
    diff = t_norm - p["pool.centers"]                          # (L, K)
    sig2 = T.exp(p["pool.log_alpha"] * 2.0)                    # (1, K)
    return T.exp(diff * diff * (-0.5) / sig2)


def pool_summary(x_col: Tensor, coeffs: Tensor, mask_col: Tensor,
                 p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool one variate (L, 1) into a (1, d) vector via its coefficients."""
    pooled = (coeffs.T @ x_col).T                              # (1, K)
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    flag = 1.0 if float(mask_col.data.sum()) > 0 else 0.0
    withflag = T.concat([pooled, x_col.tape.const([[flag]])], axis=1)
    return withflag @ p["pool.w_proj"]                         # (1, d)


def pool_all(xhat: Tensor, mask_rows: np.ndarray, t_norm_cols: np.ndarray,
             shared_norm: bool, p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool every variate at once: (N, L) -> (N, d).

    Equivalent to pool_coefficients + pool_summary per variate, but the
    normalization is folded into one division, so no (L, K) matrix per
    variate is materialized.
    """
    tp = xhat.tape
    n = xhat.data.shape[0]
    mask = tp.const(mask_rows)                                 # (N, L)
    masked_x = xhat * mask
    if shared_norm:
        weights = _kernel_weights(tp.const(t_norm_cols[:, :1]), p)   # (L, K)
        num = masked_x @ weights                               # (N, K)
        den = mask @ weights                                   # (N, K)
    else:
        num_rows, den_rows = [], []
        for col in range(n):
            w_n = _kernel_weights(tp.const(t_norm_cols[:, col : col + 1]), p)
            num_rows.append(masked_x[col : col + 1, :] @ w_n)
            den_rows.append(mask[col : col + 1, :] @ w_n)
        num = T.concat(num_rows, axis=0)
        den = T.concat(den_rows, axis=0)
    pooled = num / (den + POOL_DENOM_GUARD)                    # (N, K)
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    flags = tp.const((mask_rows.sum(axis=1, keepdims=True) > 0).astype(np.float64))
    return T.concat([pooled, flags], axis=1) @ p["pool.w_proj"]


def rff_features(x: Tensor, omega: Tensor, phase: Tensor) -> Tensor:
    """Random Fourier feature map (rows, d_h) -> (rows, R).

    Layout is the cos block then the sin block, scaled by 1/sqrt(R); inner
    products of two feature rows then estimate exp(-|x-y|^2/2)/2 for
    standard-normal frequency draws. The map is one tape node whose VJP
    reuses the forward's cos and sin, so each trig value is computed once.
    """
    proj = x @ omega + phase                                   # (rows, R/2)
    half = proj.data.shape[1]
    scale = 1.0 / np.sqrt(2 * half)
    c, s = np.cos(proj.data), np.sin(proj.data)

    def vjp(g):
        return ((g[:, half:] * c - g[:, :half] * s) * scale,)

    return x.tape.record("rff_features", np.concatenate([c, s], axis=1) * scale,
                         (proj,), vjp)


@functools.cache
def _head_mask(heads: int, r: int, width: int) -> np.ndarray:
    """Read-only block-diagonal (heads*r, heads*width) 0/1 mask."""
    mask = np.kron(np.eye(heads), np.ones((r, width)))
    mask.setflags(write=False)
    return mask


def linear_attention(q: Tensor, k: Tensor, v: Tensor, omega: Tensor, phase: Tensor,
                     stats: dict | None = None) -> Tensor:
    """Kernelized attention of every head at once, in linear-cost order.

    ``q``, ``k`` and ``v`` are (N, d) with head h in columns
    [h*d_h, (h+1)*d_h); d_h is the row count of ``omega``. Per head, the numerator phi(Q) (phi(K)^T V) and the
    denominator phi(Q) (phi(K)^T 1) never materialize the (N, N) weight
    matrix. All heads share one feature map over the (N*H, d_h) rows; one
    matmul forms phi(K)^T [V | 1] for every pair of heads, and a constant
    block-diagonal mask keeps only the pairs of a head with itself, so one
    more matmul yields every numerator and denominator. Random features are
    sign-indefinite, so the denominator is guarded by a small epsilon; each
    (row, head) whose pre-guard magnitude falls below DEGENERATE_DENOM is
    counted as collapsed in ``stats``.
    """
    n, d = q.data.shape
    d_head = omega.data.shape[0]
    heads = d // d_head
    fq = rff_features(q.reshape((n * heads, d_head)), omega, phase)
    fk = rff_features(k.reshape((n * heads, d_head)), omega, phase)
    r = fq.data.shape[1]
    ones = q.tape.const(np.ones((n * heads, 1)))
    v_one = T.concat([v.reshape((n * heads, d_head)), ones], axis=1)
    kv = fk.reshape((n, heads * r)).T @ v_one.reshape((n, heads * (d_head + 1)))
    kv = kv * _head_mask(heads, r, d_head + 1)                 # (H*R, H*(d_h+1))
    both = (fq.reshape((n, heads * r)) @ kv).reshape((n * heads, d_head + 1))
    num, den = both[:, :d_head], both[:, d_head:]
    if stats is not None:
        stats["degenerate_rows"] = stats.get("degenerate_rows", 0) + int(
            (np.abs(den.data) < DEGENERATE_DENOM).sum()
        )
    return (num / (den + ATTENTION_EPS)).reshape((n, d))


def softmax_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Exact softmax attention; ablation-only quadratic path."""
    d_head = q.data.shape[1]
    scores = (q @ k.T) * (1.0 / np.sqrt(d_head))
    shift = q.tape.const(scores.data.max(axis=1, keepdims=True))  # detached, safe shift
    expd = T.exp(scores - shift)
    return (expd / expd.sum(axis=1, keepdims=True)) @ v


def attention_block(z: Tensor, block: int, p: dict[str, Tensor], cfg: TrainConfig,
                    stats: dict | None = None, capture: list | None = None) -> Tensor:
    """One pre-norm block: spectral mixing across variates, then an MLP."""
    pre = f"blocks.{block}."
    omega, phase = p[pre + "omega"], p[pre + "phase"]
    heads, d = cfg.heads, cfg.hidden
    d_head = d // heads

    normed = T.layernorm(z) * p[pre + "ln1_g"] + p[pre + "ln1_b"]
    # Forward-normalized spectral pair (1/d here, d before the inverse): the
    # packed transform itself is unnormalized, which would hand the
    # projections a ~sqrt(d) coefficient scale; in training that drifts the
    # random-feature kernel into saturation, where attention denominators
    # collapse to roundoff and the loss spikes.
    coeffs = rfft_rows(normed) * (1.0 / d)                     # (N, d)
    q_all = coeffs @ p[pre + "wq"]
    k_all = coeffs @ p[pre + "wk"]
    v_all = coeffs @ p[pre + "wv"]
    head_cols = [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]
    if cfg.softmax_attention:
        mixed_in = T.concat(
            [softmax_attention(q_all[:, c], k_all[:, c], v_all[:, c]) for c in head_cols],
            axis=1,
        )
    else:
        mixed_in = linear_attention(q_all, k_all, v_all, omega, phase, stats=stats)
    if capture is not None:
        for h, cols in enumerate(head_cols):
            phi_q = phi_k = None
            if not cfg.softmax_attention:
                phi_q = rff_features(q_all[:, cols], omega, phase).data
                phi_k = rff_features(k_all[:, cols], omega, phase).data
            capture.append(
                {
                    "block": block,
                    "head": h,
                    "phi_q": phi_q,
                    "phi_k": phi_k,
                    "values": v_all.data[:, cols],
                    "linear_out": mixed_in.data[:, cols],
                }
            )
    mixed = z + irfft_rows(mixed_in * float(d))
    normed2 = T.layernorm(mixed) * p[pre + "ln2_g"] + p[pre + "ln2_b"]
    inner = T.relu(normed2 @ p[pre + "mlp_w1"] + p[pre + "mlp_b1"])
    return mixed + inner @ p[pre + "mlp_w2"] + p[pre + "mlp_b2"]


@dataclass
class ForwardResult:
    """Flat per-query predictions plus the bookkeeping to regroup them."""

    predictions: Tensor          # (total_queries, 1)
    variate_index: np.ndarray    # (total_queries,) 0-based variate of each row
    query_times: np.ndarray      # (total_queries,)
    counts: list[int]            # queries per variate
    stats: dict = field(default_factory=dict)

    def per_variate(self) -> list[np.ndarray]:
        flat = self.predictions.data.ravel()
        out, start = [], 0
        for c in self.counts:
            out.append(flat[start : start + c].copy())
            start += c
        return out


def forward(tp: Tape, model: ModelParams, triplet: AlignedTriplet,
            queries, capture: list | None = None,
            bound: dict[str, Tensor] | None = None) -> ForwardResult:
    """Run the full pipeline for one sample on the given tape.

    ``queries`` is one array of future times per variate. Deterministic
    given parameters and inputs. Pass ``bound`` to reuse parameter tensors
    already registered on the tape (the gradient checker does this);
    otherwise the model binds itself.
    """
    cfg = model.cfg
    n = triplet.n_variates
    queries = [np.asarray(q, dtype=np.float64) for q in queries]
    if len(queries) != n:
        raise DataError(f"forward: expected {n} query lists, got {len(queries)}")
    if bound is None:
        p = model.bind(tp)
    else:
        p = dict(bound)
        for name, arr in model.buffers.items():
            p.setdefault(name, tp.const(arr))
    stats: dict = {"degenerate_rows": 0}

    rows = tp.const(triplet.values.T)                          # (N, L)
    mask_rows = triplet.mask.T
    tcol = tp.const(triplet.times[:, None])                    # (L, 1)

    xhat = encode_series(rows, tcol, p, use_conv=cfg.use_preconv)
    if cfg.normalize_time:
        norm = normalize_times(triplet, per_variate=cfg.per_variate_time_norm)
        t_cols, shared = norm.values, norm.shared
    else:
        t_cols, shared = np.tile(triplet.times[:, None], (1, n)), True
    z = pool_all(xhat, mask_rows, t_cols, shared, p, use_gate=cfg.use_pool_gate)

    for b in range(cfg.blocks):
        z = attention_block(z, b, p, cfg, stats=stats, capture=capture)
    summary = z @ p["out.w"]                                   # (N, d)

    counts = [q.size for q in queries]
    var_idx = np.repeat(np.arange(n), counts)
    flat_times = (
        np.concatenate([q for q in queries]) if sum(counts) else np.empty(0)
    )
    tq = tp.const(flat_times[:, None])
    feats = T.concat([T.take_rows(summary, var_idx), time_encode(tq, p)], axis=1)
    hidden = T.relu(feats @ p["head.w1"] + p["head.b1"])
    hidden = T.relu(hidden @ p["head.w2"] + p["head.b2"])
    preds = hidden @ p["head.w3"] + p["head.b3"]               # (Q, 1)
    return ForwardResult(
        predictions=preds,
        variate_index=var_idx,
        query_times=flat_times,
        counts=counts,
        stats=stats,
    )


@dataclass
class AttentionMap:
    block: int
    head: int
    weights: np.ndarray        # (N, N), rows normalized to sum to one
    quadratic_out: np.ndarray  # (N, d_h) via the materialized weight matrix
    linear_out: np.ndarray     # (N, d_h) from the model's linear-order path
    degenerate_rows: int


def attention_maps(model: ModelParams, triplet: AlignedTriplet, queries=None) -> list[AttentionMap]:
    """Materialize per-block/head variate-attention maps for inspection.

    Uses the quadratic-order evaluation (phi(Q) phi(K)^T, explicitly
    normalized) purely for visualization; the model's own forward never
    builds the (N, N) matrix. The quadratic output must agree with the
    linear-order output up to association-order roundoff.
    """
    if model.cfg.softmax_attention:
        raise DataError("attention_maps: model was trained with the softmax ablation")
    if queries is None:
        queries = [np.empty(0) for _ in range(triplet.n_variates)]
    capture: list = []
    forward(Tape(), model, triplet, queries, capture=capture)
    maps = []
    for entry in capture:
        raw = entry["phi_q"] @ entry["phi_k"].T                # (N, N)
        rowsum = raw.sum(axis=1, keepdims=True)
        degenerate = np.abs(rowsum) < DEGENERATE_DENOM
        safe = np.where(degenerate, 1.0, rowsum)
        quad_out = (raw @ entry["values"]) / (rowsum + ATTENTION_EPS)
        maps.append(
            AttentionMap(
                block=entry["block"],
                head=entry["head"],
                weights=raw / safe,
                quadratic_out=quad_out,
                linear_out=entry["linear_out"],
                degenerate_rows=int(degenerate.sum()),
            )
        )
    return maps
