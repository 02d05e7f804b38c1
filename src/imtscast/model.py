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

The forward pass runs a chunk of B samples that share the variate count N
(see ``data.pad_chunk``); one sample is a chunk of one. Every layer works
on (B*N, .) rows in sample-major order. Only pooling and attention need to
know where one sample ends: they take the sample count and reshape to
per-sample stacks for batched matmuls.

All layers run on the differentiation tape; parameters live in a flat
name -> array dict so the optimizer, serialization and gradient checks can
treat them uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .config import ConfigError, TrainConfig, validate
from .data import AlignedTriplet, DataError, normalize_times, pad_chunk, pad_columns
from .fourier import irfft_rows, rfft_rows
from .tape import Tape, Tensor

ATTENTION_EPS = 1e-6          # guard for sign-indefinite random-feature denominators
DEGENERATE_DENOM = 1e-12      # below this (pre-guard) a row counts as collapsed


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
        """Read a checkpoint written by ``save``.

        Raises DataError for invalid JSON, missing sections, or parameter and
        buffer names or shapes that differ from what ``init`` builds for the
        stored config.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as err:  # invalid JSON or text encoding
            raise DataError(f"{path}: not a valid checkpoint: {err}") from err
        if not isinstance(doc, dict) or doc.get("format") != "imtscast-checkpoint-1":
            raise DataError(f"{path}: not a checkpoint file")
        missing = [key for key in ("config", "rff_seed", "params", "buffers") if key not in doc]
        if missing:
            raise DataError(f"{path}: checkpoint has no {', '.join(missing)}")
        try:
            cfg = TrainConfig.from_dict(doc["config"])
            reference = cls.init(cfg)
            rff_seed = int(doc["rff_seed"])
        except (ConfigError, TypeError, ValueError) as err:
            raise DataError(f"{path}: bad checkpoint config: {err}") from err

        def restore(key, expected):
            section = doc[key]
            if not isinstance(section, dict) or set(section) != set(expected):
                raise DataError(f"{path}: {key} names differ from what the config builds")
            out = {}
            for name, entry in section.items():
                try:
                    arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
                except (KeyError, TypeError, ValueError) as err:
                    raise DataError(f"{path}: malformed {key} entry {name!r}: {err}") from err
                if arr.shape != expected[name].shape:
                    raise DataError(f"{path}: {key} {name!r} has shape {arr.shape}, "
                                    f"the config builds {expected[name].shape}")
                out[name] = arr
            return out

        return cls(
            cfg=cfg,
            arrays=restore("params", reference.arrays),
            buffers=restore("buffers", reference.buffers),
            rff_seed=rff_seed,
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
    taps = p["conv.w1"].tape.const(
        np.stack([padded[centre - 1], padded[centre], padded[centre + 1]]))   # (3, P)
    hidden = T.relu(p["conv.w1"] @ taps + p["conv.b1"])        # (C, P)
    out = p["conv.w2"] @ hidden + p["conv.b2"]                 # (1, P)
    return T.place(out, flat, (n, length))


def encode_series(rows: Tensor, tcol: Tensor, p: dict[str, Tensor],
                  use_conv: bool = True, mask: np.ndarray | None = None) -> Tensor:
    """Smoothing convolution plus the projected time encoding, per Eq. of the
    fused representation: all variates share both the filters and the grid.

    ``rows`` is (B*N, L), sample-major; ``tcol`` is the (B*L, 1) column of
    the B samples' grid times, one grid after another. ``mask`` marks the
    observed cells of ``rows`` (every cell when None); the convolution runs
    only there (see ``conv_smooth``). The projection is added to each
    sample's N rows by broadcasting, on the whole grid.
    """
    if use_conv:
        base = conv_smooth(rows.data, np.ones(rows.data.shape) if mask is None else mask, p)
    else:
        base = rows
    total, length = rows.data.shape
    samples = tcol.data.shape[0] // length
    tproj = (time_encode(tcol, p) @ p["te.w_t"]).reshape((samples, 1, length))
    fused = base.reshape((samples, total // samples, length)) + tproj   # (B, N, L)
    return fused.reshape((total, length))


def _nonzero(den: Tensor) -> Tensor:
    """``den`` with its exact zeros replaced by ones.

    A pooling denominator is exactly zero only where its numerator is too:
    a variate with no observation, or a kernel with no support at any
    observed point. Those entries then pool to 0 / 1 = 0 with finite
    gradients, where a tiny additive guard would give 0 / 0 in the
    division's gradient. Every other entry is left bitwise unchanged.
    """
    return den + den.tape.const((den.data == 0.0).astype(np.float64))


def _kernel_weights(t_norm: Tensor, p: dict[str, Tensor]) -> Tensor:
    diff = t_norm - p["pool.centers"]                          # (L, K)
    sig2 = T.exp(p["pool.log_alpha"] * 2.0)                    # (1, K)
    return T.exp(diff * diff * (-0.5) / sig2)


def pool_all(xhat: Tensor, mask_rows: np.ndarray, t_norm_cols: np.ndarray,
             shared_norm: bool, p: dict[str, Tensor], use_gate: bool = True,
             samples: int = 1) -> Tensor:
    """Pool every variate of every sample at once: (B*N, L) -> (B*N, d).

    ``mask_rows`` is (B*N, L) and ``t_norm_cols`` (L, B*N), one column of
    normalized grid times per row of ``xhat``. With ``shared_norm`` a
    sample's columns are identical, so G = 1 kernel-weight matrix serves
    the whole sample; otherwise G = N, one per variate. The (B*G, L, K)
    weights meet the masked rows in one batched matmul for the numerator
    and one for the denominator; the normalization is folded into one
    division, so no (L, K) coefficient matrix per variate is materialized.
    Masked and padded cells drop out of both sums, so ``xhat`` is read at
    observed cells only.
    """
    tp = xhat.tape
    total, length = xhat.data.shape
    groups = samples if shared_norm else total
    t_cols = t_norm_cols[:, :: total // samples] if shared_norm else t_norm_cols
    weights = _kernel_weights(tp.const(t_cols.T[:, :, None]), p)   # (B*G, L, K)
    stacked = (groups, total // groups, length)
    mask = tp.const(mask_rows.reshape(stacked))
    num = T.bmm(xhat.reshape(stacked) * mask, weights)        # (B*G, N/G, K)
    den = T.bmm(mask, weights)
    pooled = (num / _nonzero(den)).reshape((total, weights.data.shape[2]))
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


def _split_heads(x: Tensor, samples: int, n: int, heads: int,
                 axes=(0, 2, 1, 3)) -> Tensor:
    """Regroup rows laid out (sample, variate, head, w) in row-major order,
    such as (B*N, H*w) or (B*N*H, w), into (B*H, N, w): one stack entry per
    (sample, head). ``axes=(0, 2, 3, 1)`` gives (B*H, w, N) instead."""
    width = x.data.size // (samples * n * heads)
    split = T.permute(x.reshape((samples, n, heads, width)), axes)
    return split.reshape((samples * heads,) + split.data.shape[2:])


def _merge_heads(x: Tensor, samples: int) -> Tensor:
    """(B*H, N, w) -> (B*N, H*w), the inverse of ``_split_heads``."""
    stack, n, width = x.data.shape
    heads = stack // samples
    merged = T.permute(x.reshape((samples, heads, n, width)), (0, 2, 1, 3))
    return merged.reshape((samples * n, heads * width))


def linear_attention(q: Tensor, k: Tensor, v: Tensor, omega: Tensor, phase: Tensor,
                     stats: dict | None = None, samples: int = 1) -> Tensor:
    """Kernelized attention of every (sample, head) at once, in linear-cost order.

    ``q``, ``k`` and ``v`` are (B*N, d), sample-major, with head h in columns
    [h*d_h, (h+1)*d_h); d_h is the row count of ``omega``. Per sample and
    head, the numerator phi(Q) (phi(K)^T V) and the denominator
    phi(Q) (phi(K)^T 1) never materialize the (N, N) weight matrix. One
    feature map covers the (B*N*H, d_h) rows; the features and [V | 1] are
    regrouped into (B*H, N, .) stacks, one batched matmul forms every
    phi(K)^T [V | 1], and one more yields every numerator and denominator.
    Random features are sign-indefinite, so the denominator is guarded by a
    small epsilon; each (row, head) whose pre-guard magnitude falls below
    DEGENERATE_DENOM is counted as collapsed in ``stats``.
    """
    total, d = q.data.shape
    d_head = omega.data.shape[0]
    heads, n = d // d_head, total // samples
    fq = _split_heads(rff_features(q.reshape((total * heads, d_head)), omega, phase),
                      samples, n, heads)                       # (B*H, N, R)
    fk = _split_heads(rff_features(k.reshape((total * heads, d_head)), omega, phase),
                      samples, n, heads)
    ones = q.tape.const(np.ones((samples * heads, n, 1)))
    v_one = T.concat([_split_heads(v, samples, n, heads), ones], axis=2)   # (B*H, N, d_h+1)
    both = T.bmm(fq, T.bmm(fk, v_one, transpose_a=True))       # (B*H, N, d_h+1)
    num, den = both[:, :, :d_head], both[:, :, d_head:]
    if stats is not None:
        stats["degenerate_rows"] = stats.get("degenerate_rows", 0) + int(
            (np.abs(den.data) < DEGENERATE_DENOM).sum()
        )
    return _merge_heads(num / (den + ATTENTION_EPS), samples)


def softmax_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                      samples: int = 1) -> Tensor:
    """Exact softmax attention per (sample, head); ablation-only quadratic path.

    Same (B*N, d) layout as ``linear_attention``.
    """
    total, d = q.data.shape
    d_head, n = d // heads, total // samples
    k_t = _split_heads(k, samples, n, heads, axes=(0, 2, 3, 1))   # (B*H, d_h, N)
    scores = T.bmm(_split_heads(q, samples, n, heads), k_t) * (1.0 / np.sqrt(d_head))
    shift = q.tape.const(scores.data.max(axis=2, keepdims=True))  # detached, safe shift
    expd = T.exp(scores - shift)
    weights = expd / expd.sum(axis=2, keepdims=True)
    return _merge_heads(T.bmm(weights, _split_heads(v, samples, n, heads)), samples)


def attention_block(z: Tensor, block: int, p: dict[str, Tensor], cfg: TrainConfig,
                    stats: dict | None = None, capture: list | None = None,
                    samples: int = 1) -> Tensor:
    """One pre-norm block: spectral mixing across each sample's variates, then
    an MLP. ``z`` is (B*N, d), sample-major."""
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
    coeffs = rfft_rows(normed) * (1.0 / d)                     # (B*N, d)
    q_all = coeffs @ p[pre + "wq"]
    k_all = coeffs @ p[pre + "wk"]
    v_all = coeffs @ p[pre + "wv"]
    if cfg.softmax_attention:
        mixed_in = softmax_attention(q_all, k_all, v_all, heads, samples=samples)
    else:
        mixed_in = linear_attention(q_all, k_all, v_all, omega, phase, stats=stats,
                                    samples=samples)
    if capture is not None:
        n = z.data.shape[0] // samples
        for sample in range(samples):
            rows = slice(sample * n, (sample + 1) * n)
            for h in range(heads):
                cols = slice(h * d_head, (h + 1) * d_head)
                phi_q = phi_k = None
                if not cfg.softmax_attention:
                    phi_q = rff_features(q_all[rows, cols], omega, phase).data
                    phi_k = rff_features(k_all[rows, cols], omega, phase).data
                capture.append(
                    {
                        "block": block,
                        "head": h,
                        "phi_q": phi_q,
                        "phi_k": phi_k,
                        "values": v_all.data[rows, cols],
                        "linear_out": mixed_in.data[rows, cols],
                    }
                )
    mixed = z + irfft_rows(mixed_in * float(d))
    normed2 = T.layernorm(mixed) * p[pre + "ln2_g"] + p[pre + "ln2_b"]
    inner = T.relu(normed2 @ p[pre + "mlp_w1"] + p[pre + "mlp_b1"])
    return mixed + inner @ p[pre + "mlp_w2"] + p[pre + "mlp_b2"]


@dataclass
class ForwardResult:
    """Flat per-query predictions of a chunk plus the bookkeeping to regroup them.

    Rows run sample after sample, and within a sample variate after variate.
    """

    predictions: Tensor          # (total_queries, 1)
    variate_index: np.ndarray    # (total_queries,) 0-based variate of each row in its sample
    query_times: np.ndarray      # (total_queries,)
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


def forward(tp: Tape, model: ModelParams, chunk, queries, capture: list | None = None,
            bound: dict[str, Tensor] | None = None) -> ForwardResult:
    """Run the full pipeline for a chunk of samples on the given tape.

    ``chunk`` is one AlignedTriplet with ``queries`` one array of future
    times per variate (a chunk of one), or a sequence of triplets that share
    the variate count with ``queries`` one such list per triplet.
    Deterministic given parameters and inputs. Pass ``bound`` to reuse
    parameter tensors already registered on the tape (the gradient checker
    does this); otherwise the model binds itself.
    """
    cfg = model.cfg
    if isinstance(chunk, AlignedTriplet):
        chunk, queries = [chunk], [queries]
    triplets = list(chunk)
    padded = pad_chunk(triplets)
    samples, n, length = padded.samples, padded.n_variates, padded.grid_length
    if len(queries) != samples:
        raise DataError(f"forward: expected {samples} query sets, got {len(queries)}")
    queries = [[np.asarray(q, dtype=np.float64) for q in qs] for qs in queries]
    for qs in queries:
        if len(qs) != n:
            raise DataError(f"forward: expected {n} query lists, got {len(qs)}")
    if bound is None:
        p = model.bind(tp)
    else:
        p = dict(bound)
        for name, arr in model.buffers.items():
            p.setdefault(name, tp.const(arr))
    stats: dict = {"degenerate_rows": 0}

    rows = tp.const(padded.values)                             # (B*N, L)
    tcol = tp.const(padded.times.reshape((samples * length, 1)))   # (B*L, 1)

    xhat = encode_series(rows, tcol, p, use_conv=cfg.use_preconv, mask=padded.mask)
    if cfg.normalize_time:
        norms = [normalize_times(t, per_variate=cfg.per_variate_time_norm) for t in triplets]
        t_cols = pad_columns([norm.values for norm in norms], length)   # (L, B*N)
        shared = norms[0].shared
    else:
        t_cols, shared = np.repeat(padded.times.T, n, axis=1), True
    z = pool_all(xhat, padded.mask, t_cols, shared, p, use_gate=cfg.use_pool_gate,
                 samples=samples)

    for b in range(cfg.blocks):
        z = attention_block(z, b, p, cfg, stats=stats, capture=capture, samples=samples)
    summary = z @ p["out.w"]                                   # (B*N, d)

    counts = [q.size for qs in queries for q in qs]
    row_idx = np.repeat(np.arange(samples * n), counts)
    flat_times = (
        np.concatenate([q for qs in queries for q in qs]) if sum(counts) else np.empty(0)
    )
    tq = tp.const(flat_times[:, None])
    feats = T.concat([T.take_rows(summary, row_idx), time_encode(tq, p)], axis=1)
    hidden = T.relu(feats @ p["head.w1"] + p["head.b1"])
    hidden = T.relu(hidden @ p["head.w2"] + p["head.b2"])
    preds = hidden @ p["head.w3"] + p["head.b3"]               # (Q, 1)
    return ForwardResult(
        predictions=preds,
        variate_index=row_idx % n,
        query_times=flat_times,
        counts=counts,
        samples=samples,
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
