"""Straightforward reference implementations, used only by tests.

The model smooths observed cells only, pools every variate in one batched
pass and transforms rows with cached DFT matrices. These are the
straightforward forms they replace: the convolution over every grid cell,
per-variate pooling coefficients followed by a per-variate summary, and
the packed transform by per-bin direct summation.

``data.align`` builds each sample's observed-cell layout from the rows and
columns of its observations, and ``data.pad_chunk`` re-bases it for a
chunk. ``dense_layout`` derives the same layout from a dense zero-filled
grid and its mask, by scanning and padding the grid; ``grid_triplet``
builds a block from such a grid with it.

The queries' features, the kernel weights, the fused series at the
observed cells, pooling's quotient and linear attention are one tape node
each in the model. ``chain_query_features``, ``chain_kernel_weights``,
``chain_fuse_at_cells``, ``chain_pool_quotient`` and
``chain_linear_attention`` are the primitive chains those nodes replace,
built from the tape's primitives and the ``sin``, ``cos``, ``exp``, ``div``,
``place``, ``reshape``, ``transpose``, ``permute``, ``narrow`` and
``take_rows`` nodes below, which the tape no longer has. The time
encoding is no node of its own: ``chain_time_encode``, its seven-node
chain, is the encoding inside the queries' features and, projected, the
grid's time projection (``model.time_projection``). Linear attention's
chain is the two feature maps (``chain_positive_features``) and the
quotient (``chain_attend``, which forms phi(K)^T and [V | 1], reads its
(B, N, H, .) inputs as per-(sample, head) stacks and divides the
numerators by their floored denominators), between reshapes.

``sigmoid`` left the tape with the pooling gate, its one caller in the
model; the tape's tests still use it as a bounded, unchecked primitive.

``model.layout`` is the one table of the model's array shapes;
``param_count_closed_form`` counts its learnables per stage instead.

The dataset code draws Poisson gaps in one call, writes a sample's rows
with one call and parses CSV blocks with numpy. The references here draw
one gap at a time, write each row with ``csv.writer`` and parse each row
with ``csv.reader`` and ``float``.
"""

import csv
import math

import numpy as np

import imtscast.tape as T
from imtscast.data import AlignedTriplet, DataError
from imtscast.datasets import OBS_HEADER, QUERY_HEADER
from imtscast.fourier import _check_rows
from imtscast.model import ATTENTION_EPS, POOLING_EPS, _kernel_weights
from imtscast.tape import Tensor


# sin and cos compute their derivative inside the VJP, as the retired tape
# primitives did.

def sin(a: Tensor) -> Tensor:
    ad = a.data
    return a.tape.record("sin", np.sin(ad), (a,), lambda g: (g * np.cos(ad),))


def cos(a: Tensor) -> Tensor:
    ad = a.data
    return a.tape.record("cos", np.cos(ad), (a,), lambda g: (g * (-np.sin(ad)),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # record() raises instead
        e = np.exp(a.data)
    return a.tape.record("exp", e, (a,), lambda g: (g * e,))


def sigmoid(a: Tensor) -> Tensor:
    """Entrywise logistic function; unchecked, as its values lie in [0, 1]."""
    with np.errstate(over="ignore"):   # exp(-a) = inf for a << 0 gives s = 0
        s = np.asarray(1.0 / (1.0 + np.exp(-a.data)))
    return a.tape.append("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def div(a: Tensor, b) -> Tensor:
    """Entrywise ``a / b`` with broadcasting; the adjoint of ``b`` is formed
    as -(g / b) * (a / b), which stays finite for a tiny ``b`` where
    -g a / b^2 would square it into 0 and give 0 / 0."""
    b = T._lift(a, b)
    ash, bsh = a.data.shape, b.data.shape
    ga, gb = a.needs_grad, b.needs_grad
    bd = b.data
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # record() raises instead
            out = a.data / bd
    except ValueError:
        raise T._broadcast_error("div", a, b) from None

    def vjp(g):
        g_over_b = g / bd
        return (T.unbroadcast(g_over_b, ash) if ga else None,
                T.unbroadcast(-g_over_b * out, bsh) if gb else None)

    return a.tape.record("div", out, (a, b), vjp)


def place(a: Tensor, index, shape) -> Tensor:
    """Put the entries of ``a`` at the distinct flat positions ``index`` of
    a zero array of ``shape``, one per entry in row-major order; the
    adjoint gathers those positions back."""
    idx = np.asarray(index, dtype=np.intp)
    old = a.data.shape
    if idx.ndim != 1 or idx.size != a.data.size:
        raise T.ShapeError(f"place: {a.data.size} entries for {idx.size} positions")
    out = np.zeros(shape)
    out.reshape(-1)[idx] = a.data.reshape(-1)
    return a.tape.append("place", out, (a,), lambda g: (g.reshape(-1)[idx].reshape(old),))


def reshape(a: Tensor, shape) -> Tensor:
    """The same entries in another shape, as a view; the adjoint reshapes back."""
    old = a.data.shape
    return a.tape.append("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes as a view; the adjoint swaps them back."""
    return a.tape.append("transpose", a.data.swapaxes(-1, -2), (a,),
                         lambda g: (g.swapaxes(-1, -2),))


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` into a new array; the adjoint applies the
    inverse permutation."""
    inverse = tuple(int(ax) for ax in np.argsort(axes))
    return a.tape.append("permute", np.ascontiguousarray(a.data.transpose(axes)), (a,),
                         lambda g: (g.transpose(inverse),))


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; the adjoint scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2:
        raise T.ShapeError(f"take_rows: expected a matrix, got shape {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return a.tape.append("take_rows", a.data[idx], (a,), vjp)


def narrow(a: Tensor, key) -> Tensor:
    """Basic slicing (slices and ints only) into a new array; the adjoint
    scatters into zeros."""
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        z[key] = g
        return (z,)

    return a.tape.append("narrow", np.ascontiguousarray(a.data[key]), (a,), vjp)


def chain_attend(fq: Tensor, fk: Tensor, values: Tensor) -> Tensor:
    """``model._attend``'s quotient as permute, reshape, transpose, concat
    and two matmul nodes on (B*H, N, .) stacks, then two narrow nodes, the
    floor as a mul by 0 or 1 and an add of 0 or ATTENTION_EPS, and a div."""
    samples, n, heads, d_head = values.data.shape

    def stack(x):
        return reshape(permute(x, (0, 2, 1, 3)), (samples * heads, n, x.data.shape[3]))

    ones = fq.tape.const(np.ones((samples * heads, n, 1)))
    out = stack(fq) @ (transpose(stack(fk)) @ T.concat([stack(values), ones], axis=2))
    both = permute(reshape(out, (samples, heads, n, d_head + 1)), (0, 2, 1, 3))
    num, den = narrow(both, np.s_[..., :d_head]), narrow(both, np.s_[..., d_head:])
    floored = den.data <= ATTENTION_EPS
    return div(num, den * (~floored).astype(np.float64) + np.where(floored, ATTENTION_EPS, 0.0))


def chain_time_encode(tcol: Tensor, p: dict[str, Tensor]) -> Tensor:
    """The time encoding of a (M, 1) column of times (``model._encoding``,
    transposed) as seven primitive nodes: the linear columns, one shared
    argument, its sin and cos, and concat."""
    lin = tcol @ p["te.w_s"] + p["te.b_s"]
    theta = tcol @ p["te.w_f"] + p["te.b_f"]
    return T.concat([lin, sin(theta), cos(theta)], axis=1)


def chain_query_features(z: Tensor, rows, times: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """``model.query_features`` as the chain it replaces: the (Q,) times as
    a constant column, a ``take_rows`` gather of z's rows, the times'
    ``chain_time_encode`` and concat."""
    encoding = chain_time_encode(z.tape.const(times.reshape(-1, 1)), p)
    return T.concat([take_rows(z, rows), encoding], axis=1)


def first_maxima(phi: np.ndarray, keys: bool) -> np.ndarray:
    """Flat positions in the (B, N, H, R) features ``phi`` of each group's
    first largest entry, in the groups' C order: each query row is a group,
    and so are all keys of one (sample, head). That entry's exponent is the
    group's largest, the one the shift moved to 0, unless exponents within
    rounding of the largest give the same feature; the first of those is
    taken then."""
    b, n, h, r = phi.shape
    first = np.arange(b * n * h) * r + phi.argmax(axis=3).reshape(-1)   # of each row
    if not keys:
        return first
    first = first.reshape(b, n, h)
    row = phi.reshape(-1)[first].argmax(axis=1)                         # (B, H)
    return np.take_along_axis(first, row[:, None, :], axis=1).reshape(-1)


def chain_positive_features(x: Tensor, omega: np.ndarray, keys: bool = False) -> Tensor:
    """The feature map of ``model.linear_attention`` on a (B, N, H, d_h)
    stack, as a chain of primitive nodes: a matmul, concat with the
    projection times -1, for keys sub the row sum of x * x, then sub each
    group's first maximum (a ``take_rows`` gather) plus -log(s), and exp."""
    samples, n, heads, d_head = x.data.shape
    half = omega.shape[1]
    proj = reshape(reshape(x, (-1, d_head)) @ omega, (samples, n, heads, half))
    ex = T.concat([proj, proj * -1.0], axis=3)
    if keys:
        ex = ex - (x * x).sum(axis=3, keepdims=True)
    axes, log_scale = ((1, 3) if keys else (3,)), 0.5 * math.log(4 * half)
    features = np.exp(ex.data - (ex.data.max(axis=axes, keepdims=True) + log_scale))
    peak = take_rows(reshape(ex, (-1, 1)), first_maxima(features, keys))
    peak = reshape(peak, (samples, 1, heads, 1) if keys else (samples, n, heads, 1))
    return exp(ex - (peak + log_scale))


def chain_linear_attention(q: Tensor, k: Tensor, v: Tensor, omega: np.ndarray,
                           samples: int = 1) -> Tensor:
    """``model.linear_attention`` as the chain it replaces: the (B*N, d)
    rows reshaped to (B, N, H, d_h) stacks, the queries' and the keys'
    feature maps, ``chain_attend`` and a reshape back to (B*N, d)."""
    total, d = q.data.shape
    d_head = omega.shape[0]
    split = (samples, total // samples, d // d_head, d_head)
    fq = chain_positive_features(reshape(q, split), omega)
    fk = chain_positive_features(reshape(k, split), omega, keys=True)
    return reshape(chain_attend(fq, fk, reshape(v, split)), (total, d))


def chain_kernel_weights(t_norm: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """``model._kernel_weights`` as a chain of primitive nodes: (B, L)
    times -> (B, K, L) weights."""
    centers = p["pool.centers"].swapaxes(-1, -2)                 # (K, 1)
    diff = p["pool.log_alpha"].tape.const(t_norm[:, None, :]) - centers
    sig2 = reshape(exp(p["pool.log_alpha"] * 2.0), centers.shape)
    return exp(div(diff * diff * (-0.5), sig2))


def nonzero(den: Tensor) -> Tensor:
    """``den`` plus one wherever it is at or below ``POOLING_EPS`` (see
    ``model._pool_quotient``); the correction, built in {0, 1}, enters the
    tape unchecked."""
    correction = (den.data <= POOLING_EPS).astype(np.float64)
    return den + den.tape.append("const", correction, (), None)


def chain_pool_quotient(xhat: Tensor, weights: Tensor, mask_rows: np.ndarray) -> Tensor:
    """``model._pool_quotient`` as the chain it replaces: the mask as a
    constant, the numerators and denominators as two batched matmuls with
    the (B, K, L) weights read as (B, L, K), ``nonzero``'s correction and
    its add, the division and the reshape to (B*N, K)."""
    mask = xhat.tape.append("const", mask_rows.reshape(xhat.data.shape), (), None)
    w_t = transpose(weights)
    num, den = xhat @ w_t, mask @ w_t
    return reshape(div(num, nonzero(den)), (mask_rows.shape[0], weights.data.shape[1]))


def chain_fuse_at_cells(values: Tensor, proj: Tensor, block: AlignedTriplet) -> Tensor:
    """``model._fuse_at_cells`` as the chain it replaces: ``place`` the
    (1, P) values at the block's cells, add the (B*L, 1) projection to
    every row of each sample's (N, L) grid by broadcasting, and multiply
    by the mask."""
    samples, n, length = block.samples, block.n_variates, block.grid_length
    stack = reshape(place(values, block.cells, block.grid_shape), (samples, n, length))
    mask = values.tape.append("const", block.mask.reshape((samples, n, length)), (), None)
    return (stack + reshape(proj, (samples, 1, length))) * mask


def dense_layout(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The observed-cell layout of the (R, L) grid ``values`` under ``mask``:
    the sorted flat indices of the observed cells, (P,), and each one's
    left, own and right value on the zero-padded rows, (3, P)."""
    length = values.shape[1]
    flat = np.flatnonzero(mask)
    padded = np.pad(values, ((0, 0), (1, 1))).reshape(-1)     # rows of L+2
    centre = flat + 2 * (flat // length) + 1                   # cell positions in ``padded``
    return flat, np.stack([padded[centre - 1], padded[centre], padded[centre + 1]])


def grid_triplet(values: np.ndarray, mask: np.ndarray, times=None) -> AlignedTriplet:
    """A block from its zero-filled (B*N, L) grid, its mask and its (B, L)
    times; without times, a block of one whose grid times are all 0."""
    cells, taps = dense_layout(values, mask)
    if times is None:
        times = np.zeros((1, values.shape[1]))
    return AlignedTriplet(times=times, cells=cells, taps=taps,
                          n_variates=values.shape[0] // times.shape[0])


def zero_filled(block: AlignedTriplet) -> np.ndarray:
    """The block's zero-filled (B*N, L) grid: each observed cell's own tap at its cell."""
    grid = np.zeros(block.grid_shape)
    grid.reshape(-1)[block.cells] = block.taps[1]
    return grid


def dense_conv_smooth(rows: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Width-3 then 1x1 convolution along time with zero same-padding, at
    every cell of the (N, L) rows."""
    n, length = rows.data.shape
    zero = rows.tape.const(np.zeros((n, 1)))
    padded = T.concat([zero, rows, zero], axis=1)              # (N, L+2)
    taps = T.concat(
        [
            reshape(narrow(padded, np.s_[:, 0:length]), (1, n * length)),
            reshape(narrow(padded, np.s_[:, 1 : length + 1]), (1, n * length)),
            reshape(narrow(padded, np.s_[:, 2 : length + 2]), (1, n * length)),
        ],
        axis=0,
    )                                                          # (3, N*L)
    hidden = T.relu(p["conv.w1"] @ taps + p["conv.b1"])        # (C, N*L)
    out = p["conv.w2"] @ hidden + p["conv.b2"]                 # (1, N*L)
    return reshape(out, (n, length))


def dense_encode_series(block: AlignedTriplet, tp: T.Tape, p: dict[str, Tensor]) -> Tensor:
    """``model.encode_series`` with the convolution run on the whole
    zero-filled grid, rebuilt from the block's layout, and the grid times'
    ``chain_time_encode``, projected, added to every cell; the product with
    the mask then zeroes every unobserved cell. Returns the (B, N, L) stack."""
    base = dense_conv_smooth(tp.const(zero_filled(block)), p)
    shape = (block.samples, block.n_variates, block.grid_length)
    tcol = tp.const(block.times.reshape(-1, 1))
    tproj = reshape(chain_time_encode(tcol, p) @ p["te.w_t"], (shape[0], 1, shape[2]))
    return (reshape(base, shape) + tproj) * block.mask.reshape(shape)


def pool_coefficients(t_norm: Tensor, mask_col: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-variate kernel coefficients.

    ``t_norm`` and ``mask_col`` are (L, 1); the result (L, K) holds the mask-
    gated Gaussian affinity of each grid point to each kernel, normalized so
    every column with at least one observation sums to exactly one. Columns
    with no observed support are all zeros.
    """
    weights = _kernel_weights(t_norm.data.swapaxes(-1, -2), p)   # (1, K, L)
    weights = transpose(reshape(weights, weights.data.shape[1:])) * mask_col   # (L, K)
    colsum = weights.sum(axis=0, keepdims=True)
    return div(weights, nonzero(colsum))


def pool_summary(x_col: Tensor, coeffs: Tensor, mask_col: Tensor,
                 p: dict[str, Tensor]) -> Tensor:
    """Pool one variate (L, 1) into a (1, d) vector via its coefficients."""
    pooled = transpose(transpose(coeffs) @ x_col)              # (1, K)
    flag = 1.0 if float(mask_col.data.sum()) > 0 else 0.0
    withflag = T.concat([pooled, x_col.tape.const([[flag]])], axis=1)
    return withflag @ p["pool.w_proj"]                         # (1, d)


def param_count_closed_form(cfg) -> int:
    """Learnable parameter count of a config, counted per stage in closed
    form rather than from ``model.layout``."""
    d, dte, k, c = cfg.hidden, cfg.time_dim, cfg.kernels, cfg.conv_channels
    conv = 3 * c + c + c + 1
    pairs = (dte - 1) // 2
    # linear scale and shift per linear column, frequency and phase per
    # sin/cos pair, projection
    te = 2 * (dte - 2 * pairs) + 2 * pairs + dte
    pool = k + (k + 1) * d
    block = 3 * d * d + 4 * d + (2 * d * d + 2 * d) + (2 * d * d + d)
    head = (d + dte) * d + d + d * d + d + d + 1
    return conv + te + pool + cfg.blocks * block + head


def naive_dft_rows(x: np.ndarray) -> np.ndarray:
    """O(d^2) reference transform in the same packing and the same forward
    normalization (1/d on the forward transform); test oracle only."""
    x = np.asarray(x, dtype=np.float64)
    d = _check_rows(x)
    grid = np.arange(d)
    out = np.empty((x.shape[0], d))
    for j in range(d // 2 + 1):
        ang = 2.0 * np.pi * j * grid / d
        out[:, j] = x @ np.cos(ang)
    for j in range(1, d // 2):
        ang = 2.0 * np.pi * j * grid / d
        out[:, d // 2 + j] = -(x @ np.sin(ang))
    return out / d


def poisson_times_loop(rng, rate: float, span: float) -> np.ndarray:
    """Poisson event times on (0, span), one exponential gap per draw."""
    tiny = np.finfo(np.float64).tiny
    times = []
    t = rng.exponential(1.0 / rate)
    while t < span:
        times.append(t)
        t += max(rng.exponential(1.0 / rate), tiny)  # keep strictly increasing
    return np.asarray(times)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_observations_rows(path, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OBS_HEADER)
        for sample in samples:
            for series in sample.series:
                for t, x in zip(series.times, series.values):
                    writer.writerow([sample.sample_id, series.variate_id, _fmt(t), _fmt(x)])


def write_queries_rows(path, samples, with_targets: bool = True) -> None:
    header = QUERY_HEADER if with_targets else QUERY_HEADER[:3]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for sample in samples:
            for series, qt, tg in zip(sample.series, sample.query_times, sample.query_targets):
                for j, t in enumerate(qt):
                    row = [sample.sample_id, series.variate_id, _fmt(t)]
                    if with_targets:
                        row.append(_fmt(tg[j]) if tg is not None else "")
                    writer.writerow(row)


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}:{line_no}: not a number: {text!r}")


def _parse_id(text: str, path, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        value = _parse_float(text, path, line_no)
    if not value.is_integer():
        raise DataError(f"{path}:{line_no}: not an integer id: {text!r}")
    return int(value)


def _csv_rows(path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from enumerate(csv.reader(fh), start=1)
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text: {err}") from err


def read_observations_rows(path) -> dict[int, dict[int, list]]:
    """{series_id: {variate: [(t, x), ...]}}, parsed row by row."""
    table: dict[int, dict[int, list]] = {}
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header != OBS_HEADER:
        raise DataError(f"{path}:1: expected header {','.join(OBS_HEADER)}")
    for line_no, row in rows:
        if len(row) != 4:
            raise DataError(f"{path}:{line_no}: expected 4 columns, got {len(row)}")
        sid = _parse_id(row[0], path, line_no)
        var = _parse_id(row[1], path, line_no)
        t = _parse_float(row[2], path, line_no)
        x = _parse_float(row[3], path, line_no)
        stream = table.setdefault(sid, {}).setdefault(var, [])
        if stream and t <= stream[-1][0]:
            raise DataError(
                f"{path}:{line_no}: non-increasing time for series {sid}, variate {var}"
            )
        stream.append((t, x))
    return table


def read_queries_rows(path, require_targets: bool) -> dict[int, dict[int, list]]:
    """{series_id: {variate: [(t, target or None), ...]}}, parsed row by row."""
    table: dict[int, dict[int, list]] = {}
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header not in (QUERY_HEADER, QUERY_HEADER[:3]):
        raise DataError(f"{path}:1: expected header {','.join(QUERY_HEADER)} (target optional)")
    has_target = header == QUERY_HEADER
    if require_targets and not has_target:
        raise DataError(f"{path}: split files need the target column")
    for line_no, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}")
        sid = _parse_id(row[0], path, line_no)
        var = _parse_id(row[1], path, line_no)
        t = _parse_float(row[2], path, line_no)
        target = None
        if has_target and len(row) == 4 and row[3] != "":
            target = _parse_float(row[3], path, line_no)
        if require_targets and target is None:
            raise DataError(f"{path}:{line_no}: missing target")
        table.setdefault(sid, {}).setdefault(var, []).append((t, target))
    return table
