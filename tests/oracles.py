"""Straightforward reference implementations, used only by tests.

The model smooths observed cells only, pools every variate in one batched
pass and transforms rows with cached DFT matrices. These are the
straightforward forms they replace: the convolution over every grid cell,
per-variate pooling coefficients followed by a per-variate summary, and
the packed transform by per-bin direct summation.

The time encoding and the kernel weights are one tape node each in the
model. ``chain_time_encode`` and ``chain_kernel_weights`` are the primitive
chains those nodes replace, built from the tape's primitives and the
``sin``, ``cos`` and ``exp`` nodes below, which the tape no longer has.
The model's ``attend`` node forms phi(K)^T and [V | 1] itself and reads
its (B, N, H, .) inputs as per-(sample, head) stacks; ``chain_attend`` is
the chain it replaces, and it and the pooling reference use the
``transpose`` and ``permute`` nodes below, which the tape no longer has.

The dataset code draws Poisson gaps in one call, writes a sample's rows
with one call and parses CSV blocks with numpy. The references here draw
one gap at a time, write each row with ``csv.writer`` and parse each row
with ``csv.reader`` and ``float``.
"""

import csv

import numpy as np

import imtscast.tape as T
from imtscast.data import DataError
from imtscast.datasets import OBS_HEADER, QUERY_HEADER
from imtscast.fourier import _check_rows
from imtscast.model import _kernel_weights, _nonzero, time_encode
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


def chain_attend(fq: Tensor, fk: Tensor, values: Tensor) -> Tensor:
    """``model._attend`` as permute, reshape, transpose, concat and two
    matmul nodes on (B*H, N, .) stacks."""
    samples, n, heads, d_head = values.data.shape

    def stack(x):
        return permute(x, (0, 2, 1, 3)).reshape((samples * heads, n, x.data.shape[3]))

    ones = fq.tape.const(np.ones((samples * heads, n, 1)))
    out = stack(fq) @ (transpose(stack(fk)) @ T.concat([stack(values), ones], axis=2))
    return permute(out.reshape((samples, heads, n, d_head + 1)), (0, 2, 1, 3))


def chain_time_encode(tcol: Tensor, p: dict[str, Tensor]) -> Tensor:
    """``model.time_encode`` as nine primitive nodes."""
    lin = tcol @ p["te.w_s"] + p["te.b_s"]
    s = sin(tcol @ p["te.w_p"] + p["te.b_p"])
    c = cos(tcol @ p["te.w_c"] + p["te.b_c"])
    return T.concat([lin, s, c], axis=1)


def chain_kernel_weights(t_norm: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """``model._kernel_weights`` as a chain of primitive nodes."""
    diff = p["pool.log_alpha"].tape.const(t_norm) - p["pool.centers"]
    sig2 = exp(p["pool.log_alpha"] * 2.0)
    return exp(diff * diff * (-0.5) / sig2)


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


def dense_encode_series(rows: Tensor, tcol: Tensor, mask, p: dict[str, Tensor],
                        use_conv: bool = True) -> Tensor:
    """``model.encode_series`` with the convolution run on the whole grid;
    ``mask`` is accepted and ignored. Returns the (B, N, L) stack."""
    base = dense_conv_smooth(rows, p) if use_conv else rows
    total, length = rows.data.shape
    samples = tcol.data.shape[0] // length
    tproj = (time_encode(tcol, p) @ p["te.w_t"]).reshape((samples, 1, length))
    return base.reshape((samples, total // samples, length)) + tproj


def pool_coefficients(t_norm: Tensor, mask_col: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-variate kernel coefficients.

    ``t_norm`` and ``mask_col`` are (L, 1); the result (L, K) holds the mask-
    gated Gaussian affinity of each grid point to each kernel, normalized so
    every column with at least one observation sums to exactly one. Columns
    with no observed support are all zeros.
    """
    weights = _kernel_weights(t_norm.data, p) * mask_col       # (L, K)
    colsum = weights.sum(axis=0, keepdims=True)
    return weights / _nonzero(colsum)


def pool_summary(x_col: Tensor, coeffs: Tensor, mask_col: Tensor,
                 p: dict[str, Tensor], use_gate: bool = True) -> Tensor:
    """Pool one variate (L, 1) into a (1, d) vector via its coefficients."""
    pooled = transpose(transpose(coeffs) @ x_col)              # (1, K)
    if use_gate:
        pooled = pooled * T.sigmoid(p["pool.gate"])
    flag = 1.0 if float(mask_col.data.sum()) > 0 else 0.0
    withflag = T.concat([pooled, x_col.tape.const([[flag]])], axis=1)
    return withflag @ p["pool.w_proj"]                         # (1, d)


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
