"""Dense float64 tensors with a reverse-mode differentiation tape.

Every operation computes its forward value eagerly and appends one node to
the tape holding references to its parents and a vector-Jacobian closure.
``Tape.backward`` walks the nodes once in reverse insertion order and
returns a gradient for every registered parameter (zeros for parameters the
loss never touched). Tensors are treated as immutable once recorded; a tape
must not be shared across threads, but distinct tapes are independent.

All math is double precision. Any operation producing a NaN/Inf raises
``NonFiniteError`` immediately, which keeps divergence diagnosable at the
op that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TapeError(Exception):
    """Base class for recording and backward failures."""


class ShapeError(TapeError):
    pass


class NonFiniteError(TapeError):
    pass


class Tensor:
    """A float64 array recorded on a tape. Do not mutate ``data``."""

    __slots__ = ("data", "tape", "_index")

    def __init__(self, data: np.ndarray, tape: "Tape", index: int):
        self.data = data
        self.tape = tape
        self._index = index

    @property
    def shape(self):
        return self.data.shape

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(self.tape.const(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(self.tape.const(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return narrow(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self._index})"


class Tape:
    """Append-only record of primitive applications plus a parameter registry."""

    def __init__(self):
        self.nodes: list[tuple[tuple[int, ...], object]] = []
        # name -> (node index, shape). Holding the Tensor here would close a
        # reference cycle (the tensor points back at its tape), and every tape
        # would then wait for the cyclic garbage collector.
        self.params: dict[str, tuple[int, tuple[int, ...]]] = {}

    def record(self, op: str, data, parents: tuple[Tensor, ...], vjp) -> Tensor:
        """Append one node. ``vjp(grad)`` must return one array (or None) per parent.

        Public so that custom primitives (e.g. spectral transforms, test
        fixtures) can participate in differentiation.
        """
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{op}: produced non-finite values")
        for p in parents:
            if p.tape is not self:
                raise TapeError(f"{op}: parent tensor belongs to a different tape")
        index = len(self.nodes)
        self.nodes.append((tuple(p._index for p in parents), vjp))
        return Tensor(arr, self, index)

    def const(self, data) -> Tensor:
        """Record a leaf that receives no gradient."""
        if isinstance(data, Tensor):
            return data
        return self.record("const", data, (), None)

    def param(self, name: str, data) -> Tensor:
        """Record a named leaf whose gradient ``backward`` reports."""
        if name in self.params:
            raise TapeError(f"parameter {name!r} registered twice")
        t = self.record("param", data, (), None)
        self.params[name] = (t._index, t.data.shape)
        return t

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Accumulate adjoints of ``loss`` for every registered parameter.

        Visits nodes in reverse insertion order exactly once; parameters not
        reachable from the loss get zero gradients.
        """
        if loss.tape is not self:
            raise TapeError("backward: loss was recorded on a different tape")
        if loss.data.size != 1:
            raise TapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[loss._index] = np.ones_like(loss.data)
        for i in range(loss._index, -1, -1):
            g = grads[i]
            if g is None:
                continue
            parents, vjp = self.nodes[i]
            if vjp is None:
                continue
            for pi, pg in zip(parents, vjp(g)):
                if pg is None:
                    continue
                if grads[pi] is None:
                    grads[pi] = pg
                else:
                    grads[pi] = grads[pi] + pg
            grads[i] = None  # free intermediate adjoints early
        return {
            name: (np.zeros(shape) if grads[index] is None else grads[index])
            for name, (index, shape) in self.params.items()
        }


def _lift(t, other) -> Tensor:
    if isinstance(other, Tensor):
        return other
    return t.tape.const(other)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} are not broadcastable")


def add(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    _check_broadcast("add", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return a.tape.record(
        "add", a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)),
    )


def sub(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    _check_broadcast("sub", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return a.tape.record(
        "sub", a.data - b.data, (a, b),
        lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)),
    )


def mul(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data
    return a.tape.record(
        "mul", ad * bd, (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
    )


def div(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    _check_broadcast("div", a, b)
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):  # record() raises instead
        out = ad / bd

    def vjp(g):
        # -(g / b) * (a / b) rather than -g * a / (b * b): the square of a
        # |b| below ~1e-154 underflows, which makes the adjoint 0/0 even
        # where a is 0, and subnormal squares lose digits.
        g_over_b = g / bd
        return _unbroadcast(g_over_b, ad.shape), _unbroadcast(-g_over_b * out, bd.shape)

    return a.tape.record("div", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return a.tape.record("neg", -a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    return a.tape.record(
        "matmul", ad @ bd, (a, b),
        lambda g: (g @ bd.T, ad.T @ g),
    )


def bmm(a: Tensor, b, transpose_a: bool = False) -> Tensor:
    """Batched matrix product of two 3-D stacks: ``a[i] @ b[i]`` for every i,
    or ``a[i].T @ b[i]`` with ``transpose_a``."""
    b = _lift(a, b)
    ad, bd = a.data, b.data
    lhs = ad.transpose(0, 2, 1) if transpose_a and ad.ndim == 3 else ad
    if (ad.ndim != 3 or bd.ndim != 3 or lhs.shape[0] != bd.shape[0]
            or lhs.shape[2] != bd.shape[1]):
        raise ShapeError(f"bmm: incompatible shapes {ad.shape} and {bd.shape}"
                         f"{' (first transposed)' if transpose_a else ''}")

    def vjp(g):
        grad_b = lhs.transpose(0, 2, 1) @ g
        if transpose_a:
            return bd @ g.transpose(0, 2, 1), grad_b
        return g @ bd.transpose(0, 2, 1), grad_b

    return a.tape.record("bmm", np.matmul(lhs, bd), (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return a.tape.record("relu", a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    return a.tape.record("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def sin(a: Tensor) -> Tensor:
    c = np.cos(a.data)
    return a.tape.record("sin", np.sin(a.data), (a,), lambda g: (g * c,))


def cos(a: Tensor) -> Tensor:
    s = np.sin(a.data)
    return a.tape.record("cos", np.cos(a.data), (a,), lambda g: (g * (-s),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # record() raises instead
        e = np.exp(a.data)
    return a.tape.record("exp", e, (a,), lambda g: (g * e,))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.full(shape, float(g)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

    return a.tape.record("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return (np.full(shape, float(g) / n),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, shape),)

    return a.tape.record("mean", np.mean(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: needs at least one tensor")
    tape = tensors[0].tape
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        out = []
        for k in range(len(sizes)):
            sl[axis] = slice(offsets[k], offsets[k + 1])
            out.append(g[tuple(sl)])
        return tuple(out)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return tape.record("concat", data, tuple(tensors), vjp)


def narrow(a: Tensor, key) -> Tensor:
    """Basic slicing (slices/ints only; no index arrays)."""
    out = a.data[key]
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        z[key] = g
        return (z,)

    return a.tape.record("slice", np.ascontiguousarray(out), (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return a.tape.record(
        "reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),)
    )


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.data.shape}")
    return a.tape.record("transpose", a.data.T.copy(), (a,), lambda g: (g.T,))


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` (``np.transpose``); the adjoint applies the
    inverse permutation."""
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of {a.data.ndim} axes")
    inverse = tuple(int(ax) for ax in np.argsort(axes))
    return a.tape.record(
        "permute", np.ascontiguousarray(a.data.transpose(axes)), (a,),
        lambda g: (g.transpose(inverse),),
    )


def broadcast_to(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast: cannot broadcast {old} to {tuple(shape)}")
    return a.tape.record(
        "broadcast", np.ascontiguousarray(out), (a,), lambda g: (_unbroadcast(g, old),)
    )


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; the adjoint scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: expected a matrix, got shape {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return a.tape.record("take_rows", a.data[idx], (a,), vjp)


def place(a: Tensor, index, shape) -> Tensor:
    """Put the entries of ``a`` at the flat positions ``index`` of a zero
    array of ``shape``; the adjoint gathers those positions back.

    ``index`` holds distinct flat indices, one per entry of ``a`` in its
    row-major order.
    """
    idx = np.asarray(index, dtype=np.intp)
    shape = tuple(int(n) for n in shape)
    old = a.data.shape
    if idx.ndim != 1 or idx.size != a.data.size:
        raise ShapeError(f"place: {a.data.size} entries for {idx.size} positions")
    out = np.zeros(shape)
    out.reshape(-1)[idx] = a.data.reshape(-1)
    return a.tape.record("place", out, (a,), lambda g: (g.reshape(-1)[idx].reshape(old),))


def layernorm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part).

    The epsilon sits inside the square root, so a constant row maps to
    exactly zero instead of dividing by zero.
    """
    x = a.data
    if x.ndim == 0:
        raise ShapeError("layernorm: scalar input")
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    y = xc / s

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return ((g - gm - y * gym) / s,)

    return a.tape.record("layernorm", y, (a,), vjp)


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tol: float
    step: float

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if e.ok else 'FAIL'}  {e.name:<24s} max_rel_err={e.max_rel_err:.3e}"
            for e in self.entries
        ]


def grad_check(build, params: dict[str, np.ndarray], step: float = 1e-4,
               tol: float = 1e-4, rel_floor: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``build(tape, bound)`` must rebuild the same scalar loss from the bound
    parameter tensors, deterministically. The relative error denominator is
    floored at ``rel_floor`` so that parameters with near-zero gradients are
    judged on an absolute scale where finite differencing has no signal.
    """
    tape = Tape()
    bound = {name: tape.param(name, arr) for name, arr in params.items()}
    loss = build(tape, bound)
    analytic = tape.backward(loss)

    def value_at(current: dict[str, np.ndarray]) -> float:
        t = Tape()
        b = {name: t.param(name, arr) for name, arr in current.items()}
        return float(build(t, b).data)

    entries = []
    for name, base in params.items():
        work = dict(params)
        arr = base.copy()
        work[name] = arr
        flat = arr.ravel()
        fd = np.zeros(arr.size)
        for i in range(arr.size):
            orig = flat[i]
            flat[i] = orig + step
            up = value_at(work)
            flat[i] = orig - step
            down = value_at(work)
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * step)
        got = analytic[name].ravel()
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), rel_floor)
        rel = np.abs(got - fd) / denom
        worst = float(rel.max()) if rel.size else 0.0
        entries.append(GradCheckEntry(name, worst, worst <= tol))
    return GradCheckReport(entries, tol=tol, step=step)
