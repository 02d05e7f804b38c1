"""Dense float64 tensors with a reverse-mode differentiation tape.

Every operation computes its forward value eagerly and appends one node to
the tape. Each tensor carries ``needs_grad``: a parameter leaf needs a
gradient, a constant does not, and a recorded value does when any of its
parents does. Only a node that needs a gradient keeps its parents' indices
and a vector-Jacobian closure; every other node is ``((), None)``, so the
arrays its closure would have captured are freed with the forward's
temporaries. A node that needs a gradient lists each parent that needs none
as ``None``: the binary primitives skip that parent's adjoint, and
``Tape.backward`` drops any adjoint a custom VJP still returns for it.

Parameters enter a tape one way only: as named views of one flat float64
vector (``flat_views`` builds such a vector, ``Tape.param_vector``
registers it). That is also ``Tape.backward``'s one gradient layout: it
walks the nodes once in reverse insertion order and adds each parameter's
gradient into the matching segment of a flat vector, a fresh zero vector
unless ``into`` is given, and returns the segments as named views (zeros
for parameters the loss never touched). On a ``Tape(grad=False)`` no
parameter needs a gradient, so the tape stores no closure at all and
``backward`` raises; inference runs the same primitives on such a tape.
Tensors are treated as immutable once recorded; a tape must not be shared
across threads, but distinct tapes are independent.

All math is double precision, and every tensor on a tape is finite. A
leaf is checked when it enters the tape (``const``, ``param_vector``),
and so is the output of every primitive that can turn finite inputs into
inf or NaN: ``add``, ``sub``, ``mul``, ``matmul``, ``sum``,
``layernorm`` and any custom ``Tape.record`` call. Data read from outside
(times, targets, observed values) enters one of two ways: as a plain array
argument of a node that checks what it computes from it, so a non-finite
entry raises at that node, or through ``const``. A constant that the
code builds finite itself (a mask or flags in {0, 1}, a read-only DFT
matrix) enters through ``Tape.append("const", ...)`` instead, unchecked.
The primitives that only move, select or clamp finite values skip the
check (``concat`` and ``relu``) by appending their node with
``Tape.append``: by induction their outputs are finite too. So a
NaN/Inf raises ``NonFiniteError`` at, and named after, the first op that
produced it, which keeps divergence diagnosable.
"""

from __future__ import annotations

import math
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

    __slots__ = ("data", "tape", "_index", "needs_grad")

    def __init__(self, data: np.ndarray, tape: "Tape", index: int, needs_grad: bool):
        self.data = data
        self.tape = tape
        self._index = index
        self.needs_grad = needs_grad

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self._index})"


_NO_GRAD = ((), None)   # the node of a value that needs no gradient


class Tape:
    """Append-only record of primitive applications plus a parameter registry.

    With ``grad=False`` parameters need no gradient, so no node keeps a VJP
    closure and ``backward`` raises ``TapeError``.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes: list[tuple[tuple[int | None, ...], object]] = []
        # name -> (node index, shape). Holding the Tensor here would close a
        # reference cycle (the tensor points back at its tape), and every tape
        # would then wait for the cyclic garbage collector.
        self.params: dict[str, tuple[int, tuple[int, ...]]] = {}

    def record(self, op: str, data, parents: tuple[Tensor, ...], vjp) -> Tensor:
        """Append one node. ``vjp(grad)`` must return one array (or None) per parent.

        Public so that custom primitives (e.g. the model's fused layers,
        test fixtures) can participate in differentiation. Raises
        ``NonFiniteError`` naming ``op`` if ``data`` is not finite. The node
        keeps ``vjp`` only if some parent needs a gradient; adjoints it
        returns for the other parents are dropped.
        """
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{op}: produced non-finite values")
        return self.append(op, arr, parents, vjp)

    def append(self, op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
        """``record`` without the finiteness check, for a float64 array that
        cannot hold inf or NaN when its parents are finite."""
        needs = False
        for p in parents:
            if p.tape is not self:
                raise TapeError(f"{op}: parent tensor belongs to a different tape")
            if p.needs_grad:
                needs = True
        index = len(self.nodes)
        if needs:
            self.nodes.append(
                (tuple([p._index if p.needs_grad else None for p in parents]), vjp))
        else:
            self.nodes.append(_NO_GRAD)
        return Tensor(data, self, index, needs)

    def const(self, data) -> Tensor:
        """Record a leaf that receives no gradient."""
        return self.record("const", data, (), None)

    def param_vector(self, flat: np.ndarray, views: dict[str, np.ndarray]) -> dict[str, Tensor]:
        """Register named views of one flat float64 vector as parameter leaves.

        ``views`` tile ``flat`` in order, the layout ``backward(into=...)``
        reads. One finiteness check of ``flat`` covers every leaf; the error
        names the first entry that is not finite.
        """
        if not np.isfinite(flat).all():
            bad = next(name for name, view in views.items() if not np.isfinite(view).all())
            raise NonFiniteError(f"param {bad}: non-finite values")
        bound = {}
        for name, view in views.items():
            if name in self.params:
                raise TapeError(f"parameter {name!r} registered twice")
            t = self.append("param", view, (), None)
            t.needs_grad = self.grad
            self.params[name] = (t._index, view.shape)
            bound[name] = t
        return bound

    def backward(self, loss: Tensor, into: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Add the adjoints of ``loss`` into a flat gradient vector.

        Visits nodes in reverse insertion order exactly once. The vector,
        ``into`` or else a fresh zero vector, holds one segment per
        registered parameter in registration order (the layout of
        ``param_vector``); each gradient is added into its segment, and the
        segments are returned as named views. Parameters not reachable from
        the loss add nothing.
        """
        if not self.grad:
            raise TapeError("backward: the tape was built with grad=False")
        if loss.tape is not self:
            raise TapeError("backward: loss was recorded on a different tape")
        if loss.data.size != 1:
            raise TapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        sizes = [math.prod(shape) for _index, shape in self.params.values()]
        if into is None:
            into = np.zeros(sum(sizes))
        elif sum(sizes) != into.size:
            raise TapeError(f"backward: into has {into.size} entries, the parameters "
                            f"{sum(sizes)}")
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
                if pg is None or pi is None:
                    continue
                if grads[pi] is None:
                    grads[pi] = pg
                else:
                    grads[pi] = grads[pi] + pg
            grads[i] = None  # free intermediate adjoints early
        out, offset = {}, 0
        for (name, (index, shape)), size in zip(self.params.items(), sizes):
            segment = into[offset : offset + size].reshape(shape)
            if grads[index] is not None:
                segment += grads[index]
            out[name] = segment
            offset += size
        return out


def flat_views(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Copy named arrays into one new flat float64 vector, in order.

    Returns the vector and a view of each array's segment, shaped like the
    array: the layout ``Tape.param_vector`` registers.
    """
    parts = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
    flat = np.concatenate([a.ravel() for a in parts]) if parts else np.empty(0)
    views, offset = {}, 0
    for name, arr in zip(arrays, parts):
        views[name] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return flat, views


def _lift(t, other) -> Tensor:
    if isinstance(other, Tensor):
        return other
    return t.tape.const(other)


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
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


def _broadcast_error(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} are not broadcastable")


# The binary primitives and ``concat`` read their operands' ``needs_grad``
# into plain bools when they record: an operand that needs no gradient gets a
# None adjoint, and only the arrays the remaining adjoints use are captured.
# A closure must not capture a Tensor, which points back at its tape; that
# would make the tape a reference cycle. Shapes are checked by numpy itself:
# its broadcast error is raised again as a ShapeError.

def add(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise _broadcast_error("add", a, b) from None
    ash, bsh = a.data.shape, b.data.shape
    ga, gb = a.needs_grad, b.needs_grad
    return a.tape.record(
        "add", out, (a, b),
        lambda g: (unbroadcast(g, ash) if ga else None, unbroadcast(g, bsh) if gb else None),
    )


def sub(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise _broadcast_error("sub", a, b) from None
    ash, bsh = a.data.shape, b.data.shape
    ga, gb = a.needs_grad, b.needs_grad
    return a.tape.record(
        "sub", out, (a, b),
        lambda g: (unbroadcast(g, ash) if ga else None, unbroadcast(-g, bsh) if gb else None),
    )


def mul(a: Tensor, b) -> Tensor:
    b = _lift(a, b)
    try:
        out = a.data * b.data
    except ValueError:
        raise _broadcast_error("mul", a, b) from None
    ash, bsh = a.data.shape, b.data.shape
    ad = a.data if b.needs_grad else None
    bd = b.data if a.needs_grad else None
    return a.tape.record(
        "mul", out, (a, b),
        lambda g: (None if bd is None else unbroadcast(g * bd, ash),
                   None if ad is None else unbroadcast(g * ad, bsh)),
    )


def matmul(a: Tensor, b) -> Tensor:
    """Matrix product of two matrices, or of two 3-D stacks entry by entry
    (``a[i] @ b[i]``, equal leading sizes).

    The left adjoint g b^T multiplies by a contiguous copy of b^T: the
    model's right operands are small (parameters and DFT matrices), and
    through the transposed view BLAS ran its short products ~1.5x slower.
    The right adjoint a^T g keeps its view, where a copy measured slower."""
    b = _lift(a, b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != len(sb) or len(sa) not in (2, 3) or sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {sa} and {sb}")
    ad = a.data if b.needs_grad else None
    bd = b.data if a.needs_grad else None
    return a.tape.record(
        "matmul", np.matmul(a.data, b.data), (a, b),
        lambda g: (None if bd is None else g @ np.ascontiguousarray(bd.swapaxes(-1, -2)),
                   None if ad is None else ad.swapaxes(-1, -2) @ g),
    )


# The primitives below that call ``append`` rather than ``record`` only move,
# select or clamp their input's values, so finite inputs give finite
# outputs and the check is skipped (see the module docstring).

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return a.tape.append("relu", np.asarray(a.data * mask), (a,), lambda g: (g * mask,))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.full(shape, float(g)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

    return a.tape.record("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: needs at least one tensor")
    tape = tensors[0].tape
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    wanted = [t.needs_grad for t in tensors]

    def vjp(g):
        sl = [slice(None)] * g.ndim
        out = []
        for k, want in enumerate(wanted):
            sl[axis] = slice(offsets[k], offsets[k + 1])
            out.append(g[tuple(sl)] if want else None)
        return tuple(out)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return tape.append("concat", data, tuple(tensors), vjp)


LAYERNORM_EPS = 1e-5


def layernorm(a: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part).

    ``LAYERNORM_EPS`` sits inside the square root, so a constant row maps to
    exactly zero instead of dividing by zero. A finite row whose variance
    overflows raises ``NonFiniteError``, as every overflowing node does,
    rather than mapping to zeros.
    """
    x = a.data
    if x.ndim == 0:
        raise ShapeError("layernorm: scalar input")
    with np.errstate(over="ignore", invalid="ignore"):   # raises below instead
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
    if not np.isfinite(var).all():
        raise NonFiniteError("layernorm: produced non-finite values")
    s = np.sqrt(var + LAYERNORM_EPS)
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


GRAD_CHECK_REL_FLOOR = 1e-3   # smallest relative-error denominator in grad_check


def grad_check(build, flat: np.ndarray, views: dict[str, np.ndarray], step: float = 1e-4,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``views`` are named views of the flat float64 vector ``flat`` (see
    ``flat_views``). ``build(tape)`` must register them on the tape
    (``Tape.param_vector``) and return the same scalar loss from their
    current values, deterministically; the analytic gradient is
    ``backward``'s into a vector of ``flat``'s layout. Each entry
    ``flat[i]`` is moved by +-``step`` in place, one loss evaluation each on
    a ``Tape(grad=False)``, and restored even when ``build`` raises, so
    ``flat`` ends bitwise as it began. Each entry's error is
    |analytic - fd| / max(|analytic|, |fd|, ``GRAD_CHECK_REL_FLOOR``), and a
    view passes when its largest error is at most ``tol``; the report lists
    the views in order. The floor judges near-zero gradients on an absolute
    scale, where finite differencing has no signal.
    """
    analytic = np.zeros_like(flat)
    tape = Tape()
    tape.backward(build(tape), into=analytic)

    def value() -> float:
        return float(build(Tape(grad=False)).data)

    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        try:
            flat[i] = orig + step
            up = value()
            flat[i] = orig - step
            down = value()
        finally:
            flat[i] = orig
        fd[i] = (up - down) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), GRAD_CHECK_REL_FLOOR)
    rel = np.abs(analytic - fd) / denom
    entries, offset = [], 0
    for name, view in views.items():
        worst = float(rel[offset : offset + view.size].max()) if view.size else 0.0
        entries.append(GradCheckEntry(name, worst, worst <= tol))
        offset += view.size
    return GradCheckReport(entries, tol=tol, step=step)
