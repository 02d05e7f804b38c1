"""Spans around imtscast's public functions, recorded from outside the package.

The package's modules import each other's functions by name (``train.py``
does ``from .model import forward``), so a wrapper only sees the calls made
through the namespace it is installed on. ``targets()`` therefore names the
caller's module for every wrapped function: ``imtscast.train.forward`` for
the training loop, ``imtscast.model.forward`` for the benchmark's own
serving loop, ``imtscast.model.rfft_rows`` for the attention block, and so
on. ``Tracer.installed`` swaps the wrappers in and always puts the original
objects back.

Spans are kept in memory. Times are integer nanoseconds from
``time.perf_counter_ns``, so self times add up exactly. A span's self time
is its duration minus the durations of its direct children; children never
overlap because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import imtscast.data
import imtscast.datasets
import imtscast.model
import imtscast.tape

# ``imtscast.train`` the attribute is the train() function, re-exported by the
# package; the module has to be fetched by its full name.
train_module = importlib.import_module("imtscast.train")


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    sample: int          # ordinal of the enclosing model.forward call, -1 if none
    step: int            # optimizer steps taken before the span opened
    start: int = 0       # perf_counter_ns
    end: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "id": self.span_id, "parent": self.parent,
                "sample": self.sample, "step": self.step, "start_ns": self.start,
                "end_ns": self.end, **self.counts}


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` becomes a span called ``name``."""

    owner: object
    attr: str
    name: str
    hook: object = None         # hook(span, args, result) stores counts
    starts_sample: bool = False
    ends_step: bool = False


def _tape_of(args):
    for arg in args:
        if isinstance(arg, imtscast.tape.Tape):
            return arg
        if isinstance(arg, imtscast.tape.Tensor):
            return arg.tape
    return None


class Tracer:
    """Collects spans; ``span`` for the benchmark's own code, ``installed``
    for wrappers around the package's functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sample = -1
        self._samples = 0
        self._step = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, len(self.spans), parent, self._sample, self._step)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_sample = self._sample
            if target.starts_sample:
                self._sample = self._samples
                self._samples += 1
            tape = _tape_of(args)
            before = len(tape.nodes) if tape is not None else 0
            span = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self._sample = outer_sample
            if tape is not None:
                span.counts["nodes_added"] = len(tape.nodes) - before
            if target.hook is not None:
                target.hook(span, args, result)
            if target.ends_step:
                self._step += 1
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Install a wrapper on every target; restore the originals on exit."""
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)


class NullTracer:
    """Tracing off: the benchmark's own spans cost one no-op context."""

    def span(self, name: str):
        return nullcontext()


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _count_rows(span, args, result):
    span.counts["rows"] = sum(len(stream) for streams in result.values()
                              for stream in streams.values())


def _grid(span, args, result):
    span.counts["grid_len"] = result.grid_length
    span.counts["cells"] = int(result.mask.size)
    span.counts["observed"] = int(result.mask.sum())


def _degenerate(span, args, result):
    span.counts["degenerate_rows"] = int(result.stats.get("degenerate_rows", 0))


def _tape_size(span, args, result):
    span.counts["nodes"] = len(args[0].nodes)


def _norm(span, args, result):
    span.counts["norm"] = float(result)


def _applied(span, args, result):
    span.counts["applied"] = bool(result)


def targets() -> list[Target]:
    ds, data, model, train = imtscast.datasets, imtscast.data, imtscast.model, train_module
    forward = dict(name="model.forward", hook=_degenerate, starts_sample=True)
    return [
        Target(ds, "write_dataset", "datasets.write"),
        Target(ds, "generate", "datasets.generate"),
        Target(ds, "read_dataset", "datasets.read_dataset"),
        Target(ds, "read_observations", "datasets.read_observations", _count_rows),
        Target(ds, "read_queries", "datasets.read_queries", _count_rows),
        Target(data, "align", "data.align", _grid),
        Target(train, "align", "data.align", _grid),
        Target(model, "forward", **forward),
        Target(train, "forward", **forward),
        Target(model, "encode_series", "model.encode"),
        Target(model, "pool_all", "model.pool"),
        Target(model, "attention_block", "model.attention_block"),
        Target(model, "linear_attention", "model.linear_attention"),
        Target(model, "rfft_rows", "fourier.rfft"),
        Target(model, "irfft_rows", "fourier.irfft"),
        Target(imtscast.tape.Tape, "backward", "tape.backward", _tape_size),
        Target(train, "build_loss", "train.build_loss"),
        Target(train, "clip_gradients", "train.clip", _norm),
        Target(train, "adam_step", "train.adam", _applied, ends_step=True),
        Target(train, "evaluate", "train.evaluate"),
    ]


# ---------------------------------------------------------------------------
# span trees and per-layer metrics
# ---------------------------------------------------------------------------

def children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: dict[int, list[Span]]) -> int:
    return span.duration - sum(child.duration for child in kids.get(span.span_id, ()))


def subtree(span: Span, kids: dict[int, list[Span]]):
    """The span and all its descendants, depth first."""
    pending = [span]
    while pending:
        current = pending.pop()
        yield current
        pending.extend(kids.get(current.span_id, ()))


@dataclass
class _Totals:
    duration: int = 0
    self_ns: int = 0
    calls: int = 0
    nodes_added: int = 0


def _totals(root: Span, kids) -> dict[str, _Totals]:
    out: dict[str, _Totals] = {}
    for span in subtree(root, kids):
        entry = out.setdefault(span.name, _Totals())
        entry.duration += span.duration
        entry.self_ns += self_time(span, kids)
        entry.calls += 1
        entry.nodes_added += span.counts.get("nodes_added", 0)
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _get(totals: dict[str, _Totals], name: str) -> _Totals:
    return totals.get(name, _Totals())


# (metric name, unit) in the order they are printed; README.md says which
# end-to-end metric each one should move.
PER_LAYER = [
    ("datasets.generate_s", "s"), ("datasets.write_s", "s"), ("datasets.read_s", "s"),
    ("datasets.rows_parsed", "count"), ("data.align_ms", "ms"), ("data.grid_len", "count"),
    ("data.mask_density", "ratio"),
    ("model.encode_ms", "ms"), ("model.pool_ms", "ms"), ("model.encode_nodes", "count"),
    ("model.pool_nodes", "count"), ("model.attention_ms", "ms"),
    ("model.linear_attention_ms", "ms"), ("model.attention_nodes", "count"),
    ("fourier.rfft_ms", "ms"), ("fourier.irfft_ms", "ms"), ("fourier.calls", "count"),
    ("model.forward_ms", "ms"), ("model.head_ms", "ms"), ("model.forward_nodes", "count"),
    ("model.degenerate_rows", "count"),
    ("tape.nodes_per_sample", "count"), ("tape.backward_ms", "ms"),
    ("tape.backward_us_per_node", "us"),
    ("train.build_loss_ms", "ms"), ("train.clip_ms", "ms"), ("train.adam_ms", "ms"),
    ("train.evaluate_s", "s"), ("train.steps", "count"), ("train.skipped_steps", "count"),
    ("train.clipped_frac", "ratio"), ("train.grad_norm_p50", "norm"),
    ("trace.spans", "count"), ("trace.overhead_frac", "ratio"),
]


def layer_metrics(spans: list[Span], clip_norm: float) -> dict[str, float]:
    """Per-layer figures from one traced run (trace.overhead_frac excluded).

    Per-sample figures are medians over ``model.forward`` calls of the sum
    over that call's subtree; per-setup figures are medians over the
    ``setup`` spans; per-call figures are medians over calls.
    """
    kids = children(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name, scale):
        return [s.duration / scale for s in by_name.get(name, ())]

    out: dict[str, float] = {}
    setups = [_totals(s, kids) for s in by_name.get("setup", ())]
    out["datasets.generate_s"] = _median(_get(t, "datasets.generate").duration / 1e9 for t in setups)
    out["datasets.write_s"] = _median(_get(t, "datasets.write").self_ns / 1e9 for t in setups)
    out["datasets.read_s"] = _median(_get(t, "setup.read").duration / 1e9 for t in setups)
    out["datasets.rows_parsed"] = _median(
        sum(s.counts.get("rows", 0) for s in subtree(root, kids))
        for root in by_name.get("setup", ())
    )
    out["data.align_ms"] = _median(durations("data.align", 1e6))
    setup_aligns = [s for root in by_name.get("setup", ()) for s in subtree(root, kids)
                    if s.name == "data.align"]
    out["data.grid_len"] = _median(s.counts["grid_len"] for s in setup_aligns)
    cells = sum(s.counts["cells"] for s in setup_aligns)
    out["data.mask_density"] = (sum(s.counts["observed"] for s in setup_aligns) / cells
                                if cells else 0.0)

    forwards = by_name.get("model.forward", [])
    per_forward = [_totals(f, kids) for f in forwards]

    def per_sample(fn):
        return _median(fn(t) for t in per_forward)

    out["model.encode_ms"] = per_sample(lambda t: _get(t, "model.encode").duration / 1e6)
    out["model.pool_ms"] = per_sample(lambda t: _get(t, "model.pool").duration / 1e6)
    out["model.encode_nodes"] = per_sample(lambda t: _get(t, "model.encode").nodes_added)
    out["model.pool_nodes"] = per_sample(lambda t: _get(t, "model.pool").nodes_added)
    out["model.attention_ms"] = per_sample(lambda t: _get(t, "model.attention_block").self_ns / 1e6)
    out["model.linear_attention_ms"] = per_sample(
        lambda t: _get(t, "model.linear_attention").duration / 1e6)
    out["model.attention_nodes"] = per_sample(lambda t: _get(t, "model.attention_block").nodes_added)
    out["fourier.rfft_ms"] = per_sample(lambda t: _get(t, "fourier.rfft").duration / 1e6)
    out["fourier.irfft_ms"] = per_sample(lambda t: _get(t, "fourier.irfft").duration / 1e6)
    out["fourier.calls"] = per_sample(
        lambda t: _get(t, "fourier.rfft").calls + _get(t, "fourier.irfft").calls)
    out["model.forward_ms"] = _median(durations("model.forward", 1e6))
    out["model.head_ms"] = _median(self_time(f, kids) / 1e6 for f in forwards)
    out["model.forward_nodes"] = _median(f.counts.get("nodes_added", 0) for f in forwards)
    out["model.degenerate_rows"] = float(sum(f.counts["degenerate_rows"] for f in forwards))

    backward = by_name.get("tape.backward", [])
    out["tape.nodes_per_sample"] = _median(s.counts["nodes"] for s in backward)
    out["tape.backward_ms"] = _median(durations("tape.backward", 1e6))
    out["tape.backward_us_per_node"] = _median(s.duration / 1e3 / s.counts["nodes"]
                                               for s in backward)

    clips = by_name.get("train.clip", [])
    adams = by_name.get("train.adam", [])
    out["train.build_loss_ms"] = _median(durations("train.build_loss", 1e6))
    out["train.clip_ms"] = _median(durations("train.clip", 1e6))
    out["train.adam_ms"] = _median(durations("train.adam", 1e6))
    out["train.evaluate_s"] = _median(durations("train.evaluate", 1e9))
    out["train.steps"] = float(len(adams))
    out["train.skipped_steps"] = float(sum(not s.counts["applied"] for s in adams))
    out["train.clipped_frac"] = (sum(s.counts["norm"] > clip_norm for s in clips) / len(clips)
                                 if clips else 0.0)
    out["train.grad_norm_p50"] = _median(s.counts["norm"] for s in clips)
    out["trace.spans"] = float(len(spans))
    return out
