"""The benchmark's layer spans still see the package's hot path.

``perfbench/tracing.py`` wraps public functions by name (``encode_series``,
``pool_all``, ``rfft_rows`` on the model module, ``Tape.backward``). A
rename or a bypass in the model would only show up as missing per-layer
metrics in a benchmark run, so one traced forward and backward runs here.
It also checks that each model stage's span counts the nodes it adds,
which the tracer reads off the stage's positional Tape or Tensor argument.
One traced training epoch checks the ``train.*`` spans and the values
their hooks read (``clip_gradients``' norm, ``adam_step``'s flag and
``Tape.backward``'s tape). One traced ``align`` call checks what the
``data.align`` hook reads off an aligned sample.
``perfbench/tests`` has its own conftest and runs as a separate suite.
"""

import math
from pathlib import Path

import numpy as np

import imtscast.data as data_module
import imtscast.model as model_module
from imtscast.config import TrainConfig
from imtscast.datasets import PRESETS, generate
from imtscast.model import ModelParams
from imtscast.tape import Tape
from imtscast.train import build_loss

from conftest import chunk_of

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_spans_fire_and_wrappers_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    chunk = generate(PRESETS["sinusoid-tiny"])[:4]
    model = ModelParams.init(TrainConfig(), seed=0)
    targets = np.concatenate([t for s in chunk for t in s.query_targets])
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets()):
        tape = Tape()
        res = model_module.forward(tape, model, *chunk_of(chunk))
        tape.backward(build_loss(res, targets))
    fired = {span.name for span in tracer.spans}
    for name in ("model.forward", "model.encode", "model.pool", "model.attention_block",
                 "fourier.rfft", "tape.backward"):
        assert name in fired, name
    # The tracer finds a span's tape through a positional Tape or Tensor
    # argument; without one, the span's node count, and the model.*_nodes
    # metrics read from it, would silently be 0.
    for span in tracer.spans:
        if span.name in ("model.encode", "model.pool", "model.attention_block",
                         "model.linear_attention"):
            assert span.counts.get("nodes_added", 0) > 0, span.name
    assert tracer.restored()


def test_a_training_epoch_fires_the_train_spans_and_gives_finite_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    samples = generate(PRESETS["sinusoid-tiny"])
    cfg = TrainConfig(max_epochs=1, batch_size=4)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets()):
        tracing.train_module.train(samples[:16], samples[16:], cfg)
    assert tracer.restored()
    fired = {span.name for span in tracer.spans}
    for name in ("train.clip", "train.adam", "train.build_loss", "train.evaluate",
                 "tape.backward"):
        assert name in fired, name
    metrics = tracing.layer_metrics(tracer.spans, tracing.train_module.CLIP_NORM)
    assert math.isfinite(metrics["train.grad_norm_p50"])
    assert metrics["train.steps"] > 0
    assert 0.0 <= metrics["train.clipped_frac"] <= 1.0


def test_the_align_hook_reads_grid_length_cells_and_observed_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sample = generate(PRESETS["sinusoid-tiny"])[0]
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets()):
        block = data_module.align(sample)
    assert tracer.restored()
    [span] = [span for span in tracer.spans if span.name == "data.align"]
    assert span.counts == {"grid_len": block.grid_length,
                           "cells": sample.n_variates * block.grid_length,
                           "observed": sample.total_observations()}
