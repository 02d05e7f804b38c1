"""The benchmark's layer spans still see the package's hot path.

``perfbench/tracing.py`` wraps public functions by name (``encode_series``,
``pool_all``, ``rfft_rows`` on the model module, ``Tape.backward``). A
rename or a bypass in the model would only show up as missing per-layer
metrics in a benchmark run, so one traced forward and backward runs here.
``perfbench/tests`` has its own conftest and runs as a separate suite.
"""

from pathlib import Path

import numpy as np

import imtscast.model as model_module
from imtscast.config import TrainConfig
from imtscast.data import align
from imtscast.datasets import PRESETS, generate
from imtscast.model import ModelParams
from imtscast.tape import Tape
from imtscast.train import build_loss

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
        res = model_module.forward(tape, model, [align(s) for s in chunk],
                                   [s.query_times for s in chunk])
        tape.backward(build_loss(res, targets))
    fired = {span.name for span in tracer.spans}
    for name in ("model.forward", "model.encode", "model.pool", "model.attention_block",
                 "fourier.rfft", "tape.backward"):
        assert name in fired, name
    assert tracer.restored()
