"""Workloads, timed phases and output checks of the imtscast benchmark.

Every workload runs the same three phases on one dataset generated from
the run's seed:

* set-up, repeated ``SETUP_REPEATS`` times: generate and write the dataset,
  read the train/val splits with ``read_dataset`` and the test split the way
  ``imtscast predict`` does (``read_observations``/``read_queries``/
  ``assemble_samples``), align every sample once, initialise the model;
* training: ``train()`` with the default ``TrainConfig`` for a fixed number
  of epochs with early stopping off, then a ``save``/``load`` round trip of
  the returned checkpoint;
* serving: a closed loop with one client and one request at a time, each
  request being the per-sample path of ``imtscast predict``
  (``align`` -> ``forward`` -> ``per_variate``). A round sends every test
  sample once. One round before training and one after every epoch serve
  the initial checkpoint; after training, ``ROUNDS_AFTER_TRAINING`` rounds
  serve the trained checkpoint. Further rounds fill the run until its
  seconds are used up; they are checked but not timed.

Timings are scaled to a reference speed. On a shared machine, neighbours
slow everything by ~1.6x for stretches of 10-30 s, often for a whole run,
so neither a median nor a best-of-repeats over one run's timings filters
them out. Every timed unit of work (a set-up, an epoch, a serving round)
is therefore scaled: a fixed numpy kernel is timed between consecutive
units, and a unit's time is multiplied by ``REFERENCE_MS`` over the mean
of the kernel's timings just before and just after it. The kernel is the
benchmark's own code, so no change to imtscast can alter it. Figures are
then medians: over the set-ups, over the epochs, and over the requests
of the timed rounds.

The timed rounds number ``1 + epochs + ROUNDS_AFTER_TRAINING``, fixed per
workload, so a change that only slows training does not change which
requests are timed. Interleaving them with the epochs spreads serving
over the run.

The workloads differ in their data and in how the run's time divides
between training and serving (see ``WORKLOADS`` and ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import logging
import math
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import imtscast.data as data_module
import imtscast.datasets as datasets
import imtscast.model as model_module
from imtscast.config import TrainConfig
from imtscast.tape import Tape, TapeError

import tracing

train_module = tracing.train_module

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
ROUNDS_AFTER_TRAINING = 4
# The reference kernel's time, in ms, in quiet periods on the 2-vCPU VM
# the baseline was measured on; timings are scaled to that speed.
REFERENCE_MS = 1.7
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((128, 64))
_REFERENCE_VECTOR = np.random.default_rng(1).standard_normal(16)
# p90 over test samples needs at least ten samples beyond it.
MIN_TEST_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    spec: datasets.SynthSpec   # its seed is replaced by the run's seed
    epochs: int
    max_test_ratio: float | None = None   # gate on test_mse_vs_baseline

    def config(self) -> TrainConfig:
        return TrainConfig(max_epochs=self.epochs, patience=self.epochs + 1)


WORKLOADS = {
    # The reference task: N=5, L~100. Per-op tape overhead plus the
    # attention block dominate; training takes most of the run.
    "train-sinusoid-a": Workload(
        "train-sinusoid-a", datasets.PRESETS["sinusoid-a"], epochs=6, max_test_ratio=1.0),
    # 8 variates, ~600 observations each, no shared timestamps: L~4800 at a
    # mask density of ~1/8, so encode, pool and backward through large
    # activations dominate while attention over 8 variates is cheap.
    "train-long-grid": Workload(
        "train-long-grid",
        datasets.SynthSpec(n_variates=8, n_samples=150, split=(40, 10, 100),
                           mean_observations=600.0, mode="independent"),
        epochs=8),
    # 128 variates on one shared grid of L~20: attention across many
    # variates and the spectral transforms dominate. A short training phase
    # gives the served checkpoint; most of the run is forward-only serving.
    "predict-wide": Workload(
        "predict-wide",
        datasets.SynthSpec(n_variates=128, n_samples=124, split=(16, 8, 100),
                           mean_observations=20.0, mode="shared"),
        epochs=16),
}

# (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = [
    ("setup_s", "s"), ("train_samples_per_s", "1/s"), ("test_mse_vs_baseline", "ratio"),
    ("predict_ms_p50", "ms"), ("predict_ms_p90", "ms"), ("predict_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("success_frac", "ratio"),
]


@dataclass
class Inputs:
    train: list
    val: list
    test: list
    params: model_module.ModelParams


@dataclass
class Outcome:
    """What one pass over a workload produced and measured."""

    setup_seconds: list[float]
    epoch_seconds: list[float]
    losses: list[tuple[float, float]]       # (train_loss, val_mse) per epoch
    predictions: list                       # trained checkpoint's first round
    latencies: list[float]                  # every request of the timed rounds
    measured_seconds: float                 # training plus serving
    attempted: int
    failed: int
    test_ratio: float
    problems: list[str] = field(default_factory=list)


class _SkippedSteps(logging.Handler):
    """Counts the optimizer's "step skipped" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "step skipped" in record.getMessage():
            self.count += 1


def reference_ms() -> float:
    """Median of nine timings of a fixed kernel mixing the two kinds of work
    imtscast does: matmuls and tanh on a 128x64 matrix, and a chain of
    element-wise numpy calls on a short vector, where call overhead dominates."""
    times = []
    for _ in range(9):
        began = time.perf_counter()
        z = _REFERENCE_MATRIX
        for _ in range(10):
            z = np.tanh(z @ _REFERENCE_MATRIX.T) @ _REFERENCE_MATRIX
        v = _REFERENCE_VECTOR
        for _ in range(300):
            v = np.tanh(v * 0.5 + 0.1)
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


class _Pace:
    """Reference-kernel timings taken between consecutive units of timed
    work. ``restart()`` is called before a unit that does not directly follow
    another; ``scale()`` right after a unit ends, returning the factor that
    brings the unit's time to reference speed."""

    def __init__(self):
        self.restart()

    def restart(self):
        self.last = reference_ms()

    def scale(self) -> float:
        before, self.last = self.last, reference_ms()
        return 2 * REFERENCE_MS / (before + self.last)


def set_up(workload: Workload, seed: int, workdir: Path, tracer) -> Inputs:
    spec = replace(workload.spec, seed=seed)
    with tracer.span("setup"):
        with tracer.span("setup.write"):
            manifest_path = datasets.write_dataset(spec, workdir)
        with tracer.span("setup.read"):
            splits = datasets.read_dataset(manifest_path, splits=("train", "val"))
            with open(manifest_path, encoding="utf-8") as fh:
                test_files = json.load(fh)["splits"]["test"]
            test = datasets.assemble_samples(
                datasets.read_observations(workdir / test_files["observations"]),
                datasets.read_queries(workdir / test_files["queries"], require_targets=False),
            )
        # Aligning every sample once surfaces bad data before anything is
        # timed; the traced run reads grid length and mask density here.
        with tracer.span("setup.align"):
            for sample in (*splits["train"], *splits["val"], *test):
                data_module.align(sample)
        with tracer.span("setup.init"):
            params = model_module.ModelParams.init(workload.config())
    return Inputs(train=splits["train"], val=splits["val"], test=test, params=params)


def _serve_one(params, sample) -> list[np.ndarray] | None:
    """One predict request; None when it raised or broke the output contract."""
    try:
        result = model_module.forward(Tape(), params, data_module.align(sample),
                                      sample.query_times)
        out = result.per_variate()
    except (TapeError, ValueError):
        return None
    if len(out) != len(sample.query_times):
        return None
    for pred, queries in zip(out, sample.query_times):
        if pred.shape != queries.shape or not np.isfinite(pred).all():
            return None
    return out


class _Client:
    """The closed loop's one client. A round sends every test sample once;
    a timed round adds its requests' scaled times to ``times``. Each round visits the
    samples in a fresh order, so the cold caches after an epoch do not
    always fall on the same samples."""

    def __init__(self, test: list, tracer, pace: _Pace):
        self.test = test
        self.tracer = tracer
        self.pace = pace
        self.times: list[float] = []
        self.rounds = 0
        self.requests = 0
        self.failed = 0

    def round(self, params, timed: bool = True) -> list:
        """Serve one round; returns the outputs in test-split order."""
        outs: list = [None] * len(self.test)
        seconds = []
        order = np.random.default_rng(self.rounds).permutation(len(self.test))
        with self.tracer.span("serve.round"):
            for index in order:
                began = time.perf_counter()
                with self.tracer.span("serve.request"):
                    out = _serve_one(params, self.test[index])
                seconds.append(time.perf_counter() - began)
                self.requests += 1
                self.failed += out is None
                outs[index] = out
        if timed:
            scale = self.pace.scale()
            self.times += [x * scale for x in seconds]
        self.rounds += 1
        return outs


def _round_trip(params, path: Path):
    params.save(path)
    return model_module.ModelParams.load(path)


def execute(workload: Workload, seed: int, seconds: float, tracer, workdir: Path,
            fill: bool = True) -> Outcome:
    """One pass: set-up, then training with a serving round before it and
    after every epoch, then ``ROUNDS_AFTER_TRAINING`` rounds with the trained
    checkpoint. With ``fill``, untimed rounds follow until ``seconds`` have
    passed since training began."""
    pace = _Pace()
    setup_seconds = []
    for repeat in range(SETUP_REPEATS):
        inputs = None   # peak memory should hold one copy of the data, not two
        started = time.perf_counter()
        inputs = set_up(workload, seed, workdir / f"setup{repeat}", tracer)
        setup_seconds.append((time.perf_counter() - started) * pace.scale())

    cfg = workload.config()
    steps = cfg.max_epochs * math.ceil(len(inputs.train) / cfg.batch_size)
    problems = []
    client = _Client(inputs.test, tracer, pace)
    # Rounds during training serve the initial checkpoint: a forward pass
    # costs the same whatever the weights, and interleaving spreads both
    # phases over the whole run (see the module docstring).
    initial = _round_trip(inputs.params, workdir / "initial.json")
    skipped = _SkippedSteps()
    train_log = logging.getLogger(train_module.__name__)
    train_log.addHandler(skipped)
    epoch_seconds = []

    def after_epoch(record):
        epoch_seconds.append(record.seconds * pace.scale())
        client.round(initial)

    started = time.perf_counter()
    pace.restart()
    client.round(initial)
    try:
        with tracer.span("train"):
            result = train_module.train(inputs.train, inputs.val, cfg, initial=inputs.params,
                                        on_epoch=after_epoch)
    except train_module.DivergenceError as err:
        problems.append(f"training diverged: {err}")
        result = None
    finally:
        train_log.removeHandler(skipped)
    history = result.history if result is not None else []
    served = initial if result is None else _round_trip(result.params, workdir / "trained.json")
    pace.restart()
    predictions = client.round(served)
    for _ in range(ROUNDS_AFTER_TRAINING - 1):
        client.round(served)
    while fill and time.perf_counter() < started + seconds:
        client.round(served, timed=False)
    finished = time.perf_counter()
    test = inputs.test

    losses = [(rec.train_loss, rec.val_mse) for rec in history]
    if not all(math.isfinite(a) and math.isfinite(b) for a, b in losses):
        problems.append("non-finite training loss")
    test_ratio = math.nan
    if all(out is not None for out in predictions):
        pred = np.concatenate([np.concatenate(p) for p in predictions])
        target = np.concatenate([np.concatenate(s.query_targets) for s in test])
        mse = train_module.metrics(pred, target)["mse"]
        test_ratio = mse / train_module.mean_predictor_baseline(inputs.train, test)
    else:
        problems.append("some queries got no finite prediction")
    if workload.max_test_ratio is not None and not test_ratio < workload.max_test_ratio:
        problems.append(f"test_mse_vs_baseline {test_ratio!r} is not below "
                        f"{workload.max_test_ratio}")
    return Outcome(
        setup_seconds=setup_seconds,
        epoch_seconds=epoch_seconds,
        losses=losses,
        predictions=predictions,
        latencies=client.times,
        measured_seconds=finished - started,
        attempted=steps + client.requests,
        failed=(skipped.count if result is not None else steps) + client.failed,
        test_ratio=test_ratio,
        problems=problems,
    )


def end_to_end(outcome: Outcome, n_train: int) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in outcome.latencies]
    # No epoch finishes when training diverges at once; the run is then incorrect.
    epoch = statistics.median(outcome.epoch_seconds) if outcome.epoch_seconds else math.inf
    return {
        "setup_s": statistics.median(outcome.setup_seconds),
        "train_samples_per_s": n_train / epoch,
        "test_mse_vs_baseline": outcome.test_ratio,
        "predict_ms_p50": statistics.median(lat_ms),
        "predict_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "predict_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - outcome.failed / outcome.attempted,
    }


def _bits(outcome: Outcome) -> list[bytes]:
    """The epoch losses and every prediction as raw float64 bytes."""
    out = [np.asarray(outcome.losses, dtype=np.float64).tobytes()]
    for per_variate in outcome.predictions:
        out.append(b"" if per_variate is None else b"|".join(p.tobytes() for p in per_variate))
    return out


def _with_units(values: dict[str, float], units) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        trace_file: Path | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    With ``trace`` the workload runs twice without the untimed rounds,
    first untraced and then traced; the two must agree bitwise, and the
    per-layer metrics come from the traced pass.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        tmp = Path(tmp)
        n_train = workload.spec.split[0]
        if not trace:
            outcome = execute(workload, seed, seconds, tracing.NullTracer(), tmp / "plain")
            return {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": _with_units(end_to_end(outcome, n_train), END_TO_END),
                "problems": outcome.problems,
            }
        reference = execute(workload, seed, seconds, tracing.NullTracer(), tmp / "plain",
                            fill=False)
        tracer = tracing.Tracer()
        with tracer.installed(tracing.targets()):
            with tracer.span("run"):
                traced = execute(workload, seed, seconds, tracer, tmp / "traced",
                                 fill=False)
    problems = reference.problems + traced.problems
    if _bits(reference) != _bits(traced):
        problems.append("traced run differs from the untraced run")
    if not tracer.restored():
        problems.append("a wrapped function was not restored")
    values = tracing.layer_metrics(tracer.spans, train_module.CLIP_NORM)
    values["trace.overhead_frac"] = traced.measured_seconds / reference.measured_seconds - 1.0
    if trace_file is not None:
        with open(trace_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    return {
        "correct": not problems,
        "attempted": reference.attempted + traced.attempted,
        "failed": reference.failed + traced.failed,
        "metrics": _with_units(values, tracing.PER_LAYER),
        "problems": problems,
    }
