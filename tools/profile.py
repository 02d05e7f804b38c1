"""Profile a training chunk and one-sample serving, op by op, as one JSON document.

    python3 tools/profile.py --preset sinusoid-a
    python3 tools/profile.py --workload train-sinusoid-a --seed 1 --repeats 40 --out prof.json

Run from the repository root; the package is imported from ``src/`` of the
same checkout. The data comes from a preset (``datasets.PRESETS``) or from
a benchmark workload's data spec (``WORKLOADS`` in ``perfbench/bench.py``,
read as it is), generated in memory; ``--seed`` replaces the spec's seed,
as the benchmark's run seed does, and ``--variates`` its variate count.
The model is the workload's initial checkpoint (``TrainConfig`` with the
workload's epochs for a workload, the default one for a preset).

The chunk is the first one ``train`` runs: the first batch of epoch 1's
shuffled order, split by ``train.chunk_spans``. Each repetition runs its
forward pass and loss on a fresh tape, then its backward pass, and keeps
that tape alive until the next forward has run, as the training loop does.
The document holds:

- ``chunk``: its shape, its node count, ``model.tape_bytes``, the sizes of
  all the first batch's chunks (``batch_chunks``), and the forward (with
  the loss) and backward ms, p25 over the repetitions;
- ``ops``: per op name, over a second set of repetitions run with every
  node instrumented, the node count, the forward and VJP ms (p25) and the
  minor page faults (``ru_minflt``, median) of the forward and the VJP. An
  op's forward time is the time from the previous node's append to its
  own, so it includes the Python that prepares its inputs;
- ``serve``: the median ms of a one-sample forward on a gradient
  ``Tape()``, whose result is dropped at once (as the benchmark serves),
  and on a ``Tape(grad=False)`` (as ``imtscast predict`` serves), the
  test samples served in turn, each on both tapes.

One repetition of each kind runs first, untimed. BLAS is pinned to one
thread, as the CLI does. ``--order`` makes linear attention take one
association order whatever N (``model._weights_first``), to check the rule
that chooses it; the chunks and ``tape_bytes`` then count the middle
product that order keeps.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads, as the CLI does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np

import imtscast.model as model_module
from bench import WORKLOADS
from imtscast.config import TrainConfig
from imtscast.data import align, pad_chunk
from imtscast.datasets import PRESETS, generate, split_samples
from imtscast.tape import Tape
from imtscast.train import build_loss, chunk_spans, shuffled_order

ORDERS = {"weights-first": True, "summary-first": False}


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def data_spec(preset=None, workload=None, seed=None, variates=None):
    """(spec, config) of a preset or of a benchmark workload, with the seed
    and the variate count replaced where given."""
    if workload is not None:
        spec, cfg = WORKLOADS[workload].spec, WORKLOADS[workload].config()
    else:
        spec, cfg = PRESETS[preset], TrainConfig()
    if seed is not None:
        spec = replace(spec, seed=seed)
    if variates is not None:
        spec = replace(spec, n_variates=variates)
    return spec, cfg


def first_batch_spans(train_samples, cfg: TrainConfig):
    """The first batch ``train`` runs and its ``train.chunk_spans``."""
    batch = [train_samples[i] for i in shuffled_order(cfg.seed, 1, len(train_samples))]
    batch = batch[: cfg.batch_size]
    blocks = [align(s) for s in batch]
    counts = [sum(q.size for q in s.query_times) for s in batch]
    return batch, chunk_spans(blocks, counts, cfg)


class OpTimer:
    """Per op name, the forward and VJP seconds and minor page faults of
    the nodes appended while it is installed on ``Tape``."""

    def __init__(self):
        self.stats: dict[str, np.ndarray] = {}   # op -> [nodes, fwd s, vjp s, fwd, vjp faults]
        self.mark = (0.0, 0)

    def entry(self, op):
        return self.stats.setdefault(op, np.zeros(5))

    def start(self):
        self.mark = (time.perf_counter(), faults())

    def __enter__(self):
        append = self.original = Tape.append

        def timed_append(tape, op, data, parents, vjp):
            seconds, minflt = time.perf_counter() - self.mark[0], faults() - self.mark[1]
            entry = self.entry(op)
            entry[:2] += (1, seconds)
            entry[3] += minflt
            if vjp is not None:
                vjp = self.timed_vjp(op, vjp)
            out = append(tape, op, data, parents, vjp)
            self.start()
            return out

        Tape.append = timed_append
        return self

    def __exit__(self, *exc):
        Tape.append = self.original

    def timed_vjp(self, op, vjp):
        def timed(g):
            minflt, started = faults(), time.perf_counter()
            out = vjp(g)
            entry = self.entry(op)
            entry[2] += time.perf_counter() - started
            entry[4] += faults() - minflt
            return out
        return timed


def chunk_step(params, block, queries, targets):
    """One forward pass with its loss on a fresh tape: (tape, loss)."""
    tape = Tape()
    loss = build_loss(model_module.forward(tape, params, block, queries), targets)
    return tape, loss


def profile(spec, cfg: TrainConfig, repeats: int) -> dict:
    splits = split_samples(generate(spec), spec)
    params = model_module.ModelParams.init(cfg)
    batch, spans = first_batch_spans(splits["train"], cfg)
    samples = batch[: len(spans[0])]
    block = pad_chunk([align(s) for s in samples])
    queries = [q for s in samples for q in s.query_times]
    targets = np.concatenate([t for s in samples for t in s.query_targets])

    forward_s, backward_s, held = [], [], None
    for rep in range(repeats + 1):
        started = time.perf_counter()
        tape, loss = chunk_step(params, block, queries, targets)
        middle = time.perf_counter()
        tape.backward(loss)
        if rep:
            forward_s.append(middle - started)
            backward_s.append(time.perf_counter() - middle)
        held = tape          # freed once the next forward has run
    nodes = len(held.nodes)

    per_rep = []
    for rep in range(repeats + 1):
        with OpTimer() as timer:
            timer.start()
            tape, loss = chunk_step(params, block, queries, targets)
            tape.backward(loss)
        held = tape
        if rep:
            per_rep.append(timer.stats)
    del held

    def p25_ms(values):
        return float(np.percentile(values, 25)) * 1e3

    ops = {}
    for op in per_rep[0]:
        table = np.array([stats[op] for stats in per_rep])
        ops[op] = {"nodes": int(table[0, 0]), "forward_ms": p25_ms(table[:, 1]),
                   "vjp_ms": p25_ms(table[:, 2]),
                   "forward_faults": float(np.median(table[:, 3])),
                   "vjp_faults": float(np.median(table[:, 4]))}

    serve_s = {True: [], False: []}              # by the tape's grad flag
    for rep in range(repeats + 1):
        sample = splits["test"][rep % len(splits["test"])]
        block_one = align(sample)
        for grad, seconds in serve_s.items():
            started = time.perf_counter()
            model_module.forward(Tape(grad=grad), params, block_one, sample.query_times)
            if rep:
                seconds.append(time.perf_counter() - started)

    return {
        "chunk": {
            "samples": block.samples, "variates": block.n_variates,
            "grid_length": block.grid_length, "queries": int(targets.size), "nodes": nodes,
            "tape_bytes": model_module.tape_bytes(cfg, block.samples, block.n_variates,
                                                  block.grid_length, block.cells.size,
                                                  int(targets.size)),
            "batch_chunks": [len(span) for span in spans],
            "forward_ms": p25_ms(forward_s), "backward_ms": p25_ms(backward_s),
        },
        "ops": dict(sorted(ops.items(), key=lambda kv: -kv[1]["vjp_ms"] - kv[1]["forward_ms"])),
        "serve": {"grad_tape_ms_p50": float(np.median(serve_s[True])) * 1e3,
                  "no_grad_tape_ms_p50": float(np.median(serve_s[False])) * 1e3},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS))
    source.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="data seed (default: the spec's own)")
    parser.add_argument("--variates", type=int, help="variate count (default: the spec's)")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--order", choices=["rule", *ORDERS], default="rule",
                        help="linear attention's association order")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    spec, cfg = data_spec(args.preset, args.workload, args.seed, args.variates)
    if args.order == "rule":
        measured = profile(spec, cfg, args.repeats)
    else:
        rule = model_module._weights_first
        model_module._weights_first = lambda *shape: ORDERS[args.order]
        try:
            measured = profile(spec, cfg, args.repeats)
        finally:
            model_module._weights_first = rule
    doc = {
        "source": {"preset": args.preset} if args.preset else {"workload": args.workload},
        "seed": spec.seed, "variates": spec.n_variates, "repeats": args.repeats,
        "order": args.order, "python": platform.python_version(), "numpy": np.__version__,
        **measured,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
