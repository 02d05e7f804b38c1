import tracemalloc

import numpy as np
import pytest

from imtscast.config import TrainConfig
from imtscast.data import ImtsSample, RawSeries, align, pad_chunk
from imtscast.tape import flat_views


def random_sample(rng, max_variates=6, max_obs=12, allow_empty_variates=True) -> ImtsSample:
    """A random irregular sample with distinct per-variate times."""
    n = int(rng.integers(1, max_variates + 1))
    series, qtimes, qtargets = [], [], []
    total = 0
    for v in range(n):
        lo = 0 if allow_empty_variates and n > 1 else 1
        count = int(rng.integers(lo, max_obs + 1))
        # Sort a uniform draw; duplicates within a variate are measure-zero.
        times = np.sort(rng.uniform(0.0, 10.0, size=count))
        values = rng.standard_normal(count)
        series.append(RawSeries(variate_id=v + 1, times=times, values=values))
        total += count
        nq = int(rng.integers(0, 3))
        qtimes.append(np.sort(rng.uniform(10.0, 12.0, size=nq)))
        qtargets.append(rng.standard_normal(nq))
    if total == 0:
        series[0] = RawSeries(variate_id=1, times=np.array([1.0]), values=np.array([0.5]))
    return ImtsSample(sample_id=int(rng.integers(0, 10_000)), series=tuple(series),
                      query_times=tuple(qtimes), query_targets=tuple(qtargets))


def chunk_of(samples):
    """``forward``'s inputs for a chunk of samples: their padded block and
    their query arrays in its row order."""
    return (pad_chunk([align(s) for s in samples]),
            [q for s in samples for q in s.query_times])


def bind(tape, **arrays):
    """Register ``arrays`` on ``tape`` as views of one new flat vector."""
    return tape.param_vector(*flat_views(arrays))


@pytest.fixture
def tiny_config() -> TrainConfig:
    return TrainConfig(hidden=16, heads=2, rff_dim=16, kernels=4,
                       conv_channels=4, time_dim=8, blocks=2, seed=0)


def _captured_arrays(obj, out: list) -> None:
    """Collect the arrays a VJP closure reaches through its cells, tuples
    and lists, and the closures it captures in turn."""
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _captured_arrays(item, out)
    elif getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            try:
                _captured_arrays(cell.cell_contents, out)
            except ValueError:   # a cell not yet filled
                pass


def retained_bytes(tape) -> int:
    """Bytes that the VJP closures of ``tape`` keep alive until backward.

    Each captured array counts by the buffer that owns its memory, once
    however many closures (or views) reach it.
    """
    owners = {}
    for _parents, vjp in tape.nodes:
        if vjp is None:
            continue
        arrays: list = []
        _captured_arrays(vjp, arrays)
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners[id(arr)] = arr
    return sum(arr.nbytes for arr in owners.values())


def transient_bytes(fn):
    """Run ``fn()`` under tracemalloc; return its result and the bytes of
    the traced peak above what was still allocated when it returned.

    That is the largest total of the temporaries ``fn`` made and freed on
    top of what it left behind: for a forward, above what its tape keeps;
    for a backward, above the gradients it returns. numpy reports its
    array buffers to tracemalloc, so they are counted.
    """
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current
