"""Seeded synthetic irregular-series generation, CSV storage and manifests.

Observation times come from a per-variate Poisson process (exponential
gaps), which produces both uneven spacing within a variate and timestamp
asynchrony across variates. Values are a drawn signal plus Gaussian noise;
queries land strictly beyond the observation window. A variate's gaps are
drawn in one call and summed with ``cumsum``; the samples are bitwise those
of drawing and adding one gap at a time.

Files are plain CSV with full-precision decimal doubles (``repr`` round-
trips exactly), so datasets are inspectable and portable. A JSON manifest
records paths, the generating spec and SHA-256 checksums. The writers
format one sample's rows at a time and write them with one call.

The readers take ``BLOCK_LINES`` lines at a time, so memory holds one
block of text besides the arrays read so far. A block of plain numbers
is parsed with one numpy call, and its column counts, integral ids and
per-stream time order (also against the rows of earlier blocks) are
checked with array operations. A block that fails a check, or holds
anything else (quotes, ``\r``, ``#``, spaces, empty fields, ``nan``),
is read again row by row under the per-line rules, which name the first
offending line or accept the block as they always did. A byte that is
not UTF-8 is reported before any fault on the other lines of its block.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import DataError, ImtsSample, RawSeries

OBS_HEADER = ["series_id", "variate", "time", "value"]
QUERY_HEADER = ["series_id", "variate", "time", "target"]
SPLIT_NAMES = ("train", "val", "test")
DEFAULT_SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a synthetic dataset, reproducible from seed."""

    n_variates: int = 5
    n_samples: int = 800
    window: float = 1.0
    mean_observations: float = 20.0   # expected observations per variate
    mode: str = "independent"         # independent | shared | mixed
    signal: str = "sinusoid"          # sinusoid | damped | trend
    n_components: int = 2
    amplitude_range: tuple = (0.6, 1.4)
    frequency_range: tuple = (0.4, 1.2)   # cycles per window
    phase_range: tuple = (0.0, 2.0 * math.pi)
    damping_range: tuple = (1.0, 3.0)
    trend_knots: int = 3
    noise_std: float = 0.05
    horizon_frac: float = 0.25
    queries_per_variate: int = 2
    seed: int = 0
    split: tuple | None = None        # explicit (train, val, test) counts

    def validate(self):
        if self.n_variates < 1:
            raise DataError("spec: n_variates must be >= 1")
        if self.n_samples < 1:
            raise DataError("spec: n_samples must be >= 1")
        if self.window <= 0:
            raise DataError("spec: window must be positive")
        if self.mean_observations <= 0:
            raise DataError("spec: mean_observations (sampling intensity) must be positive")
        if not 0.0 < self.horizon_frac < 1.0:
            raise DataError("spec: horizon_frac must lie in (0, 1)")
        if self.queries_per_variate < 0:
            raise DataError("spec: queries_per_variate must be >= 0")
        if self.noise_std < 0:
            raise DataError("spec: noise_std must be >= 0")
        if self.mode not in ("independent", "shared", "mixed"):
            raise DataError(f"spec: unknown mode {self.mode!r}")
        if self.signal not in ("sinusoid", "damped", "trend"):
            raise DataError(f"spec: unknown signal family {self.signal!r}")
        if self.split is not None:
            if len(self.split) != 3 or any(c < 0 for c in self.split):
                raise DataError("spec: split must be three non-negative counts")
            if sum(self.split) != self.n_samples:
                raise DataError("spec: split counts must sum to n_samples")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["split"] = list(self.split) if self.split is not None else None
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise DataError(f"spec: unknown keys: {', '.join(unknown)}")
        doc = dict(doc)
        for key in ("amplitude_range", "frequency_range", "phase_range", "damping_range"):
            if key in doc and doc[key] is not None:
                doc[key] = tuple(doc[key])
        if doc.get("split") is not None:
            doc["split"] = tuple(doc["split"])
        return cls(**doc)


PRESETS: dict[str, SynthSpec] = {
    # The standard learnability benchmark: slow sinusoid mixtures, five
    # asynchronous variates, explicit 500/150/150 split.
    "sinusoid-a": SynthSpec(
        n_variates=5, n_samples=800, split=(500, 150, 150), window=1.0,
        mean_observations=20.0, mode="independent", signal="sinusoid",
        n_components=2, amplitude_range=(0.6, 1.4), frequency_range=(0.4, 1.2),
        noise_std=0.05, horizon_frac=0.25, queries_per_variate=2, seed=7,
    ),
    # Small and fast; handy for smoke tests and overfitting checks.
    "sinusoid-tiny": SynthSpec(
        n_variates=2, n_samples=20, window=1.0, mean_observations=8.0,
        mode="independent", signal="sinusoid", n_components=1,
        noise_std=0.02, horizon_frac=0.25, queries_per_variate=2, seed=3,
    ),
    "damped-a": SynthSpec(
        n_variates=4, n_samples=400, window=1.0, mean_observations=16.0,
        mode="mixed", signal="damped", noise_std=0.05, horizon_frac=0.25,
        queries_per_variate=2, seed=11,
    ),
    "trend-a": SynthSpec(
        n_variates=4, n_samples=400, window=1.0, mean_observations=12.0,
        mode="independent", signal="trend", noise_std=0.05, horizon_frac=0.3,
        queries_per_variate=2, seed=13,
    ),
}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _poisson_times(rng, rate: float, span: float) -> np.ndarray:
    """Event times of a Poisson process on (0, span).

    Equal, bit for bit, to drawing exponential gaps one at a time and adding
    them up until the first time at or past ``span``: ``cumsum`` adds in
    order, so it rounds exactly as that loop does. The generator is then
    left where the loop leaves it, after ``count + 1`` draws.
    """
    scale = 1.0 / rate
    start = rng.bit_generator.state
    size = int(rate * span + 4.0 * math.sqrt(rate * span)) + 16   # the mean count plus a margin
    while True:
        gaps = rng.exponential(scale, size)
        gaps[1:] = np.maximum(gaps[1:], np.finfo(np.float64).tiny)   # keep strictly increasing
        times = np.cumsum(gaps)
        count = int(np.searchsorted(times, span))
        rng.bit_generator.state = start
        if count < size:
            break
        size *= 2
    rng.exponential(scale, count + 1)
    return times[:count]


def _draw_signal(rng, spec: SynthSpec):
    """Draw one variate's signal function t -> value."""
    w = spec.window
    if spec.signal == "sinusoid":
        amp = rng.uniform(*spec.amplitude_range, size=spec.n_components)
        freq = rng.uniform(*spec.frequency_range, size=spec.n_components)
        phase = rng.uniform(*spec.phase_range, size=spec.n_components)

        def fn(t):
            t = np.asarray(t, dtype=np.float64)
            return np.sum(
                amp[:, None] * np.sin(2.0 * np.pi * freq[:, None] * t[None, :] / w
                                      + phase[:, None]),
                axis=0,
            )

        return fn
    if spec.signal == "damped":
        amp = rng.uniform(*spec.amplitude_range)
        freq = rng.uniform(*spec.frequency_range)
        phase = rng.uniform(*spec.phase_range)
        decay = rng.uniform(*spec.damping_range)

        def fn(t):
            t = np.asarray(t, dtype=np.float64)
            return amp * np.exp(-decay * t / w) * np.sin(2.0 * np.pi * freq * t / w + phase)

        return fn
    # piecewise-linear trend through random knots
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0, w, size=spec.trend_knots)), [w]])
    levels = rng.uniform(-1.0, 1.0, size=knots.size)

    def fn(t):
        return np.interp(np.asarray(t, dtype=np.float64), knots, levels)

    return fn


def _generate_one(spec: SynthSpec, index: int, attempt: int) -> ImtsSample | None:
    rng = np.random.default_rng([spec.seed, index, attempt])
    obs_span = spec.window * (1.0 - spec.horizon_frac)
    rate = spec.mean_observations / obs_span
    shared_times = _poisson_times(rng, rate, obs_span) if spec.mode in ("shared", "mixed") else None

    series, qtimes, qtargets = [], [], []
    for v in range(spec.n_variates):
        signal = _draw_signal(rng, spec)
        if spec.mode == "shared":
            times = shared_times
        elif spec.mode == "mixed" and v % 2 == 0:
            times = shared_times
        else:
            times = _poisson_times(rng, rate, obs_span)
        values = signal(times) + spec.noise_std * rng.standard_normal(times.size)
        series.append(RawSeries(variate_id=v + 1, times=times, values=values))
        q = np.sort(rng.uniform(obs_span, spec.window, size=spec.queries_per_variate))
        qtimes.append(q)
        qtargets.append(signal(q) + spec.noise_std * rng.standard_normal(q.size))
    if sum(len(s) for s in series) == 0:
        return None
    return ImtsSample(sample_id=index, series=tuple(series),
                      query_times=tuple(qtimes), query_targets=tuple(qtargets))


def generate(spec: SynthSpec) -> list[ImtsSample]:
    """Generate the full sample list, deterministic per seed."""
    spec.validate()
    samples = []
    for index in range(spec.n_samples):
        sample = None
        for attempt in range(8):
            sample = _generate_one(spec, index, attempt)
            if sample is not None:
                break
        if sample is None:
            raise DataError(
                f"spec produced an empty sample at index {index} after retries; "
                "increase mean_observations"
            )
        samples.append(sample)
    return samples


def split_counts(spec: SynthSpec) -> tuple[int, int, int]:
    if spec.split is not None:
        return tuple(spec.split)
    n = spec.n_samples
    train = int(n * DEFAULT_SPLIT_FRACTIONS[0])
    val = int(n * DEFAULT_SPLIT_FRACTIONS[1])
    return train, val, n - train - val


def split_samples(samples: list[ImtsSample], spec: SynthSpec) -> dict[str, list[ImtsSample]]:
    """Deterministic split by sample index; sample ids stay globally unique."""
    train, val, test = split_counts(spec)
    if train + val + test != len(samples):
        raise DataError("split counts do not cover the sample list")
    return {
        "train": samples[:train],
        "val": samples[train : train + val],
        "test": samples[train + val :],
    }


# ---------------------------------------------------------------------------
# CSV + manifest I/O
# ---------------------------------------------------------------------------

# Lines per block when reading a CSV: a block's text and arrays take about
# a megabyte, and its few dozen numpy calls cost well under a millisecond.
BLOCK_LINES = 16384

# The bytes a block may hold to take the array path: digits, signs, points,
# exponent letters, the comma and the newline.
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[np.frombuffer(b"0123456789+-.eE,\n", dtype=np.uint8)] = True
_COMMA, _NEWLINE = ord(","), ord("\n")
# Integers of this magnitude or more need not survive parsing as float64.
_EXACT_INTEGER = 2.0 ** 53


@dataclass(frozen=True)
class Stream:
    """The rows of one (series, variate) in a CSV file, in file order.

    ``values`` holds observation values or query targets; it is None for a
    query stream that lacks a target on some row.
    """

    times: np.ndarray
    values: np.ndarray | None

    def __len__(self) -> int:
        return self.times.size


_NO_ROWS = Stream(times=np.empty(0), values=np.empty(0))


def write_observations(path, samples) -> None:
    """One line per observation, written with one call per sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(OBS_HEADER) + "\n")
        for sample in samples:
            rows = []
            for series in sample.series:
                head = f"{sample.sample_id},{series.variate_id},"
                rows += [f"{head}{t!r},{x!r}\n"
                         for t, x in zip(series.times.tolist(), series.values.tolist())]
            fh.write("".join(rows))


def write_queries(path, samples, with_targets: bool = True) -> None:
    """One line per query, written with one call per sample. A missing
    target is an empty field."""
    header = QUERY_HEADER if with_targets else QUERY_HEADER[:3]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for sample in samples:
            rows = []
            for series, qt, tg in zip(sample.series, sample.query_times, sample.query_targets):
                head = f"{sample.sample_id},{series.variate_id},"
                if not with_targets:
                    rows += [f"{head}{t!r}\n" for t in qt.tolist()]
                elif tg is None:
                    rows += [f"{head}{t!r},\n" for t in qt.tolist()]
                else:
                    rows += [f"{head}{t!r},{x!r}\n" for t, x in zip(qt.tolist(), tg.tolist())]
            fh.write("".join(rows))


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}:{line_no}: not a number: {text!r}")


def _parse_id(text: str, path, line_no: int) -> int:
    """A series or variate id: an integer, also when written as ``16.0``."""
    try:
        return int(text)   # the common case, and cheaper than going through float
    except ValueError:
        value = _parse_float(text, path, line_no)
    if not value.is_integer():   # also false for nan and inf
        raise DataError(f"{path}:{line_no}: not an integer id: {text!r}")
    return int(value)


def _csv_blocks(path):
    """Yield the header row of a UTF-8 CSV file (None for an empty file),
    then (number of its first line, its lines) for each block of at most
    ``BLOCK_LINES`` lines."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            yield next(csv.reader([first])) if first else None
            line_no = 2
            while lines := list(itertools.islice(fh, BLOCK_LINES)):
                yield line_no, lines
                line_no += len(lines)
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text: {err}") from err


def _plain_fields(lines: list[str], ncols: int) -> np.ndarray | None:
    """The block as a (rows, ncols) float array, or None unless every line
    holds ncols non-empty fields made of digits, signs, points and
    exponents, separated by commas."""
    text = "".join(lines)
    if text.endswith("\n"):
        text = text[:-1]
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if not _PLAIN_BYTES[raw].all():
        return None
    # With no "\r", each line but the last ends in the only newline it
    # holds. So when every ncols-th separator is a newline and the count is
    # right, all other separators are commas, ncols - 1 to a line.
    seps = np.flatnonzero((raw == _COMMA) | (raw == _NEWLINE))
    if seps.size != len(lines) * ncols - 1 or not (raw[seps[ncols - 1 :: ncols]] == _NEWLINE).all():
        return None
    if (np.diff(seps, prepend=-1, append=raw.size) < 2).any():   # an empty field
        return None
    try:
        fields = np.fromstring(text.replace("\n", ","), sep=",")
    except (ValueError, DeprecationWarning):   # a token that is not a number
        return None
    if fields.size != seps.size + 1:   # older numpy warns and stops at such a token
        return None
    return fields.reshape(len(lines), ncols)


def _last_time(parts, sid: int, var: int):
    """The time on the last row read so far of (sid, var), or None."""
    chunks = parts.get(sid, {}).get(var)
    return chunks[-1][0][-1] if chunks else None


def _array_groups(lines, ncols: int, parts, observations: bool):
    """The block's rows as (sid, var, times, values) per stream, or None
    when any row needs the per-line rules: a field that is not a plain
    number, an id that is not an exact integer, or an observation time not
    above the stream's previous one."""
    fields = _plain_fields(lines, ncols)
    if fields is None:
        return None
    ids = fields[:, :2]
    if not ((np.abs(ids) < _EXACT_INTEGER).all() and (np.floor(ids) == ids).all()):
        return None
    order = np.lexsort((fields[:, 1], fields[:, 0]))   # stable: file order within a stream
    sid, var, times = fields[order, 0], fields[order, 1], fields[order, 2]
    values = fields[order, 3] if ncols == 4 else None
    first = np.ones(order.size, dtype=bool)
    first[1:] = (sid[1:] != sid[:-1]) | (var[1:] != var[:-1])
    if observations and not (first[1:] | (times[1:] > times[:-1])).all():
        return None
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], order.size)
    groups = []
    for s, v, lo, hi in zip(sid[starts].astype(np.int64).tolist(),
                            var[starts].astype(np.int64).tolist(),
                            starts.tolist(), stops.tolist()):
        if observations:
            last = _last_time(parts, s, v)
            if last is not None and not times[lo] > last:
                return None
        groups.append((s, v, times[lo:hi], None if values is None else values[lo:hi]))
    return groups


def _row_groups(path, first_line: int, lines, ncols: int, parts, observations: bool,
                require_targets: bool):
    """The block's rows as (sid, var, times, values) per stream, parsed line
    by line. Raises ``DataError`` naming the first line that breaks a rule.

    Observations need a value, and their times must rise strictly within
    each stream; a query may leave its target empty.
    """
    rows: dict[tuple[int, int], tuple[list, list]] = {}
    for line_no, row in enumerate(csv.reader(lines), start=first_line):
        if len(row) != ncols:
            raise DataError(f"{path}:{line_no}: expected {ncols} columns, got {len(row)}")
        sid = _parse_id(row[0], path, line_no)
        var = _parse_id(row[1], path, line_no)
        t = _parse_float(row[2], path, line_no)
        value = None
        if ncols == 4 and (observations or row[3] != ""):
            value = _parse_float(row[3], path, line_no)
        if require_targets and value is None:
            raise DataError(f"{path}:{line_no}: missing target")
        times, values = rows.setdefault((sid, var), ([], []))
        if observations:
            last = times[-1] if times else _last_time(parts, sid, var)
            if last is not None and t <= last:
                raise DataError(
                    f"{path}:{line_no}: non-increasing time for series {sid}, variate {var}"
                )
        times.append(t)
        values.append(value)
    return [(sid, var, np.asarray(times),
             None if any(x is None for x in values) else np.asarray(values))
            for (sid, var), (times, values) in rows.items()]


def _read_streams(path, blocks, ncols: int, observations: bool = False,
                  require_targets: bool = False) -> dict[int, dict[int, Stream]]:
    """Read the data lines of ``blocks`` into {series_id: {variate: Stream}}."""
    parts: dict[int, dict[int, list]] = {}
    for first_line, lines in blocks:
        groups = _array_groups(lines, ncols, parts, observations)
        if groups is None:
            groups = _row_groups(path, first_line, lines, ncols, parts, observations,
                                 require_targets)
        for sid, var, times, values in groups:
            parts.setdefault(sid, {}).setdefault(var, []).append((times, values))
    return {sid: {var: _joined(chunks) for var, chunks in streams.items()}
            for sid, streams in parts.items()}


def _joined(chunks) -> Stream:
    """One stream from its (times, values) pieces in file order."""
    if len(chunks) == 1:
        return Stream(*chunks[0])
    values = [x for _, x in chunks]
    return Stream(times=np.concatenate([t for t, _ in chunks]),
                  values=None if any(x is None for x in values) else np.concatenate(values))


def read_observations(path) -> dict[int, dict[int, Stream]]:
    """Parse an observation CSV into {series_id: {variate: Stream}}.

    Rows of one (series, variate) must appear in strictly increasing time
    order; violations are rejected with the offending line number.
    """
    blocks = _csv_blocks(path)
    if next(blocks) != OBS_HEADER:
        raise DataError(f"{path}:1: expected header {','.join(OBS_HEADER)}")
    return _read_streams(path, blocks, ncols=4, observations=True)


def read_queries(path, require_targets: bool) -> dict[int, dict[int, Stream]]:
    """Parse a query CSV into {series_id: {variate: Stream}} of query times
    and targets."""
    blocks = _csv_blocks(path)
    header = next(blocks)
    if header not in (QUERY_HEADER, QUERY_HEADER[:3]):
        raise DataError(f"{path}:1: expected header {','.join(QUERY_HEADER)} (target optional)")
    if require_targets and header != QUERY_HEADER:
        raise DataError(f"{path}: split files need the target column")
    return _read_streams(path, blocks, ncols=len(header), require_targets=require_targets)


def assemble_samples(obs_table, query_table) -> list[ImtsSample]:
    """Join observation and query tables into validated samples.

    Variate ids are 1-based in files; a variate present only in the query
    table becomes an empty observation stream (legal: the pooling stage
    carries an explicit has-observations flag).
    """
    sample_ids = sorted(set(obs_table) | set(query_table))
    samples = []
    for sid in sample_ids:
        obs = obs_table.get(sid, {})
        queries = query_table.get(sid, {})
        n = max(list(obs) + list(queries), default=0)
        if n < 1:
            raise DataError(f"series {sid}: no variates")
        series, qtimes, qtargets = [], [], []
        for var in range(1, n + 1):
            stream = obs.get(var, _NO_ROWS)
            series.append(RawSeries(variate_id=var, times=stream.times, values=stream.values))
            query = queries.get(var, _NO_ROWS)
            qtimes.append(query.times)
            qtargets.append(query.values if len(query) else None)
        samples.append(
            ImtsSample(sample_id=sid, series=tuple(series),
                       query_times=tuple(qtimes), query_targets=tuple(qtargets))
        )
    return samples


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_dataset(spec: SynthSpec, out_dir) -> Path:
    """Generate, split and write a dataset. Returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits = split_samples(generate(spec), spec)
    files: dict[str, dict] = {}
    for name in SPLIT_NAMES:
        obs_name = f"{name}_obs.csv"
        query_name = f"{name}_queries.csv"
        write_observations(out / obs_name, splits[name])
        write_queries(out / query_name, splits[name])
        files[name] = {
            "observations": obs_name,
            "queries": query_name,
            "samples": len(splits[name]),
        }
    checksums = {}
    for entry in files.values():
        for key in ("observations", "queries"):
            checksums[entry[key]] = _sha256(out / entry[key])
    manifest = {
        "format": "imtscast-dataset-1",
        "spec": spec.to_dict(),
        "splits": files,
        "checksums": checksums,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest_path


def read_dataset(manifest_path, splits=SPLIT_NAMES, verify: bool = True) -> dict[str, list[ImtsSample]]:
    """Load the requested splits of a written dataset, verifying checksums."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as err:  # invalid JSON or text encoding
        raise DataError(f"{manifest_path}: not a valid manifest: {err}") from err
    if not isinstance(manifest, dict) or manifest.get("format") != "imtscast-dataset-1":
        raise DataError(f"{manifest_path}: not a dataset manifest")
    if not isinstance(manifest.get("splits"), dict):
        raise DataError(f"{manifest_path}: manifest has no splits")
    if verify and not isinstance(manifest.get("checksums"), dict):
        raise DataError(f"{manifest_path}: manifest has no checksums")
    base = manifest_path.parent
    out = {}
    for name in splits:
        if name not in manifest["splits"]:
            raise DataError(f"{manifest_path}: no split named {name!r}")
        entry = manifest["splits"][name]
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: split {name} is not an object")
        for key in ("observations", "queries", "samples"):
            if key not in entry:
                raise DataError(f"{manifest_path}: split {name} has no {key}")
        for key in ("observations", "queries"):
            rel = entry[key]
            if not isinstance(rel, str):
                raise DataError(f"{manifest_path}: split {name} {key} is not a file name")
            if verify:
                actual = _sha256(base / rel)
                expected = manifest["checksums"].get(rel)
                if actual != expected:
                    raise DataError(f"{base / rel}: checksum mismatch (file modified?)")
        obs = read_observations(base / entry["observations"])
        queries = read_queries(base / entry["queries"], require_targets=True)
        out[name] = assemble_samples(obs, queries)
        if len(out[name]) != entry["samples"]:
            raise DataError(
                f"{manifest_path}: split {name} has {len(out[name])} samples, "
                f"manifest says {entry['samples']}"
            )
    return out
