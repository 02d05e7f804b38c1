"""Seeded synthetic irregular-series generation, CSV storage and manifests.

Observation times come from a per-variate Poisson process (exponential
gaps), which produces both uneven spacing within a variate and timestamp
asynchrony across variates. Values are a drawn signal plus Gaussian noise;
queries land strictly beyond the observation window.

Files are plain CSV with full-precision decimal doubles (``repr`` round-
trips exactly), so datasets are inspectable and portable. A JSON manifest
records paths, the generating spec and SHA-256 checksums.
"""

from __future__ import annotations

import csv
import hashlib
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
    """Event times of a Poisson process on (0, span)."""
    tiny = np.finfo(np.float64).tiny
    times = []
    t = rng.exponential(1.0 / rate)
    while t < span:
        times.append(t)
        t += max(rng.exponential(1.0 / rate), tiny)  # keep strictly increasing
    return np.asarray(times)


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

def _fmt(x: float) -> str:
    return repr(float(x))


def write_observations(path, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OBS_HEADER)
        for sample in samples:
            for series in sample.series:
                for t, x in zip(series.times, series.values):
                    writer.writerow([sample.sample_id, series.variate_id, _fmt(t), _fmt(x)])


def write_queries(path, samples, with_targets: bool = True) -> None:
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
    """A series or variate id: an integer, also when written as ``16.0``."""
    try:
        return int(text)   # the common case, and cheaper than going through float
    except ValueError:
        value = _parse_float(text, path, line_no)
    if not value.is_integer():   # also false for nan and inf
        raise DataError(f"{path}:{line_no}: not an integer id: {text!r}")
    return int(value)


def _csv_rows(path):
    """Yield (line number, row) for every row of a UTF-8 CSV file, header first."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from enumerate(csv.reader(fh), start=1)
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text: {err}") from err


def read_observations(path) -> dict[int, dict[int, list]]:
    """Parse an observation CSV into {series_id: {variate: [(t, x), ...]}}.

    Rows of one (series, variate) must appear in strictly increasing time
    order; violations are rejected with the offending line number.
    """
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


def read_queries(path, require_targets: bool) -> dict[int, dict[int, list]]:
    """Parse a query CSV into {series_id: {variate: [(t, target|None), ...]}}."""
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
            stream = obs.get(var, [])
            series.append(
                RawSeries(
                    variate_id=var,
                    times=np.asarray([t for t, _ in stream]),
                    values=np.asarray([x for _, x in stream]),
                )
            )
            qrows = queries.get(var, [])
            qtimes.append(np.asarray([t for t, _ in qrows]))
            targets = [tg for _, tg in qrows]
            qtargets.append(None if any(tg is None for tg in targets) or not targets
                            else np.asarray(targets))
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
