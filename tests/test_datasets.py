from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imtscast.datasets as datasets
from imtscast.data import DataError, align
from imtscast.datasets import (
    PRESETS,
    SynthSpec,
    assemble_samples,
    generate,
    read_dataset,
    read_observations,
    read_queries,
    split_counts,
    split_samples,
    write_dataset,
    write_observations,
    write_queries,
)

from oracles import (
    poisson_times_loop,
    read_observations_rows,
    read_queries_rows,
    write_observations_rows,
    write_queries_rows,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_WORKLOADS = ("train-sinusoid-a", "train-long-grid", "predict-wide")


def bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


def assert_samples_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.sample_id == w.sample_id
        assert len(g.series) == len(w.series)
        for gs, ws in zip(g.series, w.series):
            assert gs.variate_id == ws.variate_id
            assert bits(gs.times) == bits(ws.times) and bits(gs.values) == bits(ws.values)
        assert [bits(q) for q in g.query_times] == [bits(q) for q in w.query_times]
        assert [None if t is None else bits(t) for t in g.query_targets] == \
            [None if t is None else bits(t) for t in w.query_targets]


def assert_tables_equal(got, rows):
    """A reader's {sid: {var: Stream}} against the row oracle's
    {sid: {var: [(t, x or None), ...]}}, bit for bit."""
    assert got.keys() == rows.keys()
    for sid, streams in rows.items():
        assert got[sid].keys() == streams.keys()
        for var, stream in streams.items():
            times = [t for t, _ in stream]
            values = [x for _, x in stream]
            assert len(got[sid][var]) == len(stream)
            assert bits(got[sid][var].times) == bits(times)
            if any(x is None for x in values):
                assert got[sid][var].values is None
            else:
                assert bits(got[sid][var].values) == bits(values)


class TestGeneration:
    def test_noiseless_known_signal_evaluates_exactly(self):
        spec = SynthSpec(n_variates=1, n_samples=3, noise_std=0.0, n_components=1,
                         amplitude_range=(1.0, 1.0), frequency_range=(1.0, 1.0),
                         phase_range=(0.0, 0.0), window=1.0, mean_observations=25.0,
                         queries_per_variate=3, seed=5)
        for sample in generate(spec):
            series = sample.series[0]
            assert np.array_equal(series.values, np.sin(2 * np.pi * series.times))
            assert np.array_equal(sample.query_targets[0],
                                  np.sin(2 * np.pi * sample.query_times[0]))

    def test_independent_mode_timestamps_never_fully_overlap(self):
        spec = SynthSpec(n_variates=2, n_samples=20, mean_observations=10.0, seed=6)
        for sample in generate(spec):
            lengths = [len(s) for s in sample.series]
            union = len(set().union(*[set(s.times.tolist()) for s in sample.series]))
            assert union == sum(lengths)  # continuous draws collide with prob. zero
            assert align(sample).grid_length == union

    def test_shared_mode_aligns_all_variates(self):
        spec = SynthSpec(n_variates=3, n_samples=5, mode="shared",
                         mean_observations=8.0, seed=7)
        for sample in generate(spec):
            triplet = align(sample)
            assert np.all(triplet.mask == 1.0)

    def test_mixed_mode_shares_even_variates(self):
        spec = SynthSpec(n_variates=4, n_samples=3, mode="mixed",
                         mean_observations=8.0, seed=8)
        for sample in generate(spec):
            assert np.array_equal(sample.series[0].times, sample.series[2].times)

    def test_queries_beyond_last_observation(self):
        spec = SynthSpec(n_variates=3, n_samples=10, mean_observations=12.0, seed=9)
        for sample in generate(spec):
            for series, queries in zip(sample.series, sample.query_times):
                if len(series) and queries.size:
                    assert queries.min() > series.times.max()

    def test_same_seed_is_reproducible(self):
        spec = SynthSpec(n_variates=2, n_samples=4, seed=10)
        a, b = generate(spec), generate(spec)
        for s1, s2 in zip(a, b):
            for r1, r2 in zip(s1.series, s2.series):
                assert np.array_equal(r1.times, r2.times)
                assert np.array_equal(r1.values, r2.values)

    def test_observation_counts_track_intensity(self):
        spec = SynthSpec(n_variates=1, n_samples=400, mean_observations=15.0, seed=11,
                         queries_per_variate=0)
        counts = [len(s.series[0]) for s in generate(spec)]
        # Poisson(15) mean over 400 draws: 3 sigma is ~0.58
        assert abs(np.mean(counts) - 15.0) < 3 * np.sqrt(15.0 / 400)

    def test_signal_families_produce_finite_values(self):
        for signal in ("sinusoid", "damped", "trend"):
            spec = SynthSpec(n_variates=2, n_samples=2, signal=signal, seed=12)
            for sample in generate(spec):
                for series in sample.series:
                    assert np.isfinite(series.values).all()

    def test_invalid_specs_rejected(self):
        with pytest.raises(DataError, match="n_variates"):
            SynthSpec(n_variates=0).validate()
        with pytest.raises(DataError, match="horizon"):
            SynthSpec(horizon_frac=1.5).validate()
        with pytest.raises(DataError, match="intensity"):
            SynthSpec(mean_observations=0).validate()
        with pytest.raises(DataError, match="split"):
            SynthSpec(n_samples=10, split=(5, 3, 5)).validate()


class TestSplits:
    def test_default_fractions(self):
        assert split_counts(SynthSpec(n_samples=100)) == (60, 20, 20)
        assert split_counts(SynthSpec(n_samples=800)) == (480, 160, 160)

    def test_explicit_counts_override(self):
        assert split_counts(PRESETS["sinusoid-a"]) == (500, 150, 150)

    def test_no_sample_in_two_splits(self):
        spec = SynthSpec(n_variates=2, n_samples=25, seed=13)
        splits = split_samples(generate(spec), spec)
        ids = [s.sample_id for name in ("train", "val", "test") for s in splits[name]]
        assert len(ids) == len(set(ids)) == 25

    def test_membership_determined_by_seed_and_count(self):
        spec = SynthSpec(n_variates=2, n_samples=25, seed=14)
        a = split_samples(generate(spec), spec)
        b = split_samples(generate(spec), spec)
        assert [s.sample_id for s in a["val"]] == [s.sample_id for s in b["val"]]


class TestFileRoundTrip:
    def test_round_trip_reproduces_samples(self, tmp_path):
        spec = SynthSpec(n_variates=3, n_samples=100, mean_observations=6.0, seed=15)
        manifest = write_dataset(spec, tmp_path)
        loaded = read_dataset(manifest)
        originals = split_samples(generate(spec), spec)
        for name in ("train", "val", "test"):
            assert len(loaded[name]) == len(originals[name])
            for got, want in zip(loaded[name], originals[name]):
                assert got.sample_id == want.sample_id
                for g, w in zip(got.series, want.series):
                    assert np.array_equal(g.times, w.times)
                    assert np.array_equal(g.values, w.values)
                for g, w in zip(got.query_times, want.query_times):
                    assert np.array_equal(g, w)
                for g, w in zip(got.query_targets, want.query_targets):
                    assert np.array_equal(g, w)

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        spec = SynthSpec(n_variates=2, n_samples=6, seed=16)
        m1 = write_dataset(spec, tmp_path / "a")
        m2 = write_dataset(spec, tmp_path / "b")
        for name in ("train_obs.csv", "train_queries.csv", "test_obs.csv"):
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()

    def test_non_increasing_times_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "series_id,variate,time,value\n"
            "0,1,1.0,0.5\n"
            "0,1,1.0,0.7\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="obs.csv:3"):
            read_observations(path)

    def test_malformed_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "series_id,variate,time,value\n0,1,abc,0.5\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="obs.csv:2"):
            read_observations(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c,d\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_observations(path)

    def test_empty_query_file_is_accepted(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("series_id,variate,time,target\n", encoding="utf-8")
        assert read_queries(path, require_targets=True) == {}

    def test_checksum_mismatch_detected(self, tmp_path):
        spec = SynthSpec(n_variates=2, n_samples=5, seed=17)
        manifest = write_dataset(spec, tmp_path)
        target = tmp_path / "val_obs.csv"
        target.write_text(target.read_text() + "# tampered\n")
        with pytest.raises(DataError, match="checksum"):
            read_dataset(manifest)

    def test_query_only_variate_becomes_empty_stream(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("series_id,variate,time,value\n0,1,1.0,0.5\n", encoding="utf-8")
        q = tmp_path / "q.csv"
        q.write_text("series_id,variate,time,target\n0,2,5.0,1.0\n", encoding="utf-8")
        samples = assemble_samples(read_observations(obs), read_queries(q, True))
        assert samples[0].n_variates == 2
        assert len(samples[0].series[1]) == 0
        assert samples[0].query_times[1].tolist() == [5.0]


def spec_named(name, monkeypatch) -> SynthSpec:
    """A preset, or a benchmark workload's spec at 9 samples."""
    if name in PRESETS:
        return PRESETS[name]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    return replace(bench.WORKLOADS[name].spec, n_samples=9, split=(3, 3, 3))


class TestAgainstRowOracles:
    """Generation, writing and reading against the one-draw-at-a-time,
    one-row-at-a-time forms in ``oracles``."""

    @pytest.mark.parametrize("name", [*PRESETS, *BENCH_WORKLOADS])
    def test_same_samples_bytes_and_tables(self, name, tmp_path, monkeypatch):
        spec = spec_named(name, monkeypatch)
        samples = generate(spec)
        with monkeypatch.context() as patched:
            patched.setattr(datasets, "_poisson_times", poisson_times_loop)
            assert_samples_equal(samples, generate(spec))

        # Every other sample loses its targets; one more keeps them on its
        # first variate only.
        unlabeled = [replace(s, query_targets=()) if i % 2 else s
                     for i, s in enumerate(samples)]
        unlabeled[0] = replace(samples[0], query_targets=(
            samples[0].query_targets[0], *[None] * (samples[0].n_variates - 1)))
        files = {
            "obs": (write_observations, write_observations_rows, (samples,)),
            "queries": (write_queries, write_queries_rows, (samples,)),
            "no_targets": (write_queries, write_queries_rows, (samples, False)),
            "some_targets": (write_queries, write_queries_rows, (unlabeled,)),
        }
        for kind, (write, write_rows, args) in files.items():
            write(tmp_path / f"{kind}.csv", *args)
            write_rows(tmp_path / f"{kind}_rows.csv", *args)
            assert (tmp_path / f"{kind}.csv").read_bytes() == \
                (tmp_path / f"{kind}_rows.csv").read_bytes(), kind

        obs = read_observations(tmp_path / "obs.csv")
        assert_tables_equal(obs, read_observations_rows(tmp_path / "obs.csv"))
        for kind in ("queries", "no_targets", "some_targets"):
            path = tmp_path / f"{kind}.csv"
            assert_tables_equal(read_queries(path, False), read_queries_rows(path, False))
        queries = read_queries(tmp_path / "queries.csv", True)
        assert_samples_equal(assemble_samples(obs, queries), samples)
        assert_samples_equal(
            assemble_samples(obs, read_queries(tmp_path / "some_targets.csv", False)), unlabeled)

    def test_generator_ends_where_the_loop_ends(self):
        for rate in (0.5, 26.7, 800.0):
            fast, loop = np.random.default_rng(1), np.random.default_rng(1)
            for _ in range(20):
                assert bits(datasets._poisson_times(fast, rate, 0.75)) == \
                    bits(poisson_times_loop(loop, rate, 0.75))
            assert fast.bit_generator.state == loop.bit_generator.state


# Finite doubles, with the edge values written most often first.
DOUBLES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0]) | st.floats(
    allow_nan=False, allow_infinity=False)
FAULTS = ("blank_line", "crlf", "quoted", "hash", "nan_value", "inf_value", "fractional_id",
          "nan_id", "extra_column", "missing_column", "repeated_time", "not_utf8")


@st.composite
def csv_files(draw, observations: bool):
    """(file bytes, block size, require_targets): a valid observation or
    query file with interleaved streams, or one with a single fault."""
    keys = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 4)),
                         min_size=1, max_size=4, unique=True))
    streams = []
    for sid, var in keys:
        if observations:
            times = sorted(set(draw(st.lists(DOUBLES, min_size=1, max_size=6))))
        else:   # query times need neither order nor uniqueness
            times = draw(st.lists(DOUBLES, min_size=1, max_size=6))
        values = draw(st.lists(DOUBLES, min_size=len(times), max_size=len(times)))
        streams.append([(sid, var, t, x) for t, x in zip(times, values)])
    order = draw(st.permutations([i for i, rows in enumerate(streams) for _ in rows]))
    pending = [iter(rows) for rows in streams]
    ids_as_floats = draw(st.booleans())
    columns = 4 if observations else draw(st.sampled_from([3, 4]))
    lines = []
    for index in order:
        sid, var, t, x = next(pending[index])
        fields = [f"{sid}.0" if ids_as_floats else str(sid), str(var), repr(t), repr(x)]
        if not observations and columns == 4 and draw(st.integers(0, 4)) == 0:
            fields[3] = ""   # a missing target
        lines.append(",".join(fields[:columns]))
    header = ",".join((datasets.OBS_HEADER if observations else datasets.QUERY_HEADER)[:columns])

    fault = draw(st.sampled_from((None, *FAULTS)))
    at = draw(st.integers(0, len(lines) - 1))
    fields = lines[at].split(",")
    if fault == "blank_line":
        lines.insert(at, "")
    elif fault == "quoted":
        column = draw(st.integers(0, columns - 1))
        fields[column] = f'"{fields[column]}"'
    elif fault == "hash":
        fields[0] = "#" + fields[0]
    elif fault in ("nan_value", "inf_value"):
        fields[draw(st.integers(2, columns - 1))] = "nan" if fault == "nan_value" else "-inf"
    elif fault in ("fractional_id", "nan_id"):
        fields[draw(st.integers(0, 1))] = "16.5" if fault == "fractional_id" else "nan"
    elif fault == "extra_column":
        fields.append("1.0")
    elif fault == "missing_column":
        fields.pop()
    elif fault == "repeated_time":
        lines.insert(at + 1, lines[at])
    if fault in ("quoted", "hash", "nan_value", "inf_value", "fractional_id", "nan_id",
                 "extra_column", "missing_column"):
        lines[at] = ",".join(fields)
    newline = "\r\n" if fault == "crlf" else "\n"
    text = newline.join([header, *lines]) + (newline if draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if fault == "not_utf8":
        data = data.replace(lines[at].encode("utf-8"), lines[at].encode("utf-8") + b"\xff", 1)
    return data, draw(st.integers(1, 8)), draw(st.booleans())


def outcome(read, path):
    try:
        return read(path)
    except DataError as err:
        return str(err)


class TestReaderAgreement:
    """The block reader and the row oracle return the same table, or raise
    the same ``DataError`` text, on valid files and on files with a fault."""

    def check(self, data, block_lines, read, read_rows, path):
        path.write_bytes(data)
        expected = outcome(read_rows, path)
        with mock.patch.object(datasets, "BLOCK_LINES", block_lines):
            got = outcome(read, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert_tables_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(case=csv_files(observations=True))
    def test_observation_files(self, tmp_path_factory, case):
        data, block_lines, _ = case
        self.check(data, block_lines, read_observations, read_observations_rows,
                   tmp_path_factory.getbasetemp() / "obs.csv")

    @settings(max_examples=300, deadline=None)
    @given(case=csv_files(observations=False))
    def test_query_files(self, tmp_path_factory, case):
        data, block_lines, require_targets = case
        self.check(data, block_lines,
                   lambda path: read_queries(path, require_targets),
                   lambda path: read_queries_rows(path, require_targets),
                   tmp_path_factory.getbasetemp() / "queries.csv")

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    def test_stream_across_a_block_boundary(self, tmp_path, block_lines):
        path = tmp_path / "obs.csv"
        path.write_text("series_id,variate,time,value\n"
                        "16,1,0.5,1.0\n16.0,1,0.75,-0.0\n16,1,1.0,5e-324\n16,2,0.1,1e308",
                        encoding="utf-8")
        self.check(path.read_bytes(), block_lines, read_observations,
                   read_observations_rows, path)
        with mock.patch.object(datasets, "BLOCK_LINES", block_lines):
            assert read_observations(path)[16][1].times.tolist() == [0.5, 0.75, 1.0]

    def test_repeated_time_across_a_block_boundary_names_its_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("series_id,variate,time,value\n"
                        "0,1,1.0,0.5\n0,2,1.0,0.5\n0,1,1.0,0.7\n", encoding="utf-8")
        with mock.patch.object(datasets, "BLOCK_LINES", 2):
            with pytest.raises(DataError, match=r"obs\.csv:4: non-increasing time"):
                read_observations(path)

    def test_columns_that_even_out_over_a_block_name_the_first_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("series_id,variate,time,value\n"
                        "0,1,1.0,0.5,9\n0,1,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"obs\.csv:2: expected 4 columns, got 5"):
            read_observations(path)
