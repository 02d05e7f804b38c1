import csv
import dataclasses
import hashlib
import json
import re

import pytest

import imtscast.datasets as datasets_module
from imtscast.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, MODEL_FLAGS, main
from imtscast.config import RETIRED_KEYS, TrainConfig
from imtscast.data import align
from imtscast.datasets import (
    PRESETS,
    assemble_samples,
    read_observations,
    read_queries,
    write_dataset,
)
from imtscast.model import ModelParams, forward
from imtscast.tape import Tape
from imtscast.train import chunk_spans

TINY_FLAGS = ["--hidden", "8", "--heads", "2", "--rff-dim", "8", "--kernels", "2",
              "--conv-channels", "2", "--time-dim", "4"]


class TestPredict:
    def test_float_series_ids_predict_like_integer_ids(self, tmp_path):
        data = tmp_path / "data"
        write_dataset(PRESETS["sinusoid-tiny"], data)
        checkpoint = tmp_path / "checkpoint.json"
        ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                     conv_channels=2, time_dim=4)).save(checkpoint)
        with open(data / "test_queries.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        as_float = tmp_path / "queries_float.csv"
        with open(as_float, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([f"{row[0]}.0", *row[1:]] for row in rows)

        outputs = []
        for queries in (data / "test_queries.csv", as_float):
            out = tmp_path / f"predictions_{queries.stem}.csv"
            code = main(["predict", "--checkpoint", str(checkpoint),
                         "--observations", str(data / "test_obs.csv"),
                         "--queries", str(queries), "--out", str(out)])
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        with open(tmp_path / "predictions_test_queries.csv", encoding="utf-8",
                  newline="") as fh:
            predicted = list(csv.reader(fh))[1:]
        assert [row[:3] for row in predicted] == [row[:3] for row in rows]


    def test_chunked_predictions_match_per_sample_forwards(self, tmp_path):
        # ``predict`` runs the same chunked loop as ``eval``; every value in
        # the CSV agrees with its sample's forward on its own to 1e-12 relative.
        data, checkpoint = tiny_run(tmp_path)
        out = tmp_path / "predictions.csv"
        assert main(["predict", "--checkpoint", str(checkpoint),
                     "--observations", str(data / "test_obs.csv"),
                     "--queries", str(data / "test_queries.csv"), "--out", str(out)]) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["series_id", "variate", "time", "prediction"]

        params = ModelParams.load(checkpoint)
        samples = assemble_samples(read_observations(data / "test_obs.csv"),
                                   read_queries(data / "test_queries.csv", require_targets=False))
        counts = [sum(q.size for q in s.query_times) for s in samples]
        spans = chunk_spans([align(s) for s in samples], counts, params.cfg)
        assert any(len(span) > 1 for span in spans)
        want = []
        for sample in samples:
            res = forward(Tape(grad=False), params, align(sample), sample.query_times)
            for var, (times, preds) in enumerate(zip(sample.query_times, res.per_variate()), 1):
                want += [(sample.sample_id, var, t, value) for t, value in zip(times, preds)]
        assert len(rows) == len(want) > 0
        scale = max(abs(value) for *_key, value in want)
        for row, (sid, var, t, value) in zip(rows, want):
            assert (int(row[0]), int(row[1]), float(row[2])) == (sid, var, t)
            assert abs(float(row[3]) - value) <= 1e-12 * scale

    def test_non_finite_forward_exits_3(self, tmp_path, capsys):
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        # A zero kernel bandwidth makes the pooling weights 0/0.
        doc["params"]["pool.log_alpha"]["data"] = [-1e4] * 2
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["predict", "--checkpoint", str(checkpoint),
                     "--observations", str(data / "test_obs.csv"),
                     "--queries", str(data / "test_queries.csv"),
                     "--out", str(tmp_path / "predictions.csv")]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "error: kernel_weights: produced non-finite values")

    def test_bench_subcommand_is_gone(self, capsys):
        assert main(["bench"]) == EXIT_USAGE
        assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_predict_on_times_whose_activations_overflow_exits_3(tmp_path, capsys):
    # Times near 1e300 keep every node finite up to the first layernorm,
    # whose row variances overflow.
    checkpoint = tmp_path / "checkpoint.json"
    ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                 conv_channels=2, time_dim=4)).save(checkpoint)
    (tmp_path / "obs.csv").write_text("series_id,variate,time,value\n1,1,1e300,0.5\n"
                                      "1,1,1.1e300,-0.25\n1,2,1.05e300,1.0\n")
    (tmp_path / "queries.csv").write_text("series_id,variate,time\n1,1,1.2e300\n"
                                          "1,2,1.3e300\n")
    assert main(["predict", "--checkpoint", str(checkpoint),
                 "--observations", str(tmp_path / "obs.csv"),
                 "--queries", str(tmp_path / "queries.csv"),
                 "--out", str(tmp_path / "predictions.csv")]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("error: layernorm: produced non-finite values")


@pytest.mark.parametrize("command", ["predict", "eval", "inspect"])
def test_a_numeric_failure_ends_in_one_error_line(tmp_path, capsys, command):
    # Huge head weights overflow the head's second matmul. numpy's overflow
    # warning would only repeat the error, so every command prints the one line.
    data, checkpoint = tiny_run(tmp_path)
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    doc["params"]["head.w2"]["data"] = [1.7e308] * len(doc["params"]["head.w2"]["data"])
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    if command == "predict":
        inputs = ["--observations", str(data / "test_obs.csv"),
                  "--queries", str(data / "test_queries.csv")]
    else:
        inputs = ["--data", str(data / "manifest.json")]
    assert main([command, "--checkpoint", str(checkpoint), *inputs,
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: matmul: produced non-finite values\n"


def test_narrow_kernels_train_with_finite_gradients(tmp_path, caplog):
    # At 1000 kernels most pooling denominators underflow to subnormals,
    # below the floor at which they count as no support; no step is skipped
    # and no RuntimeWarning (an error in this suite) is emitted.
    data = tmp_path / "data"
    assert main(["gen", "--preset", "sinusoid-tiny", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data / "manifest.json"), "--max-epochs", "1",
                 "--kernels", "1000", "--out", str(tmp_path / "run")]) == EXIT_OK
    assert "non-finite gradient" not in caplog.text


class TestEndToEnd:
    def test_gen_train_eval_predict_inspect(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--preset", "sinusoid-tiny", "--out", str(data)]) == EXIT_OK
        manifest = data / "manifest.json"
        assert manifest.is_file()
        assert main(["train", "--data", str(manifest), "--max-epochs", "2",
                     "--out", str(run)]) == EXIT_OK
        checkpoint = run / "checkpoint.json"
        with open(run / "history.csv", encoding="utf-8", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2
        ModelParams.load(checkpoint)

        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(manifest),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK
        with open(tmp_path / "eval" / "eval_test.csv", encoding="utf-8", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == ["split", "mse", "mae"] and float(row[1]) > 0

        predictions = tmp_path / "predictions.csv"
        assert main(["predict", "--checkpoint", str(checkpoint),
                     "--observations", str(data / "test_obs.csv"),
                     "--queries", str(data / "test_queries.csv"),
                     "--out", str(predictions)]) == EXIT_OK
        with open(data / "test_queries.csv", encoding="utf-8", newline="") as fh:
            queries = list(csv.reader(fh))[1:]
        with open(predictions, encoding="utf-8", newline="") as fh:
            predicted = list(csv.reader(fh))[1:]
        assert len(predicted) == len(queries) > 0

        maps = tmp_path / "maps"
        assert main(["inspect", "--checkpoint", str(checkpoint), "--data", str(manifest),
                     "--out", str(maps)]) == EXIT_OK
        assert (maps / "attention_block0_head0.csv").is_file()

    def test_unknown_preset_exits_2(self, tmp_path):
        assert main(["gen", "--preset", "no-such-preset", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_checkpoint_exits_2(self, tmp_path):
        data = tmp_path / "data"
        write_dataset(PRESETS["sinusoid-tiny"], data)
        assert main(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                     "--data", str(data / "manifest.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("damage", ["truncated", "no_config", "wrong_shape", "huge_config"])
    def test_malformed_checkpoint_exits_2(self, tmp_path, damage):
        data = tmp_path / "data"
        write_dataset(PRESETS["sinusoid-tiny"], data)
        checkpoint = tmp_path / "checkpoint.json"
        damage_checkpoint(checkpoint, damage)
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--data", str(data / "manifest.json")]) == EXIT_USAGE


def damage_checkpoint(path, damage):
    """Write a small model's checkpoint to ``path``, then break it."""
    ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                 conv_channels=2, time_dim=4)).save(path)
    text = path.read_text(encoding="utf-8")
    if damage == "truncated":
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        return
    doc = json.loads(text)
    if damage == "no_config":
        del doc["config"]
    elif damage == "wrong_shape":
        doc["params"]["head.w2"] = {"shape": [4, 4], "data": [0.0] * 16}
    elif damage == "huge_config":
        # Its d x d weights alone would take 8 TiB: refused without allocating them.
        doc["config"].update(hidden=1048576, heads=1)
    path.write_text(json.dumps(doc), encoding="utf-8")


def tiny_run(tmp_path):
    """A written sinusoid-tiny dataset and a small model's checkpoint."""
    data = tmp_path / "data"
    write_dataset(PRESETS["sinusoid-tiny"], data)
    checkpoint = tmp_path / "checkpoint.json"
    ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                 conv_channels=2, time_dim=4)).save(checkpoint)
    return data, checkpoint


def replace_first_series_id(path, new_id):
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    first = ",".join([new_id(first.split(",")[0])] + first.split(",")[1:])
    path.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")


class TestMalformedInput:
    @pytest.mark.parametrize("case", [
        "nan_id", "fractional_id", "manifest_not_json", "manifest_without_splits",
        "manifest_without_samples", "manifest_without_queries", "manifest_without_checksums",
        "directory_as_observations", "csv_not_utf8", "config_model_not_an_object",
        "manifest_observations_not_a_string", "manifest_queries_not_a_string",
        "variate_0_in_obs", "variate_-3_in_queries", "variate_id_gap", "nan_target",
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, case):
        data, checkpoint = tiny_run(tmp_path)
        manifest, observations = data / "manifest.json", data / "test_obs.csv"
        if case == "nan_id":
            replace_first_series_id(observations, lambda sid: "nan")
        elif case == "fractional_id":
            # Truncating 16.5 would silently merge the row into series 16.
            replace_first_series_id(observations, lambda sid: sid + ".5")
        elif case == "manifest_not_json":
            manifest.write_text("{not json", encoding="utf-8")
        elif case == "manifest_without_splits":
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            del doc["splits"]
            manifest.write_text(json.dumps(doc), encoding="utf-8")
        elif case == "manifest_without_checksums":
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            del doc["checksums"]
            manifest.write_text(json.dumps(doc), encoding="utf-8")
        elif case.startswith("manifest_without_"):
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            for entry in doc["splits"].values():
                del entry[case.removeprefix("manifest_without_")]
            manifest.write_text(json.dumps(doc), encoding="utf-8")
        elif case.endswith("_not_a_string"):
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            key = case.removeprefix("manifest_").removesuffix("_not_a_string")
            for entry in doc["splits"].values():
                entry[key] = 5
            manifest.write_text(json.dumps(doc), encoding="utf-8")
        elif case == "directory_as_observations":
            observations = data
        elif case == "csv_not_utf8":
            observations.write_bytes(b"series_id,variate,time,value\n16,1,0.5,\xff\xfe\n")
        elif case == "variate_id_gap":
            # Before, the gap filled with empty variates: a 50,000-variate sample.
            path = data / "test_obs.csv"
            header, first, *rest = path.read_text(encoding="utf-8").splitlines()
            sid, _var, *fields = first.split(",")
            path.write_text("\n".join([header, ",".join([sid, "50000", *fields]), *rest]) + "\n",
                            encoding="utf-8")
        elif case == "nan_target":
            # float() parses "nan", so the reader passes it on to the sample.
            queries = data / "test_queries.csv"
            header, first, *rest = queries.read_text(encoding="utf-8").splitlines()
            sid, variate, *_ = first.split(",")
            queries.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",nan", *rest])
                               + "\n", encoding="utf-8")
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            doc["checksums"]["test_queries.csv"] = hashlib.sha256(queries.read_bytes()).hexdigest()
            manifest.write_text(json.dumps(doc), encoding="utf-8")
        elif case.startswith("variate_"):
            # Rows with such ids used to be dropped: exit 0, no prediction for them.
            _, variate, _, table = case.split("_")
            path = data / f"test_{table}.csv"
            header, first, *rest = path.read_text(encoding="utf-8").splitlines()
            sid, _var, *fields = first.split(",")
            path.write_text("\n".join([header, ",".join([sid, variate, *fields]), *rest]) + "\n",
                            encoding="utf-8")
        if case == "config_model_not_an_object":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"model": [1]}), encoding="utf-8")
            argv = ["train", "--config", str(config), "--data", str(manifest),
                    "--out", str(tmp_path / "run")]
        elif case.startswith("manifest") or case == "nan_target":
            argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(manifest)]
        else:
            argv = ["predict", "--checkpoint", str(checkpoint),
                    "--observations", str(observations),
                    "--queries", str(data / "test_queries.csv"),
                    "--out", str(tmp_path / "predictions.csv")]
        assert main(argv) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        if case.endswith("_id"):
            assert ":2: not an integer id" in errors[0]
        if case.endswith("_not_a_string"):
            assert str(manifest) in errors[0] and key in errors[0]
        if case == "nan_target":
            assert errors[0].endswith(f"variate {variate}: non-finite query target"), errors
        if case == "variate_id_gap":
            assert errors[0] == f"error: series {sid}: no row mentions variate 3, but ids " \
                "run to 50000 (variate ids are 1..N without gaps)"
        elif case.startswith("variate_"):
            assert errors[0] == f"error: series {sid}: variate {variate} is below 1 " \
                "(variate ids start at 1)"


class TestConfigValues:
    # A value of the wrong type, a non-finite learning rate, a negative seed,
    # a shape the model cannot build, an unknown key or a retired key with
    # another value than the model's (a truthy "no" for use_preconv, a 0 for
    # use_pool_gate) is a usage error, caught before any training.
    @pytest.mark.parametrize("key, config, flags", [
        ("hidden", {"model": {"hidden": "32"}}, []),
        ("hidden", {"model": {"hidden": 32.0}}, []),
        ("kernels", {"model": {"kernels": 4.5}}, []),
        ("learning_rate", {"model": {"learning_rate": "0.1"}}, []),
        ("seed", {"seed": "x"}, []),
        ("use_preconv", {"model": {"use_preconv": "no"}}, []),
        ("use_pool_gate", {"model": {"use_pool_gate": 0}}, []),
        ("blocks", {"model": {"blocks": True}}, []),
        ("learning_rate", {}, ["--lr", "nan"]),
        ("learning_rate", {}, ["--lr", "inf"]),
        ("seed", {}, ["--seed", "-1"]),
        ("kernels", {"model": {"kernels": 1}}, []),
        ("conv_channels", {"model": {"conv_channels": 0}}, []),
        ("time_dim", {"model": {"time_dim": 2}}, []),
        ("hidden", {"model": {"hidden": 7, "heads": 1}}, []),
        ("heads", {"model": {"heads": 3}}, []),
        ("rff_dim", {"model": {"rff_dim": 9}}, []),
        ("blocks", {"model": {"blocks": 0}}, []),
        ("batch_size", {"model": {"batch_size": 0}}, []),
        ("max_epochs", {}, ["--max-epochs", "0"]),
        ("patience", {"model": {"patience": 0}}, []),
        ("dropout", {"model": {"dropout": 0.1}}, []),
        # 9,895,641,350,268 parameters: refused before anything is allocated.
        ("hidden", {}, ["--hidden", "1048576", "--heads", "1"]),
        ("seed", {"seed": 5, "model": {"seed": 3}}, []),
        # A path that is not a string ended in open()'s TypeError traceback.
        ("data.manifest", {"data": {"manifest": 5}}, []),
        ("data.manifest", {"data": {"manifest": ["a"]}}, []),
        ("run.out_dir", {"run": {"out_dir": 5}}, []),
    ], ids=["hidden_string", "hidden_float", "kernels_fraction", "lr_string", "seed_string",
            "preconv_string", "pool_gate_int", "blocks_bool", "lr_nan", "lr_inf",
            "seed_negative", "kernels_below_2", "conv_channels_zero", "time_dim_below_3",
            "hidden_odd", "heads_not_dividing_hidden", "rff_dim_odd", "blocks_zero",
            "batch_size_zero", "max_epochs_zero", "patience_zero", "unknown_model_key",
            "huge_hidden", "seeds_disagree", "manifest_int", "manifest_list", "out_dir_int"])
    def test_train_exits_2_with_one_error_line(self, tmp_path, capsys, key, config, flags):
        data, _checkpoint = tiny_run(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path), "--max-epochs", "1", *flags,
                     "--data", str(data / "manifest.json"),
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert key in errors[0]
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("hidden", "8"), ("hidden", 8.0), ("kernels", 2.5), ("learning_rate", "0.1"),
        ("learning_rate", float("nan")), ("seed", "x"), ("use_preconv", "no"),
    ])
    def test_checkpoint_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["config"][key] = value
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--data", str(data / "manifest.json")]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert "bad checkpoint config" in errors[0] and key in errors[0]

    @pytest.mark.parametrize("config", [[], [["kernels", 8], ["hidden", 32]], "kernels", None],
                             ids=["empty_list", "pair_list", "string", "null"])
    def test_a_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, config):
        # An empty list loaded as the default config and a list of pairs as
        # a dict, so eval exited 0; a string or null gave dict()'s message.
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["config"] = config
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--data", str(data / "manifest.json")]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert errors == [f"error: {checkpoint}: bad checkpoint config: not a JSON object"]


class TestCheckpointFormat:
    def test_a_checkpoint_with_rff_seed_predicts_bitwise_like_one_without(self, tmp_path):
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        assert "rff_seed" not in doc
        # The older layout: the seed of the feature draws after the config.
        old = {"format": doc["format"], "config": doc["config"],
               "rff_seed": doc["config"]["seed"], "params": doc["params"],
               "buffers": doc["buffers"]}
        old_path = tmp_path / "old_checkpoint.json"
        old_path.write_text(json.dumps(old, indent=1) + "\n", encoding="utf-8")
        outputs = []
        for path in (checkpoint, old_path):
            out = tmp_path / f"predictions_{path.stem}.csv"
            assert main(["predict", "--checkpoint", str(path),
                         "--observations", str(data / "test_obs.csv"),
                         "--queries", str(data / "test_queries.csv"),
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        resaved = tmp_path / "resaved.json"
        ModelParams.load(old_path).save(resaved)
        assert resaved.read_bytes() == checkpoint.read_bytes()


class TestRetiredCheckpointFormat:
    def run_retired(self, tmp_path, capsys, command, fmt, retire):
        """Exit code and stderr lines of ``command`` on a tiny checkpoint
        relabelled ``fmt``, its document changed by ``retire``."""
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["format"] = fmt
        retire(doc)
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        argv = {
            "eval": ["--data", str(data / "manifest.json")],
            "predict": ["--observations", str(data / "test_obs.csv"),
                        "--queries", str(data / "test_queries.csv"),
                        "--out", str(tmp_path / "predictions.csv")],
            "inspect": ["--data", str(data / "manifest.json"), "--out", str(tmp_path / "maps")],
        }[command]
        code = main([command, "--checkpoint", str(checkpoint), *argv])
        assert not (tmp_path / "predictions.csv").exists() and not (tmp_path / "maps").exists()
        return code, capsys.readouterr().err.splitlines()

    @staticmethod
    def cos_sin_feature_map(doc):
        # The same arrays plus a phase draw per block, which the cos/sin
        # feature map added to its projection.
        doc["buffers"]["blocks.0.phase"] = {"shape": [1, 4], "data": [0.5] * 4}

    @staticmethod
    def separate_frequencies(doc):
        # At time_dim 4: one linear column, one sin column and two cos
        # columns, each with its own frequency.
        params = doc["params"]
        for name in ("te.w_s", "te.b_s", "te.w_f", "te.b_f"):
            del params[name]
        for name, width in [("te.w_s", 1), ("te.b_s", 1), ("te.w_p", 1), ("te.b_p", 1),
                            ("te.w_c", 2), ("te.b_c", 2)]:
            params[name] = {"shape": [1, width], "data": [0.5] * width}

    @staticmethod
    def output_projection(doc):
        # The current arrays plus the (d, d) projection the head read.
        doc["params"]["out.w"] = {"shape": [8, 8], "data": [0.5] * 64}

    @staticmethod
    def pool_gate(doc):
        # The current arrays plus the gate on the two kernel summaries.
        doc["params"]["pool.gate"] = {"shape": [1, 2], "data": [0.0] * 2}

    @pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
    @pytest.mark.parametrize("fmt, retire, phrases", [
        ("imtscast-checkpoint-1", cos_sin_feature_map, ["cos/sin random-feature map"]),
        ("imtscast-checkpoint-2", separate_frequencies,
         ["separate frequencies", "share one frequency"]),
        ("imtscast-checkpoint-3", output_projection, ["(d, d) output projection"]),
        ("imtscast-checkpoint-4", pool_gate, ["sigmoid gate", "pool.gate"]),
    ], ids=["checkpoint-1", "checkpoint-2", "checkpoint-3", "checkpoint-4"])
    def test_exits_2_saying_retrain(self, tmp_path, capsys, fmt, retire, phrases, command):
        code, errors = self.run_retired(tmp_path, capsys, command, fmt, retire)
        assert code == EXIT_USAGE
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert all(phrase in errors[0] for phrase in [fmt, *phrases, "retrain"]), errors[0]


class TestGenValues:
    # A negative seed or a non-finite rate, window or noise level ended in
    # numpy's traceback (or, for the noise, in a data error about the
    # generated values); each is a usage error with one line.
    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-1", "seed"),
        ("--window", "nan", "window"),
        ("--window", "inf", "window"),
        ("--mean-obs", "inf", "mean_observations"),
        ("--mean-obs", "nan", "mean_observations"),
        ("--noise-std", "nan", "noise_std"),
        ("--noise-std", "inf", "noise_std"),
    ])
    def test_gen_exits_2_with_one_error_line(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "data"
        assert main(["gen", "--samples", "3", "--variates", "2", flag, value,
                     "--out", str(out)]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: spec: {key} "), errors
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags, message", [
        # An infinite sampling rate ended in an OverflowError traceback.
        (["--window", "1e-310"], "the sampling rate "),
        (["--window", "1e-300", "--horizon-frac", "0.9999999999999999"], "the sampling rate "),
        # Overflowing signal arguments and noise warned, then failed on the
        # generated values.
        (["--window", "1e308"], "window "),
        (["--window", "3e307"], "window "),
        (["--noise-std", "1e308"], "noise_std "),
    ])
    def test_a_spec_whose_generation_overflows_exits_2(self, tmp_path, capsys, flags,
                                                       message):
        out = tmp_path / "data"
        assert main(["gen", "--variates", "2", "--samples", "3", *flags,
                     "--out", str(out)]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: spec: {message}"), errors
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--mean-obs", "1e15"),
        ("--variates", "1000000000000"),
    ])
    def test_a_spec_larger_than_memory_is_rejected_before_generating(
            self, tmp_path, capsys, monkeypatch, flag, value):
        # Generation first tried to allocate the draws (7.11 PiB of times
        # for --mean-obs 1e15) and ended in numpy's memory error.
        def never(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(datasets_module, "_generate_one", never)
        out = tmp_path / "data"
        assert main(["gen", "--samples", "1", "--variates", "1", flag, value,
                     "--out", str(out)]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: spec: the expected data "), errors
        assert "memory" in errors[0]
        assert not out.exists()


class TestEmptySplit:
    def test_eval_on_an_empty_split_exits_2_with_one_error_line(self, tmp_path, capsys):
        # One sample is split 0/0/1, so the train split holds none; eval
        # ended in numpy's "need at least one array to concatenate".
        data = tmp_path / "data"
        assert main(["gen", "--variates", "2", "--samples", "1", "--out", str(data)]) == EXIT_OK
        _, checkpoint = tiny_run(tmp_path / "model")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(data / "manifest.json"), "--split", "train"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: evaluate: no samples to evaluate"]


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("section, name, value", [
        ("params", "pool.log_alpha", "NaN"),
        ("params", "head.w3", "Infinity"),
        ("buffers", "blocks.0.omega", "-Infinity"),
    ])
    def test_predict_exits_2_naming_the_entry(self, tmp_path, capsys, section, name, value):
        # JSON's NaN and Infinity are bad data, not a numeric failure (3).
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc[section][name]["data"][0] = float(value.replace("Infinity", "inf"))
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        assert value in checkpoint.read_text(encoding="utf-8")
        assert main(["predict", "--checkpoint", str(checkpoint),
                     "--observations", str(data / "test_obs.csv"),
                     "--queries", str(data / "test_queries.csv"),
                     "--out", str(tmp_path / "predictions.csv")]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert f"{section} {name!r} holds non-finite values" in errors[0]


class TestDivergence:
    def test_forced_divergence_exits_3_and_keeps_history_and_checkpoint(self, tmp_path,
                                                                        capsys, recwarn):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--preset", "sinusoid-tiny", "--out", str(data)]) == EXIT_OK
        code = main(["train", "--data", str(data / "manifest.json"), "--lr", "1e300",
                     "--max-epochs", "3", "--batch-size", "4", "--out", str(run)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("error: training diverged at epoch 1: ") and "non-finite" in last
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert (run / "history.csv").is_file()
        assert (run / "checkpoint.json").is_file()


    def test_an_overflowing_validation_mse_exits_3_naming_it(self, tmp_path, capsys):
        # Targets of 1e200 are finite, so ingestion accepts them; their
        # squared errors overflow only in the validation MSE of epoch 1.
        data = tmp_path / "data"
        assert main(["gen", "--preset", "sinusoid-tiny", "--out", str(data)]) == EXIT_OK
        assert main(["train", "--data", str(data / "manifest.json"), "--max-epochs", "1",
                     "--out", str(tmp_path / "one_epoch")]) == EXIT_OK
        queries = data / "val_queries.csv"
        header, *rows = queries.read_text(encoding="utf-8").splitlines()
        queries.write_text("\n".join([header] + [row.rsplit(",", 1)[0] + ",1e200"
                                                  for row in rows]) + "\n", encoding="utf-8")
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        manifest["checksums"]["val_queries.csv"] = hashlib.sha256(queries.read_bytes()).hexdigest()
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()

        run = tmp_path / "run"
        assert main(["train", "--data", str(data / "manifest.json"), "--max-epochs", "3",
                     "--out", str(run)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged at epoch 1: non-finite validation MSE"]
        # The history holds the finished epoch, and the checkpoint its
        # parameters: the ones a finite 1-epoch run saves.
        def written(out):
            history = csv.DictReader((out / "history.csv").read_text(encoding="utf-8")
                                     .splitlines())
            checkpoint = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
            return list(history), checkpoint

        (epoch,), checkpoint = written(run)
        (want,), want_checkpoint = written(tmp_path / "one_epoch")
        assert (epoch["epoch"], epoch["train_loss"], epoch["val_mse"], epoch["val_mae"]) == (
            "1", want["train_loss"], "inf", "1e+200")
        assert checkpoint["config"]["max_epochs"] == 3
        for section in ("params", "buffers"):
            assert checkpoint[section] == want_checkpoint[section], section


class TestEvalOverflow:
    def test_an_overflowing_test_mse_exits_3_with_one_error_line(self, tmp_path, capsys,
                                                                  recwarn):
        # Finite predictions near 1e298 whose squared errors overflow.
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["params"]["head.w1"]["data"] = [1e300] * len(doc["params"]["head.w1"]["data"])
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(data / "manifest.json"), "--out", str(out)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: test split: non-finite MSE (inf); the predictions' squared errors overflow"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


class TestGradcheck:
    def test_every_parameter_group_passes_and_a_tight_tolerance_exits_3(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", *TINY_FLAGS, "--out", str(out)]) == EXIT_OK
        with open(out / "gradcheck.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["group", "max_rel_err", "ok"]
        cfg = TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2, conv_channels=2,
                          time_dim=4)
        assert sorted(row[0] for row in rows) == sorted(ModelParams.init(cfg).arrays)
        assert all(row[2] == "1" for row in rows)
        assert main(["gradcheck", *TINY_FLAGS, "--tol", "1e-12"]) == EXIT_NUMERIC

    def test_a_config_too_big_to_allocate_exits_2_with_one_error_line(self, capsys):
        assert main(["gradcheck", "--hidden", "1048576", "--heads", "1"]) == EXIT_USAGE
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert "9,895,641,350,268 learnable parameters" in errors[0]

    # A zero step ended in a ZeroDivisionError traceback, a non-finite one in
    # a numeric failure (3), and a NaN or negative tol ran the whole check to
    # print FAIL; each is a usage error, reported before any work.
    @pytest.mark.parametrize("arg", ["--step=0", "--step=nan", "--step=inf", "--step=-1e-4",
                                     "--tol=nan", "--tol=inf", "--tol=-1"])
    def test_a_bad_step_or_tol_exits_2_with_one_error_line(self, capsys, arg):
        assert main(["gradcheck", *TINY_FLAGS, arg]) == EXIT_USAGE
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        flag = arg.split("=")[0]
        assert len(errors) == 1 and errors[0].startswith(f"error: {flag} must be "), errors
        assert captured.out == ""


class TestRetiredKeys:
    def test_kept_values_load_and_predict_bitwise_like_the_untouched_checkpoint(self, tmp_path):
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["config"].update(RETIRED_KEYS, grid={"kernels": [2, 4], "hidden": [8]})
        old = tmp_path / "old_checkpoint.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for path in (checkpoint, old):
            assert main(["eval", "--checkpoint", str(path),
                         "--data", str(data / "manifest.json")]) == EXIT_OK
            out = tmp_path / f"predictions_{path.stem}.csv"
            assert main(["predict", "--checkpoint", str(path),
                         "--observations", str(data / "test_obs.csv"),
                         "--queries", str(data / "test_queries.csv"),
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    # Each retired key with the value the model no longer has.
    OTHER_VALUES = [("softmax_attention", True), ("normalize_time", False),
                    ("use_pool_gate", True), ("use_preconv", False)]

    def test_checkpoint_with_another_value_exits_2_naming_the_key(self, tmp_path, capsys):
        data, checkpoint = tiny_run(tmp_path)
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        for key, value in self.OTHER_VALUES:
            config = {**doc["config"], key: value}
            checkpoint.write_text(json.dumps({**doc, "config": config}), encoding="utf-8")
            assert main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(data / "manifest.json")]) == EXIT_USAGE, key
            assert key in capsys.readouterr().err

    def test_config_file_with_another_value_exits_2(self, tmp_path, capsys):
        data, _checkpoint = tiny_run(tmp_path)
        config = tmp_path / "config.json"
        for key, value in self.OTHER_VALUES:
            config.write_text(json.dumps({"model": {key: value}}), encoding="utf-8")
            assert main(["train", "--config", str(config), *TINY_FLAGS, "--max-epochs", "1",
                         "--data", str(data / "manifest.json"),
                         "--out", str(tmp_path / "run")]) == EXIT_USAGE, key
            assert key in capsys.readouterr().err
            assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_every_config_field_but_seed_has_exactly_one_flag(capsys):
    flagged = [field for _flag, field, _typ in MODEL_FLAGS]
    assert sorted(flagged) == sorted(f.name for f in dataclasses.fields(TrainConfig)
                                     if f.name != "seed")
    assert main(["train", "--help"]) == EXIT_OK
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == ({flag for flag, _field, _typ in MODEL_FLAGS}
                      | {"--help", "--config", "--seed", "--data", "--out", "--verbose"})
    # The switches of the retired ablations are usage errors.
    for flag in ("--no-preconv", "--no-pool-gate"):
        assert main(["gradcheck", *TINY_FLAGS, flag]) == EXIT_USAGE, flag
        assert flag in capsys.readouterr().err
