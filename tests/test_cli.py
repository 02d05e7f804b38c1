import csv
import json

import pytest

from imtscast.cli import EXIT_OK, EXIT_USAGE, main
from imtscast.config import TrainConfig
from imtscast.datasets import PRESETS, write_dataset
from imtscast.model import ModelParams


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

    @pytest.mark.parametrize("damage", ["truncated", "no_config", "wrong_shape"])
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
        doc["params"]["out.w"] = {"shape": [4, 4], "data": [0.0] * 16}
    path.write_text(json.dumps(doc), encoding="utf-8")
