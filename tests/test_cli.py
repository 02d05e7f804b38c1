import csv

from imtscast.cli import EXIT_OK, main
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
