"""Smoke test of the A/B tool, ``tools/ab.py``, with a stub benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ab.py"

# Prints the end-to-end metrics of BENCHMARK.json as perfbench/run.py does,
# from the extracted tree's speed.txt and the seed, and logs each run.
STUB = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
speed, seed = float(Path("speed.txt").read_text()), int(args["--seed"])
with open(sys.argv[0] + ".log", "a") as log:
    log.write(f"{speed} {seed} {args['--workload']} {args['--trace']}\\n")
names = json.loads(Path(sys.argv[0]).with_name("names.json").read_text())
value = {name: speed * 100.0 + seed for name in names}
value["success_frac"] = 1.0
print("stamp {}")
print(json.dumps({"correct": True, "metrics": {k: {"value": v} for k, v in value.items()}}))
"""


def load_ab_tool():
    spec = importlib.util.spec_from_file_location("ab_tool", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                    *args], check=True, capture_output=True)


def test_ab_alternates_two_extracted_revisions(tmp_path, capsys):
    ab = load_ab_tool()
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    for speed in ("1", "2"):
        (repo / "speed.txt").write_text(speed)
        git(repo, "add", "speed.txt")
        git(repo, "commit", "-q", "-m", f"speed {speed}")
    config = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    (tmp_path / "names.json").write_text(json.dumps([m["name"] for m in config["end_to_end"]]))
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)

    out = tmp_path / "ab.json"
    assert ab.main(["HEAD~1", "HEAD", "--repo", str(repo), "--pairs", "3",
                    "--first-seed", "5", "--workload", "train-long-grid",
                    "--command", f"{sys.executable} {stub}", "--json", str(out)]) == 0
    runs = [line.split() for line in (tmp_path / "stub.py.log").read_text().splitlines()]
    assert runs == [["1.0", "5", "train-long-grid", "0"], ["2.0", "5", "train-long-grid", "0"],
                    ["2.0", "6", "train-long-grid", "0"], ["1.0", "6", "train-long-grid", "0"],
                    ["1.0", "7", "train-long-grid", "0"], ["2.0", "7", "train-long-grid", "0"]]
    assert "train-long-grid: 3 pairs, seeds 5-7" in capsys.readouterr().out

    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["seeds"] == [5, 6, 7]
    table = doc["workloads"]["train-long-grid"]["metrics"]
    assert doc["workloads"]["train-long-grid"]["failures"] == []
    assert list(table) == [m["name"] for m in config["end_to_end"]]
    rate = table["train_samples_per_s"]
    assert rate["parent"] == [105.0, 106.0, 107.0] and rate["change"] == [205.0, 206.0, 207.0]
    assert rate["parent_quartiles"] == [105.0, 106.0, 107.0]
    assert rate["wins"] == 3 and rate["gap_over_iqr"] == 50.0
    assert table["predict_ms_p50"]["wins"] == 0         # lower is better there
    assert table["success_frac"]["wins"] == 0 and table["success_frac"]["gap_over_iqr"] is None


def test_a_failed_run_leaves_its_pair_out(tmp_path):
    ab = load_ab_tool()
    result = ab.run_once([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path,
                         "train-long-grid", 1, 1.0)
    assert result.startswith("exit 3")
    assert ab.compare([], [{"name": "setup_s", "better": "lower"}]) == {}
