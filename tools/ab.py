"""Benchmark two git revisions in alternating pairs and compare each metric.

    python3 tools/ab.py HEAD~1 HEAD --pairs 10 --first-seed 11
    python3 tools/ab.py main my-branch --workload train-long-grid --json ab.json

Run from anywhere inside the repository. Each revision is extracted with
``git archive`` into its own temporary directory (no worktree, nothing
written into ``.git``), and the benchmark command of ``BENCHMARK.json``
runs there as a separate process: ``<command> --workload W --seed S
--seconds T --trace 0``, T being ``BENCHMARK.json``'s ``run_seconds``.
Pair i of a workload runs both revisions at seed
``first_seed + i``, one after the other; the first revision runs first in
even pairs and second in odd ones, so a drift in machine speed over the
session falls on both sides alike. Workloads run one after another.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles (``statistics.quantiles(values, n=4)``),
the change's median over the parent's, the gap between the medians over
the parent's interquartile range, and in how many pairs the change did
strictly better in the metric's direction. A run that exits non-zero or
whose result says ``"correct": false`` counts as failed; its pair is left
out of that workload's table and the failures are listed.
"""

import argparse
import io
import json
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(repo: Path, rev: str, dest: Path) -> str:
    """Write revision ``rev`` of ``repo`` into ``dest``; returns its commit id."""
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on; the
        # archive is git's own output, so older versions extract it as is.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def run_once(command: list[str], cwd: Path, workload: str, seed: int, seconds: float):
    """The benchmark's result object of one run, or the reason it failed."""
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no result object on the last line of its output"
    if not result.get("correct", True):
        return "its result is marked incorrect"
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric present in every run: both sides' values and quartiles,
    the change's median over the parent's, the median gap over the
    parent's IQR and the change's wins."""
    table = {}
    for metric in metrics:
        name = metric["name"]
        if not pairs or any(name not in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _c in pairs]
        change = [c["metrics"][name]["value"] for _p, c in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        iqr = pq3 - pq1
        table[name] = {
            "better": metric["better"], "parent": parent, "change": change,
            "parent_quartiles": [pq1, pmed, pq3], "change_quartiles": [cq1, cmed, cq3],
            "ratio": cmed / pmed if pmed else None,
            "gap_over_iqr": abs(cmed - pmed) / iqr if iqr else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return table


def report(workload: str, seeds: list[int], pairs: int, table: dict,
           failures: list[str]) -> str:
    def fmt(x):
        return "-" if x is None else f"{x:.4g}"

    lines = [f"{workload}: {pairs} pairs, seeds {seeds[0]}-{seeds[-1]}",
             f"  {'metric':<22} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
             f"{'ratio':>7} {'IQR':>8} {'gap/IQR':>8} {'wins':>6}"]
    for name, row in table.items():
        parent, change = row["parent_quartiles"], row["change_quartiles"]
        sides = ["{} [{}, {}]".format(*(fmt(x) for x in (q[1], q[0], q[2])))
                 for q in (parent, change)]
        lines.append(f"  {name:<22} {sides[0]:<30} {sides[1]:<30} {fmt(row['ratio']):>7} "
                     f"{fmt(parent[2] - parent[0]):>8} {fmt(row['gap_over_iqr']):>8} "
                     f"{row['wins']:>3}/{pairs}")
    lines += [f"  failed: {failure}" for failure in failures]
    return "\n".join(lines)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision compared against")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--command", type=shlex.split, default=config["command"],
                        help="the benchmark command, run in each extracted tree "
                             "(default: BENCHMARK.json's)")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the git repository")
    parser.add_argument("--json", type=Path, help="also write every run's values here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    doc = {"seconds": config["run_seconds"], "seeds": seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = [Path(tmp) / "parent", Path(tmp) / "change"]
        doc["parent"], doc["change"] = (extract(args.repo, rev, tree)
                                        for rev, tree in zip((args.parent, args.change), trees))
        print(f"parent {doc['parent']}  change {doc['change']}", flush=True)
        for workload in workloads:
            pairs, failures = [], []
            for i, seed in enumerate(seeds):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                results = [None, None]
                for side in order:
                    results[side] = run_once(args.command, trees[side], workload, seed,
                                             config["run_seconds"])
                bad = [f"{('parent', 'change')[side]} seed {seed}: {results[side]}"
                       for side in (0, 1) if isinstance(results[side], str)]
                failures += bad
                if not bad:
                    pairs.append(tuple(results))
            table = compare(pairs, config["end_to_end"])
            doc["workloads"][workload] = {"metrics": table, "failures": failures}
            print(report(workload, seeds, len(pairs), table, failures), flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
