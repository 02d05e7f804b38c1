"""Run workloads once per seed and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--json FILE]

Run from the repository root. Each run is a separate ``perfbench/run.py``
process, one after another. The spread is the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, the figure compared against each metric's bound in
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    summary = {}
    for name in names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                config["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(config["run_seconds"]),
                                     "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
        summary[name] = {}
        for metric, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            summary[name][metric] = stats
            bound = bounds.get(metric)
            flag = "" if bound is None or stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {metric:28s} median {stats['median']:<12.5g} q1 {stats['q1']:<12.5g} "
                  f"q3 {stats['q3']:<12.5g} spread {stats['spread']:.4f}"
                  + ("" if bound is None else f" (bound {bound})") + flag, flush=True)
    if args.json:
        args.json.write_text(json.dumps({"seeds": args.seeds, "workloads": summary},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
