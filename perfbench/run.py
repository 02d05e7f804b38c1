"""Run one imtscast benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload train-sinusoid-a --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout, never from an installed copy; without it the run fails with
exit code 2. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then traced, prints the per-layer metrics
and writes the spans to ``perfbench/out/``. The last line of standard
output is the result object; the lines before it are a stamp of the
environment and one line per metric.
"""

import os

# The benchmark imports imtscast directly rather than through its CLI, so it
# pins BLAS/OpenMP to one thread itself, before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import imtscast
    except ImportError as err:
        print(f"perfbench: cannot import imtscast from {SRC}: {err}", file=sys.stderr)
        return 2
    if not Path(imtscast.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imtscast was imported from {imtscast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(ROOT),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("stamp " + json.dumps(stamp), flush=True)
    trace_file = None
    if args.trace:
        bench.OUT_DIR.mkdir(exist_ok=True)
        trace_file = bench.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), trace_file)
    for problem in result.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    if trace_file is not None:
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
