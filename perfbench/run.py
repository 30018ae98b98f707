#!/usr/bin/env python3
"""sogtok benchmark: one seeded workload, run as real CLI stages.

    python3 perfbench/run.py --workload pipeline-2k --seed 1 --seconds 30 --trace 0

Prints progress lines and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1). Run it
from the root of a checkout; it measures the sources under src/.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # on SIGTERM, unwind so that the running stage process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # BLAS is pinned for the benchmark only: here, before NumPy loads, and in
    # the environment of every stage process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the benchmark and every process it starts share one CPU: the speed of a
    # virtual CPU can differ from its neighbour's, and the speed gauge has to
    # read the CPU that the stages run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import harness

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "sogtok" / "cli.py").is_file():
        print(f"perfbench: no sogtok sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(src))
    import sogtok

    if Path(sogtok.__file__).resolve().parent != src / "sogtok":
        print(f"perfbench: sogtok resolved to {sogtok.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return harness.run(ROOT, spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
