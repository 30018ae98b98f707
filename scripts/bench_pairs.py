#!/usr/bin/env python3
"""Compare the end-to-end metrics of two checkouts in alternating pairs.

    python3 scripts/bench_pairs.py BASE CHANGE --workload train-k256 --seed 5

BASE and CHANGE are the roots of two checkouts (e.g. the parent commit from
`git archive` and the working tree). Each pair runs `perfbench/run.py
--workload W --seed S --seconds 30 --trace 0` once in each checkout, one after
the other. The run length is fixed at the protocol's 30 s, so every claim
comes from runs of one length. The side that goes first switches from pair
to pair, so drift in the machine's speed hits both sides alike. The script
prints every pair,
then, for each end-to-end metric of BASE's BENCHMARK.json, each side's
median and quartiles, the number of pairs the change wins (ties count for
neither side), and whether the median gap in the metric's better direction
exceeds the interquartile range of BASE's runs. A gain counts when the
change wins at least 9 of 10 pairs and the gap exceeds that range. The
operations that failed are summed per side. Last, for each CLI stage, each
side's median raw CPU seconds: per run the median over its passes, read from
the run's perfbench/out/results/<workload>-seed<n>-trace0.json, then the
median over the runs, so a gain shows the stage it came from.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
SECONDS = 30  # length of every benchmark run


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict[str, float]]:
    """The JSON object on the last line of one untraced benchmark run, and
    each stage's median CPU seconds over the run's passes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    report = json.loads((root / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    cpu: dict[str, list[float]] = {}
    for stages in report["passes"]:
        for stage in stages:
            cpu.setdefault(stage["name"], []).append(stage["cpu_s"])
    return json.loads(lines[-1]), {name: statistics.median(v) for name, v in cpu.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Wins of the change over base pair by pair, and whether the gap of the
    medians, positive when the change is better, exceeds base's IQR."""
    wins = sum((c < b) if lower_is_better else (c > b) for b, c in zip(base, change))
    b1, b_median, b3 = quartiles(base)
    c_median = statistics.median(change)
    gap = (b_median - c_median) if lower_is_better else (c_median - b_median)
    return {"wins": wins, "gap": gap, "base_iqr": b3 - b1, "gap_exceeds_iqr": gap > b3 - b1}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"base": args.base, "change": args.change}
    values = {side: {name: [] for name in better} for side in sides}
    failed = {side: 0 for side in sides}
    stage_cpu = {side: {} for side in sides}  # stage -> each run's median CPU seconds
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result, cpu = run_once(sides[side], args.workload, args.seed)
            for name in better:
                values[side][name].append(result["metrics"][name]["value"])
            failed[side] += result["failed"]
            for stage, seconds in cpu.items():
                stage_cpu[side].setdefault(stage, []).append(seconds)
        print(f"pair {i + 1:2d} ({order[0]} first): " + "  ".join(
            f"{name} {values['base'][name][-1]:.4g} -> {values['change'][name][-1]:.4g}"
            for name in better), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; failed: base "
          f"{failed['base']}, change {failed['change']}")
    for name, direction in better.items():
        base, change = values["base"][name], values["change"][name]
        s = summarize(base, change, direction == "lower")
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        print(f"{name} ({direction} is better): base {bm:.4g} [{b1:.4g}, {b3:.4g}], change "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}]; change wins {s['wins']}/{args.pairs}; median "
              f"gap {s['gap']:.4g} {'exceeds' if s['gap_exceeds_iqr'] else 'does not exceed'} "
              f"base IQR {s['base_iqr']:.4g}")
    print("stage cpu_s (median of the runs' medians): base -> change")
    for stage, base in stage_cpu["base"].items():
        b, c = statistics.median(base), statistics.median(stage_cpu["change"].get(stage, [math.nan]))
        print(f"  {stage:14s} {b:.4f} -> {c:.4f} ({(c - b) / b:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
