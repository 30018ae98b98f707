"""Run one workload: set-up, timed CLI passes, output checks, metrics.

Untraced runs (--trace 0) run every stage as its own `python -m sogtok.cli`
process, one after another, and report the end-to-end metrics. A traced run
(--trace 1) makes one untraced pass and then one traced pass, in which the
same stages run in this process through `sogtok.cli.main` with every public
function wrapped (see tracing.py); it reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
from checks import artifact_hashes, check_pass
from tracing import Tracer
from workloads import REF_SEED, REF_TRAIN_ARGS, THROUGHPUTS, WORKLOADS, Inputs, write_responses

# set-up runs at least SETUP_MIN times and, while it has taken under
# SETUP_SECONDS in all, up to SETUP_MAX times; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0
# kernel calls per speed gauge point (see calibrate.py)
GAUGE_REPEAT = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGE_NAMES = ("train", "tokenize", "tokenize-node", "gen-corpus", "gen-prompts", "eval", "stats")


@dataclass
class StageResult:
    name: str
    wall_s: float
    cpu_s: float  # user + system CPU seconds of the stage process
    rss_mb: float  # peak resident set of the stage process; 0 in-process
    code: int
    items: int
    throughput: str | None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.src = root / "src"
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.out = Path(__file__).resolve().parent / "out"
        self.run_dir = self.out / workload
        self.env = dict(os.environ, PYTHONPATH=str(self.src), **{v: "1" for v in BLAS_VARS})

    # stage runners

    def _cli(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """One CLI process: wall seconds, CPU seconds and peak RSS in MB (both
        from its own rusage), exit code."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "sogtok.cli", *argv], cwd=self.run_dir,
                                    env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode

    def gauge(self) -> list[float]:
        """CPU seconds of GAUGE_REPEAT calls of the reference kernel, in a
        fresh process like the stages."""
        script = Path(calibrate.__file__).resolve()
        out = subprocess.run([sys.executable, str(script), str(GAUGE_REPEAT)], env=self.env,
                             cwd=self.run_dir, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def subprocess_stage(self, stage, log: Path) -> StageResult:
        wall, cpu, rss, code = self._cli(stage.argv, log)
        return StageResult(stage.name, wall, cpu, rss, code, stage.items, stage.throughput)

    def in_process_stage(self, tracer: Tracer):
        from sogtok import cli

        def run(stage, log: Path) -> StageResult:
            cwd = os.getcwd()
            os.chdir(self.run_dir)
            try:
                with open(log, "w", encoding="utf-8") as fh, \
                        contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
                    start, cpu_start = time.perf_counter(), time.process_time()
                    with tracer.span(f"cli.{stage.name}"):
                        try:
                            code = cli.main(stage.argv)
                        except SystemExit as exc:
                            code = exc.code if isinstance(exc.code, int) else 1
                        except Exception:
                            traceback.print_exc()
                            code = 1
                    wall = time.perf_counter() - start
                    cpu = time.process_time() - cpu_start
            finally:
                os.chdir(cwd)
            return StageResult(stage.name, wall, cpu, 0.0, code, stage.items, stage.throughput)

        return run

    # phases

    def setup(self) -> tuple[Inputs, float]:
        """Write the inputs; returns them and the CPU seconds that set-up took
        in this process and in the CLI processes it ran."""
        for name in ("inputs", "ref"):
            shutil.rmtree(self.run_dir / name, ignore_errors=True)
        start = _cpu_seconds()
        # warm the file and bytecode caches, so the first timed stage does not
        # pay for a cold interpreter start
        *_, code = self._cli(["--help"], self.run_dir / "setup.log")
        if code != 0:
            raise RuntimeError(f"sogtok --help exited {code}; see {self.run_dir / 'setup.log'}")

        def train_ref(data: str, out: str) -> None:
            argv = ["train", "--data", data, "--out", out, "--seed", str(REF_SEED), *REF_TRAIN_ARGS]
            *_, code = self._cli(argv, self.run_dir / "setup.log")
            if code != 0:
                raise RuntimeError(f"reference training exited {code}; see {self.run_dir / 'setup.log'}")

        inputs = self.workload.setup(self.run_dir, self.seed, train_ref)
        return inputs, _cpu_seconds() - start

    def run_pass(self, inputs: Inputs, pass_dir: str, runner) -> tuple[list[StageResult], int]:
        """Stages in order; returns results and the number of stages not run
        because an earlier one failed."""
        base = self.run_dir / pass_dir
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        stages = self.workload.stages(inputs, pass_dir)
        results = []
        for stage in stages:
            if stage.name == "eval":
                write_responses(self.run_dir, pass_dir, inputs.seed)
            results.append(runner(stage, base / f"{stage.name}.log"))
            if results[-1].code != 0:
                break
        return results, len(stages) - len(results)

    def repeat_check(self, hashes: dict[str, str]) -> tuple[str, bool, str]:
        """Artifacts must not change between runs of the same code and seed."""
        code = hashlib.sha256()
        for path in sorted((self.src / "sogtok").rglob("*")):
            if path.is_file() and path.suffix in (".py", ".txt"):
                code.update(path.relative_to(self.src).as_posix().encode() + path.read_bytes())
        key = f"{self.workload.name}:{self.seed}:{code.hexdigest()[:16]}"
        digest = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()
        store = self.out / "artifact_hashes.json"
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        before = known.setdefault(key, digest)
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return ("determinism.runs", before == digest, key)


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def environment(seed: int) -> dict:
    blas = "unknown"
    with contextlib.suppress(Exception):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
        "jobs": 1,
        "seed": seed,
    }


def throughputs(results: list[StageResult]) -> dict[str, float]:
    return {r.throughput: r.items / r.wall_s for r in results if r.throughput and r.code == 0}


def final_utilization(log: Path) -> float:
    """Codebook usage in the closing row of a training log; 0 without one."""
    try:
        return float(log.read_text(encoding="utf-8").splitlines()[-1].split("\t")[5])
    except (OSError, IndexError, ValueError):
        return 0.0


def layer_metrics(tracer: Tracer, traced: list[StageResult], untraced: list[StageResult],
                  train_log: Path) -> tuple[dict[str, float], dict]:
    table = tracer.spans.table()
    c = tracer.counts

    def calls(name: str) -> int:
        return table.get(name, {"calls": 0})["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {f"{name}.self_s": row["self_s"] for name, row in table.items()}
    graphs = c["ingest.graphs"]
    values.update({
        "model.quantize.rows_per_call": ratio(c["model.quantize.rows"], calls("model.quantize")),
        "model.quantize.computed_bytes": c["model.quantize.computed_bytes"],
        "train.kmeans.computed_bytes": c["train.kmeans.computed_bytes"],
        "train.kmeans.peak_alloc_mb": c["train.kmeans.peak_alloc_mb"],
        "model.forward.calls_per_graph_epoch": ratio(calls("model.forward"), c["train.graph_epochs"]),
        "model.normalized_adjacency.calls_per_graph": ratio(calls("model.normalized_adjacency"), graphs),
        "model.save_checkpoint.calls": calls("model.save_checkpoint"),
        "train.graph_embedding.calls_per_graph": ratio(calls("train.graph_embedding"), graphs),
        "attributes.embed_cache_hit_ratio": ratio(c["attributes.embed.repeats"], c["attributes.embed.calls"]),
        "corpus.gen_simjudge_records.peak_alloc_mb": c["corpus.gen_simjudge_records.peak_alloc_mb"],
        "corpus.simjudge.pairs_scanned": c["corpus.simjudge.pairs_scanned"],
        "corpus.simjudge.pairs_emitted": c["corpus.simjudge.pairs_emitted"],
        "train.final_utilization": final_utilization(train_log),
        "trace.overhead_ratio": ratio(sum(r.wall_s for r in traced), sum(r.wall_s for r in untraced)),
    })
    for name in STAGE_NAMES:
        values[f"cli.{name}.wall_s"] = sum(r.wall_s for r in traced if r.name == name)
    values.update(dict.fromkeys(THROUGHPUTS, 0.0))
    values.update(throughputs(untraced))
    return values, table


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def run(root: Path, spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> int:
    bench = Bench(root, workload, seed)
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    bench.run_dir.mkdir(parents=True)
    env = environment(seed)

    setups = []
    while not setups or not trace and (
            len(setups) < SETUP_MIN or sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        inputs, took = bench.setup()
        setups.append(took)

    stage_failures, attempted_stages = 0, 0
    passes, pass_dirs = [], []

    def measured_pass(pass_dir: str, runner) -> list[StageResult]:
        nonlocal stage_failures, attempted_stages
        results, skipped = bench.run_pass(inputs, pass_dir, runner)
        attempted_stages += len(results) + skipped
        stage_failures += skipped + sum(1 for r in results if r.code != 0)
        pass_dirs.append(pass_dir)
        return results

    # An untraced run gauges the CPU's speed before its first stage and after
    # every stage, so gauges[j] and gauges[j + 1] bracket the j-th stage run.
    # Another pass starts only if, at the length of the one before, the
    # passes would stay within `seconds`; there is always one.
    gauges = [] if trace else [bench.gauge()]

    def gauged_stage(stage, log: Path) -> StageResult:
        result = bench.subprocess_stage(stage, log)
        gauges.append(bench.gauge())
        return result

    measured = 0.0
    while True:
        pass_start = time.perf_counter()
        passes.append(measured_pass(f"pass{len(passes)}",
                                    bench.subprocess_stage if trace else gauged_stage))
        took = time.perf_counter() - pass_start
        measured += took
        if trace or measured + took > seconds:
            break

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measured_pass("traced", bench.in_process_stage(tracer))
        finally:
            tracer.uninstall()
        tracer.replay_allocations()
        tracer.write(bench.run_dir / "spans.npz")

    # outputs are checked after every pass has run, with the tracer removed
    checks, hashes = [], []
    for pass_dir in pass_dirs:
        checks.extend(check_pass(workload, bench.run_dir, pass_dir, inputs))
        hashes.append(artifact_hashes(bench.run_dir / pass_dir))
    checks.append(("determinism.passes", all(h == hashes[0] for h in hashes),
                   f"{len(hashes)} passes compared"))
    checks.append(bench.repeat_check(hashes[0]))
    failed = stage_failures + sum(1 for _, ok, _ in checks if not ok)
    attempted = attempted_stages + len(checks)

    stage_rows = [[r.__dict__ for r in p] for p in passes]
    report = {"workload": workload, "environment": env, "inputs": inputs.facts(),
              "setup_s": setups, "gauges": gauges, "passes": stage_rows, "checks": checks,
              "error_rate": failed / attempted}
    if trace:
        train_log = (bench.run_dir / "pass0" / "train" / "train_log.tsv"
                     if workload == "train-k256" else bench.run_dir / "ref" / "train_log.tsv")
        values, table = layer_metrics(tracer, traced, passes[0], train_log)
        report["traced_pass"] = [r.__dict__ for r in traced]
        report["self_time"] = dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
        wanted = spec["per_layer"]
    else:
        # each stage is scaled by the gauge points on either side of it,
        # set-up by all of them
        scaled, j = [], 0
        for p in passes:
            scaled.append(sum(r.cpu_s * calibrate.REFERENCE_S / _median(gauges[j + i] + gauges[j + i + 1])
                              for i, r in enumerate(p)))
            j += len(p)
        values = {
            "setup_s": _median(setups) * calibrate.REFERENCE_S / _median(sum(gauges, [])),
            "cpu_norm_s": _median(scaled),
            "cpu_s": _median([sum(r.cpu_s for r in p) for p in passes]),
            "wall_s": _median([sum(r.wall_s for r in p) for p in passes]),
            "gauge_s": _median(sum(gauges, [])),
            "peak_rss_mb": _median([max(r.rss_mb for r in p) for p in passes]),
        }
        per_pass = [throughputs(p) for p in passes]
        report["throughput"] = {name: _median([t[name] for t in per_pass if name in t])
                                for name in set().union(*per_pass)}
        wanted = spec["end_to_end"]
    report["values"] = values
    results = bench.out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    for name, ok, detail in checks:
        if not ok:
            print(f"perfbench: check failed: {name}: {detail}")
    print("perfbench: " + json.dumps({"environment": env, "inputs": inputs.facts(),
                                      "error_rate": report["error_rate"],
                                      "throughput": report.get("throughput", {})}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
