"""Output checks for one pass of a workload's stages.

Each check returns (name, ok, detail). A failed check counts against
`error_rate` like a failed stage. The token oracle recomputes sampled graph
tokens by brute force from `graph_embedding` and the checkpoint codebook,
taking the nearest entry and the lowest index on ties.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import PAIRS, K, TASK, TRAIN_JOINT, TRAIN_WARMUP, Inputs

ORACLE_SAMPLE = 64


def _check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def artifact_hashes(pass_dir: Path) -> dict[str, str]:
    """sha256 of every artifact. Skipped: manifest.json, which carries a
    timestamp by design, and the benchmark's own responses and stage logs."""
    out = {}
    for path in sorted(pass_dir.rglob("*")):
        if (path.is_file() and path.name not in ("manifest.json", "responses.jsonl")
                and path.suffix != ".log"):
            out[path.relative_to(pass_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def brute_force_token(h: np.ndarray, entries: np.ndarray) -> int:
    best, best_d = 0, math.inf
    for j, entry in enumerate(entries):
        dist = float(((h - entry) ** 2).sum())
        if dist < best_d:
            best, best_d = j, dist
    return best


def token_oracle(run_dir: Path, inputs: Inputs, claimed: dict[str, int]) -> tuple[str, bool, str]:
    """Compare a seeded sample of claimed graph tokens with brute force."""
    from sogtok.ingest import parse_graph_file
    from sogtok.model import load_checkpoint
    from sogtok.train import graph_embedding

    rng = np.random.default_rng(inputs.seed + 2)
    ids = sorted(claimed)
    sample = {ids[i] for i in rng.choice(len(ids), size=min(ORACLE_SAMPLE, len(ids)), replace=False)}
    lines = [
        line for line in (run_dir / inputs.data).read_text(encoding="utf-8").splitlines()
        if json.loads(line)["id"] in sample
    ]
    model = load_checkpoint(run_dir / inputs.checkpoint)
    wrong = [
        g.id for g in parse_graph_file("\n".join(lines))
        if brute_force_token(graph_embedding(g, model)[-1], model.codebook.entries) != claimed[g.id]
    ]
    return _check("token_oracle", len(lines) == len(sample) and not wrong,
                  f"{len(sample)} sampled, mismatched {wrong[:5]}")


def check_train(out: Path) -> list:
    epochs = TRAIN_WARMUP + TRAIN_JOINT
    rows = _tsv(out / "train_log.tsv")
    first, last = float(rows[0][4]), float(rows[-1][4])
    snapshots = len(list(out.glob("ckpt_epoch_*.sogtok")))
    return [
        _check("train.log_rows", len(rows) == epochs + 1, f"{len(rows)} rows"),
        _check("train.loss_decreased", math.isfinite(last) and last < first,
               f"epoch-0 total {first}, final {last}"),
        _check("train.snapshots", snapshots == epochs, f"{snapshots} snapshots"),
        _check("train.checkpoint", (out / "model.sogtok").stat().st_size > K * 64 * 8),
    ]


def check_tokens(out: Path, inputs: Inputs) -> tuple[list, dict[str, int]]:
    rows = _tsv(out / "tokens.tsv")
    ids = [m.id for m in inputs.molecules]
    claimed = {r[0]: int(r[1][len("<SOG_"):-1]) for r in rows}
    node_ok = all(len(r[2].split(",")) == m.n_atoms
                  for r, m in zip(rows, sorted(inputs.molecules, key=lambda m: m.id)))
    return [
        _check("tokenize.rows", sorted(claimed) == sorted(ids), f"{len(rows)} rows for {len(ids)} graphs"),
        _check("tokenize.node_counts", node_ok),
    ], claimed


def check_node_tokens(out: Path, inputs: Inputs) -> list:
    rows = _tsv(out / "node_tokens.tsv")
    got = sorted((r[0], int(r[1])) for r in rows)
    valid = all(r[2].startswith("<SOG_") and int(r[2][5:-1]) < K for r in rows)
    return [_check("tokenize-node.rows", got == sorted(inputs.nodes) and valid,
                   f"{len(rows)} rows for {len(inputs.nodes)} nodes")]


def check_corpus(out: Path, inputs: Inputs, kinds: tuple[str, ...]) -> tuple[list, dict[str, int]]:
    records = _jsonl(out / "corpus.jsonl")
    counts = Counter(r["kind"] for r in records)
    judged = Counter(r["answer"] for r in records if r["kind"] == "simjudge")
    n = len(inputs.molecules)
    expected = {"knn": K, "simjudge": PAIRS, "descmatch": n}
    # simjudge questions name both graphs' tokens, in provenance order
    claimed = {}
    for r in records:
        if r["kind"] == "simjudge":
            a, b = r["provenance"][len("pair:"):].split("|")
            ta, tb = (int(t.split(">")[0]) for t in r["question"].split("<SOG_")[1:3])
            claimed[a], claimed[b] = ta, tb
    return [
        _check("gen-corpus.kinds", dict(counts) == {k: expected[k] for k in kinds}, str(dict(counts))),
        _check("gen-corpus.simjudge_budget", judged["similar"] == judged["dissimilar"] == PAIRS // 2,
               str(dict(judged))),
    ], claimed


def check_prompts(out: Path, inputs: Inputs) -> list:
    splits = {s: _jsonl(out / f"{s}.jsonl") for s in ("train", "valid", "test")}
    ids = {s: {r["id"] for r in rows} for s, rows in splits.items()}
    n = len(inputs.molecules)
    answers = Counter(r["answer"] for r in splits["train"])
    sidecar = json.loads((out / "prompts_manifest.json").read_text(encoding="utf-8"))
    return [
        _check("gen-prompts.splits",
               len(splits["valid"]) == len(splits["test"]) == n // 10
               and len(ids["train"] | ids["valid"] | ids["test"]) == n
               and len(ids["train"]) + len(ids["valid"]) + len(ids["test"]) == n,
               str({s: len(rows) for s, rows in splits.items()})),
        _check("gen-prompts.balanced", len(answers) == 2 and len(set(answers.values())) == 1, str(dict(answers))),
        _check("gen-prompts.sidecar", sidecar["task"] == TASK and sidecar["balance_policy"] == "1:1"),
    ]


def check_eval(out: Path, pass_dir: Path) -> list:
    test = {r["id"]: r["answer"] for r in _jsonl(pass_dir / "gen-prompts" / "test.jsonl")}
    responses = _jsonl(pass_dir / "responses.jsonl")
    expected = sum(1 for r in responses if r["text"] == test[r["id"]]) / len(responses)
    with open(out / "metrics.csv", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return [_check("eval.accuracy", abs(float(row["accuracy"]) - expected) < 1e-9,
                   f"reported {row['accuracy']}, expected {expected}")]


def check_stats(out: Path, inputs: Inputs) -> list:
    report = json.loads((out / "stats_report.json").read_text(encoding="utf-8"))
    n = len(inputs.molecules)
    emb_rows = len((out / "embeddings.csv").read_text(encoding="utf-8").splitlines()) - 1
    rate = report["permutation_consistency"]
    return [
        _check("stats.rows", report["graph_count"] == n and emb_rows == n, f"{emb_rows} embedding rows"),
        _check("stats.permutation_rate", 0.0 <= rate <= 1.0, str(rate)),
    ]


def check_pass(workload: str, run_dir: Path, pass_dir: str, inputs: Inputs) -> list:
    """Every output check for one pass; a check that raises counts as failed."""
    base = run_dir / pass_dir
    results = []

    def guarded(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a missing or malformed artifact is a failed check
            results.append(_check(name, False, f"{type(exc).__name__}: {exc}"))
            return None

    if workload == "train-k256":
        results += guarded("train", check_train, base / "train") or []
        return results
    claimed = {}
    if workload == "pipeline-2k":
        tok = guarded("tokenize", check_tokens, base / "tokenize", inputs)
        if tok:
            results += tok[0]
            claimed = tok[1]
        results += guarded("tokenize-node", check_node_tokens, base / "tokenize-node", inputs) or []
        results += guarded("gen-prompts", check_prompts, base / "gen-prompts", inputs) or []
        results += guarded("eval", check_eval, base / "eval", base) or []
        results += guarded("stats", check_stats, base / "stats", inputs) or []
        kinds = ("knn", "simjudge", "descmatch")
    else:
        kinds = ("knn", "simjudge")
    corpus = guarded("gen-corpus", check_corpus, base / "gen-corpus", inputs, kinds)
    if corpus:
        results += corpus[0]
        claimed = claimed or corpus[1]
    oracle = guarded("token_oracle", token_oracle, run_dir, inputs, claimed)
    if oracle:
        results.append(oracle)
    return results
