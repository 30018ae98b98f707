"""Command-line entry point.

Subcommands: train, tokenize, gen-corpus, gen-prompts, eval, stats.
Every subcommand writes a run manifest; --from-manifest replays a previous
run's resolved configuration and reproduces its outputs byte-for-byte.

Exit codes: 0 success, 1 I/O failure, 2 config/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .attributes import HashingEmbedder, ImportanceStrategy, load_embedding_table
from .corpus import (
    SimilarityThresholds,
    gen_descmatch_records,
    gen_knn_records,
    gen_simjudge_records,
    write_corpus,
)
from .errors import (
    IOFailure,
    NumericalError,
    SogtokError,
    ValidationError,
)
from .graph import Graph
from .ingest import parse_graph_file, parse_label_csv, join_labels
from .manifest import build_manifest, read_manifest, write_manifest
from .metrics import (
    NEGATIVE_DEFAULT,
    POSITIVE_DEFAULT,
    UNKNOWN_CLASS,
    accuracy_and_f1,
    auc_roc,
    codebook_correlation,
    export_embeddings,
    format_csv_matrix,
    parse_answer,
    permutation_consistency,
    scaffold_consistency,
    score_from_parse,
)
from .model import TokenizerModel, load_checkpoint, save_checkpoint
from .prompts import balance_split, load_template, render_prompt, write_prompt_files
from .scaffold import group_scaffolds, murcko_scaffold
from .train import (
    TrainConfig,
    assign_node_tokens,
    assign_token,
    export_token_table,
    format_token_table,
    format_training_log,
    graph_embedding,
    tokens_from_embedding,
    train,
)

ANCHOR_CHOICES = ("degree", "pagerank", "betweenness", "random")
BALANCE_CHOICES = ("none", "1:1", "1:5")


def _load_graphs(path, size_cap: int) -> list[Graph]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IOFailure(f"cannot read dataset {path}: {exc}") from exc
    return parse_graph_file(data, size_cap=size_cap)


def _make_embedder(model: TokenizerModel, embed_table_path):
    if embed_table_path is None:
        return HashingEmbedder(dim=model.d_s)
    text = Path(embed_table_path).read_text(encoding="utf-8")
    return load_embedding_table(text, dim=model.d_s)


def _strategy_from_cfg(cfg: dict) -> ImportanceStrategy:
    return ImportanceStrategy(kind=cfg["anchor"], seed=cfg["anchor_seed"])


def _resolve(args, command: str, defaults: dict) -> dict:
    """Materialize the full config dict, replaying a manifest if given."""
    if args.from_manifest:
        manifest = read_manifest(args.from_manifest)
        if manifest["command"] != command:
            raise ValidationError(
                f"manifest is for {manifest['command']!r}, not {command!r}"
            )
        cfg = dict(manifest["config"])
        if args.out is not None:
            cfg["out"] = str(args.out)
        return cfg
    cfg = dict(defaults)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    if cfg.get("out") is None:
        raise ValidationError("--out is required")
    return cfg


def _require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ValidationError("--seed is required (or replay with --from-manifest)")
    return int(cfg["seed"])


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _embeddable(manifest: dict) -> dict:
    """Manifest copy safe to embed in output artifacts: no timestamp, no
    output location, so re-runs and replays stay byte-identical."""
    out = {k: v for k, v in manifest.items() if k != "created_at"}
    out["config"] = {k: v for k, v in manifest["config"].items() if k != "out"}
    return out


def cmd_train(cfg: dict) -> None:
    seed = _require_seed(cfg)
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    strategy = _strategy_from_cfg(cfg)
    tc = TrainConfig(
        k=cfg["k"],
        beta=cfg["beta"],
        warmup_epochs=cfg["warmup_epochs"],
        joint_epochs=cfg["epochs"],
        lr_warmup=cfg["lr_warmup"],
        lr_gcn=cfg["lr_gcn"],
        lr_codebook=cfg["lr_codebook"],
        strategy=strategy,
        seed=seed,
        d_s=cfg["d_s"],
        d_h=cfg["d_h"],
        d=cfg["d"],
        d_r=cfg["d_r"],
        batch_size=cfg["batch_size"],
        global_share=cfg["global_share"],
    )
    out = _outdir(cfg)
    manifest = build_manifest("train", cfg, seed, [cfg["data"]])
    model, logs = train(graphs, tc, checkpoint_dir=str(out))
    model.manifest = _embeddable(manifest)
    save_checkpoint(model, out / "model.sogtok")
    (out / "train_log.tsv").write_text(format_training_log(logs), encoding="utf-8")
    write_manifest(manifest, out / "manifest.json")
    print(f"trained K={tc.k} model on {len(graphs)} graphs -> {out / 'model.sogtok'}")


def _read_node_list(path) -> list[tuple[str, int]]:
    out = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            gid, index = line.split()
            out.append((gid, int(index)))
        except ValueError:
            raise ValidationError(
                f"node list line {line_no}: expected 'graph_id index', got {line.strip()!r}"
            ) from None
    return out


def cmd_tokenize(cfg: dict) -> None:
    model = load_checkpoint(cfg["checkpoint"])
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    embedder = _make_embedder(model, cfg.get("embed_table"))
    out = _outdir(cfg)
    jobs = max(1, int(cfg["jobs"]))
    if cfg["node_level"]:
        by_id = {g.id: g for g in graphs}
        if cfg.get("nodes"):
            wanted = _read_node_list(cfg["nodes"])
        else:
            wanted = [(g.id, v) for g in graphs for v in range(g.n)]
        for gid, _ in wanted:
            if gid not in by_id:
                raise ValidationError(f"node list references unknown graph {gid!r}")

        def work(item):
            gid, v = item
            tok = assign_node_tokens(by_id[gid], v, model, hops=cfg["hops"], embedder=embedder)
            return (gid, v, tok.surface)

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(work, wanted))
        else:
            rows = [work(item) for item in wanted]
        rows.sort(key=lambda r: (r[0], r[1]))
        lines = ["id\tnode\ttoken"] + [f"{gid}\t{v}\t{surface}" for gid, v, surface in rows]
        (out / "node_tokens.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        written = out / "node_tokens.tsv"
    else:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                assignments = list(pool.map(lambda g: assign_token(g, model, embedder), graphs))
        else:
            assignments = [assign_token(g, model, embedder) for g in graphs]
        export_token_table(assignments, out / "tokens.tsv")
        written = out / "tokens.tsv"
    manifest = build_manifest("tokenize", cfg, cfg.get("seed"), [cfg["data"], cfg["checkpoint"]])
    write_manifest(manifest, out / "manifest.json")
    print(f"wrote {written}")


def cmd_gen_corpus(cfg: dict) -> None:
    seed = _require_seed(cfg)
    model = load_checkpoint(cfg["checkpoint"])
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    embedder = _make_embedder(model, cfg.get("embed_table"))
    kinds = [k.strip() for k in cfg["kinds"].split(",") if k.strip()]
    for kind in kinds:
        if kind not in ("knn", "simjudge", "descmatch"):
            raise ValidationError(f"unknown corpus kind {kind!r}")
    records = []
    assignments, global_rows = {}, []
    if "simjudge" in kinds or "descmatch" in kinds:
        # one embedding per graph gives its token and its simjudge row (a copy, so h is freed)
        for g in graphs:
            h = graph_embedding(g, model, embedder)
            assignments[g.id] = tokens_from_embedding(g.id, h, model.codebook)
            global_rows.append(h[-1].copy())
    if "knn" in kinds:
        records.extend(gen_knn_records(model.codebook, k=cfg["knn_k"]))
    if "simjudge" in kinds:
        embeddings = np.vstack(global_rows)
        thresholds = SimilarityThresholds(tau_pos=cfg["tau_pos"], tau_neg=cfg["tau_neg"])
        budget = cfg["pairs"] if cfg["pairs"] is not None else 4 * model.k
        records.extend(
            gen_simjudge_records(
                ids=[g.id for g in graphs],
                tokens=[assignments[g.id].graph_token for g in graphs],
                embeddings=embeddings,
                thresholds=thresholds,
                budget=budget,
                seed=seed,
            )
        )
    if "descmatch" in kinds:
        records.extend(gen_descmatch_records(graphs, assignments, model.strategy))
    out = _outdir(cfg)
    write_corpus(records, out / "corpus.jsonl")
    manifest = build_manifest("gen-corpus", cfg, seed, [cfg["data"], cfg["checkpoint"]])
    write_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(records)} records -> {out / 'corpus.jsonl'}")


def _assign_splits(graphs: list[Graph], ratio: str, seed: int) -> dict[str, str]:
    parts = [float(x) for x in ratio.split(":")]
    if len(parts) != 3 or min(parts) < 0 or sum(parts) <= 0:
        raise ValidationError(f"bad split ratio {ratio!r}; expected like 8:1:1")
    weights = np.array(parts) / sum(parts)
    ids = sorted(g.id for g in graphs)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = int(round(weights[0] * len(ids)))
    n_valid = int(round(weights[1] * len(ids)))
    split_of = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            split_of[ids[idx]] = "train"
        elif pos < n_train + n_valid:
            split_of[ids[idx]] = "valid"
        else:
            split_of[ids[idx]] = "test"
    return split_of


def cmd_gen_prompts(cfg: dict) -> None:
    seed = _require_seed(cfg)
    model = load_checkpoint(cfg["checkpoint"])
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    if cfg.get("labels"):
        labels = parse_label_csv(Path(cfg["labels"]).read_text(encoding="utf-8"))
        graphs = join_labels(graphs, labels)
    embedder = _make_embedder(model, cfg.get("embed_table"))
    tmpl = load_template(cfg["task"])
    split_of = _assign_splits(graphs, cfg["split_ratio"], seed)
    records = []
    table_rows = []
    for g in graphs:
        assignment = assign_token(g, model, embedder)
        table_rows.append(assignment)
        records.append(render_prompt(tmpl, g, assignment.graph_token, split=split_of[g.id]))
    balanced = balance_split(records, cfg["balance"], seed=seed, split="train")
    out = _outdir(cfg)
    token_table = format_token_table(table_rows)
    (out / "tokens.tsv").write_text(token_table, encoding="utf-8")
    sidecar = {
        "task": cfg["task"],
        "balance_policy": cfg["balance"],
        "seed": seed,
        "token_table_sha256": hashlib.sha256(token_table.encode("utf-8")).hexdigest(),
    }
    write_prompt_files(balanced, out, sidecar)
    manifest = build_manifest("gen-prompts", cfg, seed, [cfg["data"], cfg["checkpoint"]])
    write_manifest(manifest, out / "manifest.json")
    counts = {s: sum(1 for r in balanced if r.split == s) for s in ("train", "valid", "test")}
    print(f"wrote prompt files {counts} -> {out}")


def _load_responses(path) -> list[dict]:
    rows = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ValidationError(f"response line {line_no}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str) or "id" not in obj:
            raise ValidationError(f"response line {line_no}: need 'id' and a string 'text'")
        rows.append(obj)
    return rows


def _phrase_sets(tmpl) -> tuple[tuple[str, ...], tuple[str, ...]]:
    pos, neg = POSITIVE_DEFAULT, NEGATIVE_DEFAULT
    if tmpl is not None:
        if tmpl.positive and tmpl.positive.lower() not in pos:
            pos = pos + (tmpl.positive.lower(),)
        if tmpl.negative and tmpl.negative.lower() not in neg:
            neg = neg + (tmpl.negative.lower(),)
    return pos, neg


def cmd_eval(cfg: dict) -> None:
    responses = _load_responses(cfg["responses"])
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    labels_by_id = {g.id: g.label for g in graphs}
    tmpl = load_template(cfg["task"]) if cfg.get("task") else None
    pos_set, neg_set = _phrase_sets(tmpl)
    preds, labels, scores = [], [], []
    used_explicit_scores = all("score" in r for r in responses)
    for r in responses:
        if r["id"] not in labels_by_id or labels_by_id[r["id"]] is None:
            raise ValidationError(f"no label for response id {r['id']!r}")
        parsed = parse_answer(r["text"], pos_set, neg_set)
        pred = {"Positive": 1, "Negative": 0, "Unknown": UNKNOWN_CLASS}[parsed.value]
        preds.append(pred)
        labels.append(labels_by_id[r["id"]])
        scores.append(float(r["score"]) if used_explicit_scores else score_from_parse(parsed))
    auc = auc_roc(scores, labels)
    report = accuracy_and_f1(preds, labels, classes=(1,))
    counts = report.counts[1]
    task_name = cfg.get("task") or "unnamed"
    rows = [
        "task,auc,accuracy,micro_f1,tp,fp,tn,fn,score_source",
        f"{task_name},{auc:.9g},{report.accuracy:.9g},{report.micro_f1:.9g},"
        f"{counts.tp},{counts.fp},{counts.tn},{counts.fn},"
        f"{'response' if used_explicit_scores else 'parsed'}",
    ]
    out = _outdir(cfg)
    (out / "metrics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    manifest = build_manifest("eval", cfg, cfg.get("seed"), [cfg["responses"], cfg["data"]])
    write_manifest(manifest, out / "manifest.json")
    print(f"auc={auc:.4f} accuracy={report.accuracy:.4f} micro_f1={report.micro_f1:.4f}")


def cmd_stats(cfg: dict) -> None:
    seed = _require_seed(cfg)
    model = load_checkpoint(cfg["checkpoint"])
    graphs = _load_graphs(cfg["data"], cfg["size_cap"])
    embedder = _make_embedder(model, cfg.get("embed_table"))
    out = _outdir(cfg)
    m = min(cfg["corr_first"], model.k)
    sims, zero_rows = codebook_correlation(model.codebook, m)
    (out / "correlation.csv").write_text(format_csv_matrix(sims), encoding="utf-8")
    export_embeddings(model, graphs, out / "embeddings.csv", embedder)
    perm_rate = permutation_consistency(model, graphs, trials=cfg["trials"], seed=seed, embedder=embedder)
    scaffolds = [murcko_scaffold(g) for g in graphs]
    buckets = group_scaffolds(scaffolds)
    tokens = [assign_token(g, model, embedder).graph_token.index for g in graphs]
    try:
        sc = scaffold_consistency(tokens, buckets, shuffles=100, seed=seed)
        scaffold_part = {
            "mean_purity": sc.mean_purity,
            "baseline_purity": sc.baseline_purity,
            "bucket_count": sc.bucket_count,
        }
    except ValidationError:
        scaffold_part = None  # no bucket with two members
    payload = {
        "permutation_consistency": perm_rate,
        "scaffold_consistency": scaffold_part,
        "zero_norm_codebook_rows": zero_rows,
        "correlation_size": m,
        "graph_count": len(graphs),
    }
    (out / "stats_report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    manifest = build_manifest("stats", cfg, seed, [cfg["data"], cfg["checkpoint"]])
    write_manifest(manifest, out / "manifest.json")
    print(f"permutation_consistency={perm_rate:.3f}; wrote {out / 'stats_report.json'}")


TRAIN_DEFAULTS = {
    "data": None, "out": None, "k": 256, "beta": 0.25, "seed": None,
    "anchor": "degree", "anchor_seed": 0, "warmup_epochs": 10, "epochs": 50,
    "lr_warmup": 1e-2, "lr_gcn": 5e-2, "lr_codebook": 0.5,
    "d_s": 64, "d_h": None, "d": 64, "d_r": 16, "batch_size": None,
    "global_share": None, "size_cap": 512, "jobs": 1,
}
TOKENIZE_DEFAULTS = {
    "data": None, "out": None, "checkpoint": None, "node_level": False,
    "hops": 2, "nodes": None, "embed_table": None, "size_cap": 512, "jobs": 1,
}
CORPUS_DEFAULTS = {
    "data": None, "out": None, "checkpoint": None, "seed": None,
    "kinds": "knn,simjudge,descmatch", "knn_k": 5, "tau_pos": 0.8,
    "tau_neg": 0.2, "pairs": None, "embed_table": None, "size_cap": 512, "jobs": 1,
}
PROMPTS_DEFAULTS = {
    "data": None, "out": None, "checkpoint": None, "seed": None, "task": None,
    "labels": None, "balance": "none", "split_ratio": "8:1:1",
    "embed_table": None, "size_cap": 512, "jobs": 1,
}
EVAL_DEFAULTS = {
    "responses": None, "data": None, "out": None, "task": None,
    "size_cap": 512, "seed": None, "jobs": 1,
}
STATS_DEFAULTS = {
    "data": None, "out": None, "checkpoint": None, "seed": None,
    "corr_first": 50, "trials": 10, "embed_table": None, "size_cap": 512, "jobs": 1,
}


def _add_common(sp):
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--from-manifest", help="replay a previous run's manifest")
    sp.add_argument("--size-cap", type=int, dest="size_cap", help="max nodes per graph")
    sp.add_argument("--jobs", type=int, help="parallel workers for per-graph work")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sogtok", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the structural tokenizer")
    p.add_argument("--data")
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--anchor", choices=ANCHOR_CHOICES)
    p.add_argument("--anchor-seed", type=int, dest="anchor_seed")
    p.add_argument("--warmup-epochs", type=int, dest="warmup_epochs")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr-warmup", type=float, dest="lr_warmup")
    p.add_argument("--lr-gcn", type=float, dest="lr_gcn")
    p.add_argument("--lr-codebook", type=float, dest="lr_codebook")
    p.add_argument("--d-s", type=int, dest="d_s")
    p.add_argument("--d-h", type=int, dest="d_h")
    p.add_argument("--d", type=int)
    p.add_argument("--d-r", type=int, dest="d_r")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--global-share", type=float, dest="global_share")
    _add_common(p)

    p = sub.add_parser("tokenize", help="assign structural tokens")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--node-level", action="store_true", default=None, dest="node_level")
    p.add_argument("--hops", type=int)
    p.add_argument("--nodes", help="node list file: 'graph_id index' per line")
    p.add_argument("--embed-table", dest="embed_table")
    _add_common(p)

    p = sub.add_parser("gen-corpus", help="generate hybrid structure QA corpora")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int)
    p.add_argument("--kinds")
    p.add_argument("--knn-k", type=int, dest="knn_k")
    p.add_argument("--tau-pos", type=float, dest="tau_pos")
    p.add_argument("--tau-neg", type=float, dest="tau_neg")
    p.add_argument("--pairs", type=int)
    p.add_argument("--embed-table", dest="embed_table")
    _add_common(p)

    p = sub.add_parser("gen-prompts", help="emit downstream prompt files")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int)
    p.add_argument("--task")
    p.add_argument("--labels", help="optional id,label CSV to join")
    p.add_argument("--balance", choices=BALANCE_CHOICES)
    p.add_argument("--split-ratio", dest="split_ratio")
    p.add_argument("--embed-table", dest="embed_table")
    _add_common(p)

    p = sub.add_parser("eval", help="score LLM responses against labels")
    p.add_argument("--responses")
    p.add_argument("--data")
    p.add_argument("--task")
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = sub.add_parser("stats", help="export analyses: correlation, embeddings, consistency")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int)
    p.add_argument("--corr-first", type=int, dest="corr_first")
    p.add_argument("--trials", type=int)
    p.add_argument("--embed-table", dest="embed_table")
    _add_common(p)

    return parser


_DISPATCH = {
    "train": (cmd_train, TRAIN_DEFAULTS, ("data",)),
    "tokenize": (cmd_tokenize, TOKENIZE_DEFAULTS, ("data", "checkpoint")),
    "gen-corpus": (cmd_gen_corpus, CORPUS_DEFAULTS, ("data", "checkpoint")),
    "gen-prompts": (cmd_gen_prompts, PROMPTS_DEFAULTS, ("data", "checkpoint", "task")),
    "eval": (cmd_eval, EVAL_DEFAULTS, ("responses", "data")),
    "stats": (cmd_stats, STATS_DEFAULTS, ("data", "checkpoint")),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func, defaults, required = _DISPATCH[args.command]
    try:
        cfg = _resolve(args, args.command, defaults)
        for key in required:
            if cfg.get(key) is None:
                raise ValidationError(f"--{key.replace('_', '-')} is required")
        func(cfg)
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, SogtokError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
