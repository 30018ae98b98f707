#!/usr/bin/env python3
"""Vocabulary-size and anchor-strategy sweeps on a graph corpus.

Trains one tokenizer per setting (K in {64,128,256,512} with the degree
anchor, then all four anchor strategies at a fixed K), tokenizes the
corpus, and writes one summary row per setting: final losses, codebook
utilization, and permutation consistency.
"""

import argparse
import time
from pathlib import Path

from sogtok.attributes import HashingEmbedder, ImportanceStrategy
from sogtok.ingest import graph_blocks, parse_graph_file
from sogtok.metrics import permutation_consistency
from sogtok.train import TrainConfig, train

K_SWEEP = (64, 128, 256, 512)
ANCHORS = ("degree", "pagerank", "betweenness", "random")


def run_setting(graphs, tag, cfg, embedder, trials, out):
    t0 = time.time()
    model, logs = train(graph_blocks(graphs), cfg)
    consistency = permutation_consistency(
        model, graphs[: min(30, len(graphs))], trials=trials, seed=cfg.seed, embedder=embedder
    )
    last = logs[-1]
    row = (
        f"{tag},{cfg.k},{cfg.strategy.kind},{last.recon:.6g},{last.total:.6g},"
        f"{last.utilization:.4f},{consistency:.4f},{time.time() - t0:.1f}"
    )
    print(row)
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--warmup-epochs", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--batch-size", type=int, default=10)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--anchor-k", type=int, default=16)
    args = ap.parse_args()

    graphs = parse_graph_file(Path(args.data).read_bytes())
    embedder = HashingEmbedder(dim=64)
    rows = ["setting,K,anchor,final_recon,final_total,utilization,perm_consistency,seconds"]
    common = dict(
        warmup_epochs=args.warmup_epochs,
        joint_epochs=args.epochs,
        seed=args.seed,
        lr_warmup=1e-2,
        lr_gcn=2e-3,
        lr_codebook=1e-2,
        batch_size=args.batch_size,
    )

    print(rows[0])
    for k in K_SWEEP:
        cfg = TrainConfig(k=k, **common)
        rows.append(run_setting(graphs, f"K={k}", cfg, embedder, args.trials, args.out))
    for anchor in ANCHORS:
        cfg = TrainConfig(
            k=args.anchor_k,
            strategy=ImportanceStrategy(kind=anchor, seed=args.seed),
            **common,
        )
        rows.append(run_setting(graphs, f"anchor={anchor}", cfg, embedder, args.trials, args.out))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_report.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'sweep_report.csv'}")


if __name__ == "__main__":
    main()
