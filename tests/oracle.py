"""Per-graph reference implementations that the bucketed and blocked code is
checked against: the attribute rule, its strictness test and graph
preparation, one graph at a time with Python sorts and a queue-based BFS;
k-means with one mask per cluster; and training one graph at a time."""

from __future__ import annotations

import numpy as np

from sogtok.attributes import (
    ANCHOR_ATTRIBUTE,
    HashingEmbedder,
    StructuralAttributeMap,
    embed_attributes,
    hop_attribute,
    importance_scores,
)
from sogtok.errors import NonFiniteLoss
from sogtok.graph import Graph, augment_with_global_node, bfs_hops, build_adjacency
from sogtok.model import (
    Adam,
    Codebook,
    DecoderParams,
    EncoderParams,
    TokenizerModel,
    backward,
    encode,
    forward,
    init_params,
    nearest,
    normalized_adjacency,
    save_checkpoint,
)
from sogtok.train import EpochLog, _minibatches


def tie_break_key(g: Graph) -> list[tuple[int, ...]]:
    """Secondary ranking key: sorted neighbor-degree multiset, descending."""
    deg = g.degrees()
    adj = g.neighbors()
    return [tuple(sorted((deg[u] for u in adj[v]), reverse=True)) for v in range(g.n)]


def neg_key(key: tuple[int, ...]) -> tuple:
    # descending lexicographic comparison of variable-length int tuples:
    # negate entries and terminate with +inf so that prefixes sort after
    # their extensions (a longer multiset with equal prefix ranks first)
    return tuple(-x for x in key) + (float("inf"),)


def node_order(nodes: list[int], scores: np.ndarray, keys: list[tuple[int, ...]]) -> list[int]:
    # primary: importance desc; secondary: neighbor-degree multiset desc;
    # fallback: original index asc
    return sorted(nodes, key=lambda v: (-scores[v], neg_key(keys[v]), v))


def assign_attributes(g: Graph, strategy) -> StructuralAttributeMap:
    """Anchor, hop labels, and within-hop ranks for every node."""
    scores = importance_scores(g, strategy)
    keys = tie_break_key(g)
    anchor = node_order(list(range(g.n)), scores, keys)[0]
    hops = bfs_hops(g, anchor)

    by_hop: dict[int, list[int]] = {}
    unreachable: list[int] = []
    for v in range(g.n):
        if v == anchor:
            continue
        if hops[v] is None:
            unreachable.append(v)
        else:
            by_hop.setdefault(hops[v], []).append(v)

    rank_of = [0] * g.n
    attribute_of = [""] * g.n
    attribute_of[anchor] = ANCHOR_ATTRIBUTE
    for hop, members in by_hop.items():
        for rank, v in enumerate(node_order(members, scores, keys), start=1):
            rank_of[v] = rank
            attribute_of[v] = hop_attribute(hop, rank)
    for rank, v in enumerate(node_order(unreachable, scores, keys), start=1):
        rank_of[v] = rank
        attribute_of[v] = f"disconnected node #{rank}"

    return StructuralAttributeMap(
        anchor=anchor,
        hop_of=tuple(hops),
        rank_of=tuple(rank_of),
        attribute_of=tuple(attribute_of),
    )


def has_strict_ranking(g: Graph, strategy) -> bool:
    """True when anchor choice and every within-hop ranking are decided
    without falling back to node indices."""
    scores = importance_scores(g, strategy)
    keys = tie_break_key(g)

    def strict(pool: list[int], top_only: bool = False) -> bool:
        pairs = sorted(((-scores[v], neg_key(keys[v])) for v in pool))
        if top_only:
            return len(pairs) < 2 or pairs[0] != pairs[1]
        return all(pairs[i] != pairs[i + 1] for i in range(len(pairs) - 1))

    if not strict(list(range(g.n)), top_only=True):
        return False
    attrs = assign_attributes(g, strategy)
    by_hop: dict[int, list[int]] = {}
    unreachable: list[int] = []
    for v in range(g.n):
        if v == attrs.anchor:
            continue
        if attrs.hop_of[v] is None:
            unreachable.append(v)
        else:
            by_hop.setdefault(attrs.hop_of[v], []).append(v)
    return strict(unreachable) and all(strict(members) for members in by_hop.values())


def prepare_graph(g: Graph, strategy, embedder, include_global: bool = True):
    """(a_target, anorm, x) of g, one graph at a time."""
    x = embed_attributes(assign_attributes(g, strategy), embedder, include_global=include_global)
    a_target = build_adjacency(augment_with_global_node(g) if include_global else g)
    return a_target, normalized_adjacency(a_target), x


def kmeans(rows: np.ndarray, k: int, rng: np.random.Generator, iters: int = 20) -> np.ndarray:
    """Lloyd iterations with one boolean mask per cluster."""
    n, d = rows.shape
    if n >= k:
        centers = rows[rng.choice(n, size=k, replace=False)].copy()
    else:
        pad = rows.mean(axis=0) + rng.normal(0.0, 0.1, size=(k - n, d))
        centers = np.vstack([rows.copy(), pad])
    for _ in range(iters):
        assign = nearest(rows, centers)
        for j in range(k):
            members = rows[assign == j]
            if len(members) > 0:
                centers[j] = members.mean(axis=0)
    return centers


def train(dataset: list[Graph], cfg, checkpoint_dir=None, embedder=None):
    """Both training phases one graph at a time: a forward and a backward
    pass per graph, each graph's gradients added to the batch sums as they
    come, and one codebook search per graph."""
    if embedder is None:
        embedder = HashingEmbedder(dim=cfg.d_s)
    rng = np.random.default_rng(cfg.seed)
    enc, dec = init_params(cfg.d_s, cfg.hidden, cfg.d, cfg.d_r, rng)
    entries = rng.normal(0.0, 0.1, size=(cfg.k, cfg.d))
    prepared = [prepare_graph(g, cfg.strategy, embedder) for g in dataset]
    logs = []

    def evaluate(epoch, cb):
        sums = np.zeros(3)  # recon, gap, total
        selected: set[int] = set()
        for a_target, anorm, x in prepared:
            state = forward(a_target, anorm, x, enc, dec, cb, cfg.beta)
            sums += (state.loss.reconstruction, state.loss.update, state.loss.total)
            if state.sel is not None:
                selected.update(state.sel.indices.tolist())
        mean_recon, mean_gap, mean_total = sums / len(prepared)
        if not np.isfinite(mean_total):
            raise NonFiniteLoss(epoch, f"mean total loss {mean_total}")
        return EpochLog(
            epoch=epoch,
            recon=mean_recon,
            update=mean_gap,
            commit=mean_gap,
            total=mean_total,
            utilization=len(selected) / cfg.k if cb is not None else 0.0,
            dead_entries=cfg.k - len(selected) if cb is not None else cfg.k,
        )

    def update_pass(cb, opt, params):
        for batch in _minibatches(len(prepared), cfg.batch_size, rng):
            sums = {name: np.zeros_like(p) for name, p in params.items()}
            for idx in batch:
                a_target, anorm, x = prepared[idx]
                state = forward(a_target, anorm, x, enc, dec, cb, cfg.beta)
                grads = backward(state, enc, dec, cb)
                for name, total in sums.items():
                    total += getattr(grads, name)
            factor = 1.0 / len(batch)
            opt.step(params, {name: total * factor for name, total in sums.items()})

    def snapshot(epoch, cb):
        if checkpoint_dir is None:
            return
        model = TokenizerModel(
            enc=EncoderParams(w1=enc.w1.copy(), w2=enc.w2.copy()),
            dec=DecoderParams(wd=dec.wd.copy()),
            codebook=Codebook(entries=(cb.entries if cb is not None else entries).copy()),
            beta=cfg.beta,
            strategy=cfg.strategy,
            seed=cfg.seed,
        )
        save_checkpoint(model, f"{checkpoint_dir}/ckpt_epoch_{epoch:03d}.sogtok")

    epoch = 0
    warm_opt = Adam({"w1": cfg.lr_warmup, "w2": cfg.lr_warmup, "wd": cfg.lr_warmup})
    warm_params = {"w1": enc.w1, "w2": enc.w2, "wd": dec.wd}
    for _ in range(cfg.warmup_epochs):
        logs.append(evaluate(epoch, None))
        update_pass(None, warm_opt, warm_params)
        snapshot(epoch, None)
        epoch += 1

    if cfg.warmup_epochs > 0:
        full, node_rows, global_rows = [], [], []
        for _, anorm, x in prepared:
            h, _ = encode(anorm, x, enc)
            full.append(h)
            node_rows.append(h[:-1])
            global_rows.append(h[-1:])
        if cfg.global_share is None:
            entries = kmeans(np.vstack(full), cfg.k, rng)
        else:
            k_global = min(cfg.k - 1, max(1, round(cfg.k * cfg.global_share)))
            entries = np.vstack(
                [
                    kmeans(np.vstack(node_rows), cfg.k - k_global, rng),
                    kmeans(np.vstack(global_rows), k_global, rng),
                ]
            )

    cb = Codebook(entries=entries)
    joint_opt = Adam(
        {"w1": cfg.lr_gcn, "w2": cfg.lr_gcn, "wd": cfg.lr_gcn, "codebook": cfg.lr_codebook}
    )
    joint_params = {"w1": enc.w1, "w2": enc.w2, "wd": dec.wd, "codebook": cb.entries}
    for _ in range(cfg.joint_epochs):
        logs.append(evaluate(epoch, cb))
        update_pass(cb, joint_opt, joint_params)
        snapshot(epoch, cb)
        epoch += 1
    logs.append(evaluate(epoch, cb))
    model = TokenizerModel(
        enc=enc, dec=dec, codebook=cb, beta=cfg.beta, strategy=cfg.strategy, seed=cfg.seed
    )
    return model, logs
