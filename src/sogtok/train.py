"""Two-phase tokenizer training and token assignment.

Phase 1 pretrains encoder+decoder on adjacency reconstruction alone (the
decoder reads the continuous embeddings; the codebook is untouched).
The codebook is then initialized by seeded k-means over the gathered
node+global embeddings, and phase 2 jointly optimizes the full three-term
loss with separate learning rates for the GCN/decoder and the codebook.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .attributes import (
    DEFAULT_EMBED_DIM,
    HashingEmbedder,
    ImportanceStrategy,
    assign_attributes,
    embed_attributes,
)
from .errors import EmptyDataset, NonFiniteLoss, ValidationError
from .graph import Graph, augment_with_global_node, build_adjacency, ego_graph
from .model import (
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
    quantize,
    save_checkpoint,
)

TOKEN_RE = re.compile(r"^<SOG_(\d+)>$")


@dataclass(frozen=True)
class StructuralToken:
    index: int

    @property
    def surface(self) -> str:
        return f"<SOG_{self.index}>"


def parse_token(surface: str) -> StructuralToken:
    m = TOKEN_RE.match(surface)
    if not m:
        raise ValidationError(f"not a structural token: {surface!r}")
    return StructuralToken(index=int(m.group(1)))


@dataclass(frozen=True)
class TrainConfig:
    k: int = 256
    beta: float = 0.25
    warmup_epochs: int = 10
    joint_epochs: int = 50
    lr_warmup: float = 1e-2
    lr_gcn: float = 5e-2
    lr_codebook: float = 0.5
    strategy: ImportanceStrategy = field(default_factory=ImportanceStrategy)
    seed: int = 0
    d_s: int = DEFAULT_EMBED_DIM
    d_h: int | None = None  # defaults to d_s
    d: int = 64
    d_r: int = 16
    straight_through: bool = True
    batch_size: int | None = None  # None = full batch
    # None: one k-means over all gathered rows. A float in (0, 1): stratified
    # init, reserving that share of entries for the pooled (global-node) rows,
    # which a single variance-minimizing k-means otherwise starves of cells.
    global_share: float | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("codebook size K must be >= 2")
        if min(self.lr_warmup, self.lr_gcn, self.lr_codebook) <= 0:
            raise ValidationError("learning rates must be positive")
        if self.warmup_epochs < 0 or self.joint_epochs < 0:
            raise ValidationError("epoch counts must be >= 0")
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.global_share is not None and not (0.0 < self.global_share < 1.0):
            raise ValidationError("global_share must be in (0, 1) or None")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1 or None, got {self.batch_size}")

    @property
    def hidden(self) -> int:
        return self.d_h if self.d_h is not None else self.d_s


@dataclass(frozen=True)
class PreparedGraph:
    """Per-graph constants reused across epochs."""

    graph: Graph
    a_target: np.ndarray  # augmented adjacency, reconstruction target
    anorm: np.ndarray
    x: np.ndarray  # attribute embeddings, global row last


def prepare_graph(
    g: Graph, strategy: ImportanceStrategy, embedder, include_global: bool = True
) -> PreparedGraph:
    """Encoder inputs of g; the virtual global node is appended unless include_global=False."""
    attrs = assign_attributes(g, strategy)
    x = embed_attributes(attrs, embedder, include_global=include_global)
    a_target = build_adjacency(augment_with_global_node(g) if include_global else g)
    return PreparedGraph(graph=g, a_target=a_target, anorm=normalized_adjacency(a_target), x=x)


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    recon: float
    update: float
    commit: float
    total: float
    utilization: float
    dead_entries: int


def format_training_log(logs: list[EpochLog]) -> str:
    lines = ["epoch\trecon\tupdate\tcommit\ttotal\tutilization\tdead_entries"]
    for e in logs:
        lines.append(
            f"{e.epoch}\t{e.recon:.9g}\t{e.update:.9g}\t{e.commit:.9g}"
            f"\t{e.total:.9g}\t{e.utilization:.9g}\t{e.dead_entries}"
        )
    return "\n".join(lines) + "\n"


def kmeans(rows: np.ndarray, k: int, rng: np.random.Generator, iters: int = 20) -> np.ndarray:
    """Plain Lloyd iterations with seeded initialization; deterministic."""
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


def _minibatches(
    n: int, batch_size: int | None, rng: np.random.Generator
) -> list[np.ndarray]:
    order = np.arange(n)
    if batch_size is None or batch_size >= n:
        return [order]
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def train(
    dataset: list[Graph],
    cfg: TrainConfig,
    checkpoint_dir=None,
    embedder=None,
) -> tuple[TokenizerModel, list[EpochLog]]:
    """Run both phases and return the trained model plus per-epoch logs."""
    if not dataset:
        raise EmptyDataset("training requires at least one graph")
    if embedder is None:
        embedder = HashingEmbedder(dim=cfg.d_s)
    if embedder.dim != cfg.d_s:
        raise ValidationError(f"embedder dim {embedder.dim} != configured d_s {cfg.d_s}")

    rng = np.random.default_rng(cfg.seed)
    enc, dec = init_params(cfg.d_s, cfg.hidden, cfg.d, cfg.d_r, rng)
    # gaussian fallback codebook; replaced by k-means when warm-up runs
    entries = rng.normal(0.0, 0.1, size=(cfg.k, cfg.d))
    prepared = [prepare_graph(g, cfg.strategy, embedder) for g in dataset]
    logs: list[EpochLog] = []

    def evaluate(epoch: int, cb: Codebook | None) -> EpochLog:
        """Loss of the current parameters over the whole dataset."""
        sums = np.zeros(3)  # recon, gap, total
        selected: set[int] = set()
        for pg in prepared:
            state = forward(pg.a_target, pg.anorm, pg.x, enc, dec, cb, cfg.beta)
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

    def update_pass(cb: Codebook | None, opt: Adam, params: dict) -> None:
        for batch in _minibatches(len(prepared), cfg.batch_size, rng):
            sums = {name: np.zeros_like(p) for name, p in params.items()}
            for idx in batch:
                pg = prepared[idx]
                state = forward(pg.a_target, pg.anorm, pg.x, enc, dec, cb, cfg.beta)
                grads = backward(state, enc, dec, cb, cfg.straight_through)
                for name, total in sums.items():
                    total += getattr(grads, name)
            factor = 1.0 / len(batch)
            opt.step(params, {name: total * factor for name, total in sums.items()})

    def snapshot(epoch: int, cb: Codebook | None) -> None:
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

    # each epoch logs the loss of its entry parameters, then updates;
    # a closing row records the final model
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
        for pg in prepared:
            h, _ = encode(pg.anorm, pg.x, enc)
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


@dataclass(frozen=True)
class TokenAssignment:
    graph_id: str
    graph_token: StructuralToken
    node_tokens: tuple[StructuralToken, ...]


def graph_embedding(g: Graph, model: TokenizerModel, embedder=None) -> np.ndarray:
    """Continuous latent rows for the augmented graph; global row last."""
    if embedder is None:
        embedder = HashingEmbedder(dim=model.d_s)
    pg = prepare_graph(g, model.strategy, embedder)
    return encode(pg.anorm, pg.x, model.enc)[0]


def tokens_from_embedding(graph_id: str, h: np.ndarray, cb: Codebook) -> TokenAssignment:
    """Tokens of graph_embedding() rows; the last (global-node) row is the graph token."""
    sel = quantize(h, cb)
    return TokenAssignment(
        graph_id=graph_id,
        graph_token=StructuralToken(index=int(sel.indices[-1])),
        node_tokens=tuple(StructuralToken(index=int(i)) for i in sel.indices[:-1]),
    )


def assign_token(g: Graph, model: TokenizerModel, embedder=None) -> TokenAssignment:
    """Tokenize a whole graph: the global-node row picks the graph token."""
    return tokens_from_embedding(g.id, graph_embedding(g, model, embedder), model.codebook)


def assign_node_tokens(
    g: Graph, center: int, model: TokenizerModel, hops: int = 2, embedder=None
) -> StructuralToken:
    """Tokenize the center node, ego index 0, of its ego-graph (no global node added)."""
    if embedder is None:
        embedder = HashingEmbedder(dim=model.d_s)
    sub, _ = ego_graph(g, center, hops)
    pg = prepare_graph(sub, model.strategy, embedder, include_global=False)
    h, _ = encode(pg.anorm, pg.x, model.enc)
    return StructuralToken(index=int(nearest(h[:1], model.codebook.entries)[0]))


def format_token_table(assignments: list[TokenAssignment]) -> str:
    """Token table: id, graph token surface form, node token indices."""
    lines = ["id\tgraph_token\tnode_tokens"]
    for a in sorted(assignments, key=lambda a: a.graph_id):
        node_part = ",".join(str(t.index) for t in a.node_tokens)
        lines.append(f"{a.graph_id}\t{a.graph_token.surface}\t{node_part}")
    return "\n".join(lines) + "\n"


def export_token_table(assignments: list[TokenAssignment], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_token_table(assignments))
