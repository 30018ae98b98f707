"""Two-phase tokenizer training and token assignment.

Phase 1 pretrains encoder+decoder on adjacency reconstruction alone (the
decoder reads the continuous embeddings; the codebook is untouched).
The codebook is then initialized by seeded k-means over the gathered
node+global embeddings, and phase 2 jointly optimizes the full three-term
loss with separate learning rates for the GCN/decoder and the codebook.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .attributes import (
    DEFAULT_EMBED_DIM,
    GLOBAL_ATTRIBUTE,
    HashingEmbedder,
    ImportanceStrategy,
    StructuralAttributeMap,
    attribute_buckets,
)
from .errors import DimensionMismatch, EmptyDataset, NonFiniteLoss, ValidationError
from .graph import Graph, ego_graph
from .model import (
    Adam,
    Codebook,
    DecoderParams,
    EncoderParams,
    ForwardState,
    Gradients,
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
    batch_size: int | None = None  # None = full batch
    # None: one k-means over all gathered rows. A float in (0, 1): stratified
    # init, reserving that share of entries for the pooled (global-node) rows,
    # which a single variance-minimizing k-means otherwise starves of cells.
    global_share: float | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("codebook size K must be >= 2")
        for name in ("lr_warmup", "lr_gcn", "lr_codebook", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        for name in ("d_s", "d_h", "d", "d_r"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"dimension {name} must be >= 1, got {value}")
        if self.warmup_epochs < 0 or self.joint_epochs < 0:
            raise ValidationError("epoch counts must be >= 0")
        if self.global_share is not None and not (0.0 < self.global_share < 1.0):
            raise ValidationError("global_share must be in (0, 1) or None")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1 or None, got {self.batch_size}")

    @property
    def hidden(self) -> int:
        return self.d_h if self.d_h is not None else self.d_s


@dataclass(frozen=True)
class PreparedBucket:
    """Encoder inputs of graphs with one node count m, stacked; reused across
    epochs."""

    positions: list[int]  # the graphs' places in the list given to prepare_graphs()
    attrs: list[StructuralAttributeMap]
    a_target: np.ndarray  # (B, m, m) adjacency (augmented unless include_global=False), reconstruction target
    anorm: np.ndarray  # (B, m, m)
    x_index: np.ndarray  # (B, m): x's rows of the table, global row last


def prepare_graphs(
    graphs: list[Graph], strategy: ImportanceStrategy, embedder, include_global: bool = True
) -> tuple[np.ndarray, list[PreparedBucket]]:
    """Encoder inputs of the graphs, one bucket per node count (a large count
    may take several); the virtual global node is appended unless
    include_global=False. Each distinct attribute string is embedded once,
    into the returned table; a graph's features are x = table[x_index], so
    the buckets hold row numbers, not a vector per node."""
    if not graphs:
        return np.empty((0, embedder.dim)), []
    buckets = list(attribute_buckets(graphs, strategy))
    row_of: dict[str, int] = {GLOBAL_ATTRIBUTE: 0} if include_global else {}
    codes = [
        [[row_of.setdefault(s, len(row_of)) for s in attrs.attribute_of] for attrs in maps]
        for _, _, maps in buckets
    ]
    table = np.vstack([embedder.embed(s) for s in row_of])
    if table.shape[1] != embedder.dim:
        raise DimensionMismatch(
            f"embedder produced dimension {table.shape[1]}, configured {embedder.dim}"
        )
    prepared = []
    for (positions, adjacency, maps), code in zip(buckets, codes):
        b, n, _ = adjacency.shape
        m = n + include_global
        a = np.zeros((b, m, m))
        a[:, :n, :n] = adjacency
        if include_global:
            a[:, :n, n] = a[:, n, :n] = 1.0
            code = [row + [0] for row in code]
        prepared.append(PreparedBucket(positions, maps, a, normalized_adjacency(a), np.array(code)))
    return table, prepared


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
        # each cluster's members in row order, as a boolean mask selects them
        counts = np.bincount(assign, minlength=k)
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            centers[j] = rows[order[ends[j] - counts[j] : ends[j]]].mean(axis=0)
    return centers


def _minibatches(
    n: int, batch_size: int | None, rng: np.random.Generator
) -> list[np.ndarray]:
    order = np.arange(n)
    if batch_size is None or batch_size >= n:
        return [order]
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


# Graphs encoded, searched and differentiated at once in training. A block
# holds the gradients of each graph that waits for an earlier one of its
# minibatch (72 KB per graph at d_s = d_h = d = 64), so larger blocks raise
# peak memory, and smaller ones split into more single-size stacks, each a
# forward and a backward call.
TRAIN_BLOCK = 24


def _blocks(order: np.ndarray) -> Iterator[np.ndarray]:
    return (order[i : i + TRAIN_BLOCK] for i in range(0, len(order), TRAIN_BLOCK))


def train(
    dataset: list[Graph],
    cfg: TrainConfig,
    checkpoint_dir=None,
    embedder=None,
) -> tuple[TokenizerModel, list[EpochLog]]:
    """Run both phases and return the trained model plus per-epoch logs.

    Every pass walks the graphs in blocks of TRAIN_BLOCK: a block's graphs of
    one bucket form a stack with one forward and one backward pass, and all
    latent rows of the block go through one quantize() call. Per-graph
    losses and gradients are added up one graph at a time, in dataset order
    for the logged losses and in minibatch order for the gradients, so every
    sum has the bytes of a loop over single graphs."""
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
    table, buckets = prepare_graphs(dataset, cfg.strategy, embedder)
    # each graph's bucket and its slot in that bucket
    bucket_of = np.empty(len(dataset), dtype=np.int64)
    slot_of = np.empty(len(dataset), dtype=np.int64)
    for b, bucket in enumerate(buckets):
        bucket_of[bucket.positions] = b
        slot_of[bucket.positions] = np.arange(len(bucket.positions))
    logs: list[EpochLog] = []

    def stacks(block: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Each bucket's share of a block, in the order of its first graph: the
        graphs' places in the block and their stacked a_target, anorm and x."""
        here = bucket_of[block]
        for b in dict.fromkeys(here.tolist()):
            at = np.flatnonzero(here == b)
            bucket, slots = buckets[b], slot_of[block[at]]
            yield at, bucket.a_target[slots], bucket.anorm[slots], table[bucket.x_index[slots]]

    def block_pass(block: np.ndarray, cb: Codebook | None) -> Iterator[tuple[np.ndarray, ForwardState]]:
        """Forward state of each stack of a block; one search serves all the
        block's latent rows."""
        groups = list(stacks(block))
        encoded = [encode(anorm, x, enc) for _, _, anorm, x in groups]
        found = None
        if cb is not None:
            found = quantize(np.concatenate([h.reshape(-1, cfg.d) for h, _ in encoded]), cb)
        start = 0
        for (at, a, anorm, x), (h, z1) in zip(groups, encoded):
            sel = None if found is None else found.part(start, h.shape)
            start += h.shape[0] * h.shape[1]
            yield at, forward(a, anorm, x, enc, dec, cb, cfg.beta, encoded=(h, z1), sel=sel)

    def evaluate(epoch: int, cb: Codebook | None) -> EpochLog:
        """Loss of the current parameters over the whole dataset."""
        sums = np.zeros(3)  # recon, gap, total
        used = np.zeros(cfg.k, dtype=bool)
        for block in _blocks(np.arange(len(dataset))):
            losses = np.empty((len(block), 3))
            for at, state in block_pass(block, cb):
                losses[at, 0] = state.loss.reconstruction
                losses[at, 1] = state.loss.update
                losses[at, 2] = state.loss.total
                if state.sel is not None:
                    used[state.sel.indices] = True
            for row in losses:  # dataset order
                sums += row
        mean_recon, mean_gap, mean_total = sums / len(dataset)
        if not np.isfinite(mean_total):
            raise NonFiniteLoss(epoch, f"mean total loss {mean_total}")
        selected = int(used.sum())
        return EpochLog(
            epoch=epoch,
            recon=mean_recon,
            update=mean_gap,
            commit=mean_gap,
            total=mean_total,
            utilization=selected / cfg.k if cb is not None else 0.0,
            dead_entries=cfg.k - selected if cb is not None else cfg.k,
        )

    def update_pass(cb: Codebook | None, opt: Adam, params: dict) -> None:
        dense = [name for name in params if name != "codebook"]
        for batch in _minibatches(len(dataset), cfg.batch_size, rng):
            sums = {name: np.zeros_like(p) for name, p in params.items()}
            for block in _blocks(batch):
                # each graph's gradients join the sums in minibatch order, as
                # soon as the graphs before it have joined
                waiting: dict[int, tuple[Gradients, int]] = {}
                joined = 0
                entry_keys, entry_rows = [], []
                for at, state in block_pass(block, cb):
                    grads = backward(state, enc, dec, cb)
                    waiting.update((pos, (grads, slot)) for slot, pos in enumerate(at.tolist()))
                    while joined in waiting:
                        grads_of, slot = waiting.pop(joined)
                        for name in dense:
                            sums[name] += getattr(grads_of, name)[slot]
                        joined += 1
                    if grads.entry_rows is not None:
                        entry_keys.append((at[:, None] * cfg.k + grads.indices).ravel())
                        entry_rows.append(grads.entry_rows.reshape(-1, cfg.d))
                if entry_rows:
                    # each graph's rows summed per entry in row order, then
                    # added to the entries graph by graph
                    keys, inverse = np.unique(np.concatenate(entry_keys), return_inverse=True)
                    per_graph = np.zeros((len(keys), cfg.d))
                    np.add.at(per_graph, inverse, np.concatenate(entry_rows))
                    np.add.at(sums["codebook"], keys % cfg.k, per_graph)
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
        # every latent row, graph by graph, global row last
        sizes = np.array([g.n + 1 for g in dataset])
        ends = np.cumsum(sizes)
        starts = ends - sizes
        rows = np.empty((ends[-1], cfg.d))
        for block in _blocks(np.arange(len(dataset))):
            for at, _, anorm, x in stacks(block):
                h, _ = encode(anorm, x, enc)
                rows[starts[block[at]][:, None] + np.arange(h.shape[1])] = h
        if cfg.global_share is None:
            entries = kmeans(rows, cfg.k, rng)
        else:
            k_global = min(cfg.k - 1, max(1, round(cfg.k * cfg.global_share)))
            is_global = np.zeros(len(rows), dtype=bool)
            is_global[ends - 1] = True
            entries = np.vstack(
                [
                    kmeans(rows[~is_global], cfg.k - k_global, rng),
                    kmeans(rows[is_global], k_global, rng),
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


READ_BLOCK = 512  # graphs prepared, encoded and searched at once on the read path
GLOBAL_ROW = slice(-1, None)  # the row that gives a graph its token
CENTER_ROW = slice(0, 1)  # the row that gives an ego-graph's center its token


def encoded_blocks(
    graphs: Iterable[Graph],
    model: TokenizerModel,
    embedder=None,
    include_global: bool = True,
    take: slice = slice(None),
) -> Iterator[tuple[list[Graph], list[StructuralAttributeMap], np.ndarray]]:
    """The read path: prepare graphs READ_BLOCK at a time and encode each
    bucket of a block in stacks of at most TRAIN_BLOCK graphs, which bound the
    encoder's temporaries as in training. Yields each block's graphs, their
    attribute maps and the rows h[take] of their latent rows h (global row
    last unless include_global=False), stacked in graph order, so that a
    caller searches a block with one nearest() call; a row's entry does not
    depend on the other rows. graphs may be a lazy iterable. Only one block's
    inputs are held, and only the rows taken are kept."""
    if embedder is None:
        embedder = HashingEmbedder(dim=model.d_s)
    it = iter(graphs)
    while block := list(islice(it, READ_BLOCK)):
        table, buckets = prepare_graphs(block, model.strategy, embedder, include_global)
        counts = np.array([len(range(g.n + include_global)[take]) for g in block])  # rows of each h[take]
        starts = np.cumsum(counts) - counts
        rows = np.empty((counts.sum(), model.enc.d))
        attrs: list[StructuralAttributeMap | None] = [None] * len(block)
        for bucket in buckets:
            for s in range(0, len(bucket.positions), TRAIN_BLOCK):
                part = slice(s, s + TRAIN_BLOCK)
                h = encode(bucket.anorm[part], table[bucket.x_index[part]], model.enc)[0][:, take]
                rows[starts[bucket.positions[part]][:, None] + np.arange(h.shape[1])] = h
            for pos, a in zip(bucket.positions, bucket.attrs):
                attrs[pos] = a
        del table, buckets, h  # not held while the caller works or the next block is prepared
        yield block, attrs, rows


def graph_embedding(g: Graph, model: TokenizerModel, embedder=None) -> np.ndarray:
    """Continuous latent rows for the augmented graph; global row last."""
    _, _, h = next(encoded_blocks([g], model, embedder))
    return h


def graph_tokens(global_rows: np.ndarray, cb: Codebook) -> list[StructuralToken]:
    """Each graph's <SOG_k>: the entry nearest its global-node row, the last
    row of its graph_embedding(). One search serves all the rows given."""
    return [StructuralToken(index=int(i)) for i in nearest(global_rows, cb.entries)]


def graph_token(h: np.ndarray, cb: Codebook) -> StructuralToken:
    """A graph's <SOG_k>: the entry nearest its global-node row, the last
    row of graph_embedding()."""
    return graph_tokens(h[GLOBAL_ROW], cb)[0]


def assign_tokens(graphs: Iterable[Graph], model: TokenizerModel, embedder=None) -> list[TokenAssignment]:
    """Graph token and node tokens of each graph, for the token table; the
    only caller that quantizes node rows. A block's rows go through one
    search, so each last row's entry is the graph_token() of the same
    embedding."""
    out = []
    for block, _, rows in encoded_blocks(graphs, model, embedder):
        indices = nearest(rows, model.codebook.entries).tolist()
        del rows  # before the next block is prepared
        end = 0
        for g in block:
            start, end = end, end + g.n + 1
            out.append(
                TokenAssignment(
                    graph_id=g.id,
                    graph_token=StructuralToken(index=indices[end - 1]),
                    node_tokens=tuple(StructuralToken(index=i) for i in indices[start : end - 1]),
                )
            )
    return out


def assign_token(g: Graph, model: TokenizerModel, embedder=None) -> TokenAssignment:
    """assign_tokens() of one graph."""
    return assign_tokens([g], model, embedder)[0]


def node_tokens(
    centers: Iterable[tuple[Graph, int]], model: TokenizerModel, hops: int = 2, embedder=None
) -> list[StructuralToken]:
    """Token of each (graph, center) pair: the center node, ego index 0, of its
    ego-graph (no global node added)."""
    egos = (ego_graph(g, center, hops)[0] for g, center in centers)
    out = []
    for _, _, rows in encoded_blocks(egos, model, embedder, include_global=False, take=CENTER_ROW):
        out.extend(StructuralToken(index=int(i)) for i in nearest(rows, model.codebook.entries))
    return out


def assign_node_tokens(
    g: Graph, center: int, model: TokenizerModel, hops: int = 2, embedder=None
) -> StructuralToken:
    """node_tokens() of one center."""
    return node_tokens([(g, center)], model, hops, embedder)[0]


def format_token_table(assignments: list[TokenAssignment]) -> str:
    """Token table: id, graph token surface form, node token indices."""
    lines = ["id\tgraph_token\tnode_tokens"]
    for a in sorted(assignments, key=lambda a: a.graph_id):
        node_part = ",".join(str(t.index) for t in a.node_tokens)
        lines.append(f"{a.graph_id}\t{a.graph_token.surface}\t{node_part}")
    return "\n".join(lines) + "\n"
