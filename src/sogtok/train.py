"""Two-phase tokenizer training and token assignment.

Phase 1 pretrains encoder+decoder on adjacency reconstruction alone (the
decoder reads the continuous embeddings; the codebook is untouched).
The codebook is then initialized by seeded k-means over the gathered
node+global embeddings, and phase 2 jointly optimizes the full three-term
loss with separate learning rates for the GCN/decoder and the codebook.

Training and the read path share prepare_graphs(): it takes each node's
index into its size bucket's distinct attribute strings from the ranking and
keeps table row numbers, so neither builds a per-node attribute map.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import TypeVar

import numpy as np

from .attributes import (
    DEFAULT_EMBED_DIM,
    GLOBAL_ATTRIBUTE,
    HashingEmbedder,
    ImportanceStrategy,
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

# A structural token is the index k of a codebook entry; <SOG_k> is its one
# spelling in every file, ASCII decimal without leading zeros.
TOKEN_RE = re.compile(r"<SOG_(0|[1-9][0-9]*)>")


def token_text(k: int) -> str:
    """The spelling of token k, which TOKEN_RE matches in full."""
    return f"<SOG_{k}>"


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

    positions: np.ndarray  # the graphs' indices in the iterable given to prepare_graphs()
    a_target: np.ndarray  # (B, m, m) bool adjacency (augmented unless include_global=False), reconstruction target
    anorm: np.ndarray  # (B, m, m)
    x_index: np.ndarray  # (B, m): x's rows of the table, global row last


def prepare_graphs(
    graphs: Iterable[Graph], strategy: ImportanceStrategy, embedder, include_global: bool = True
) -> tuple[np.ndarray, list[PreparedBucket]]:
    """Encoder inputs of the graphs, which may be a lazy iterable, ranked and
    prepared READ_BLOCK at a time: one bucket per node count of a block (a
    large count may take several), in the declared order of _walk. The
    virtual global node is appended unless include_global=False. Each distinct
    attribute string is embedded once, into the returned table; a graph's
    features are x = table[x_index], so the buckets hold row numbers."""
    row_of: dict[str, int] = {GLOBAL_ATTRIBUTE: 0} if include_global else {}
    prepared, first_seen, offset = [], {}, 0
    for block in _blocks(graphs):
        for positions, adjacency, index, names in attribute_buckets(block, strategy):
            rows = np.array([row_of.setdefault(s, len(row_of)) for s in names], dtype=np.intp)
            b, n, _ = adjacency.shape
            m = n + include_global
            a = np.zeros((b, m, m), dtype=bool)
            a[:, :n, :n] = adjacency
            x_index = np.zeros((b, m), dtype=np.intp)  # a global node's column keeps row 0
            x_index[:, :n] = rows[index]
            a[:, :n, n:] = a[:, n:, :n] = True  # the global node's edges, if any
            first_seen.setdefault(m, len(first_seen))
            prepared.append(PreparedBucket(np.add(positions, offset), a, normalized_adjacency(a), x_index))
        offset += len(block)
    if not prepared:
        return np.empty((0, embedder.dim)), []
    # a stable sort: the blocks' buckets of one node count stay in block order
    prepared.sort(key=lambda bucket: first_seen[bucket.a_target.shape[1]])
    table = np.vstack([embedder.embed(s) for s in row_of])
    if table.shape[1] != embedder.dim:
        raise DimensionMismatch(
            f"embedder produced dimension {table.shape[1]}, configured {embedder.dim}"
        )
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
    """Plain Lloyd iterations with seeded initialization; deterministic.

    iters is a cap: an assignment equal to the previous one is a fixed point.
    The loop draws nothing from rng and a cluster without members keeps its
    center, so every later iteration would repeat this one bit for bit, and
    the centers are returned as they are."""
    n, d = rows.shape
    if n >= k:
        centers = rows[rng.choice(n, size=k, replace=False)].copy()
    else:
        pad = rows.mean(axis=0) + rng.normal(0.0, 0.1, size=(k - n, d))
        centers = np.vstack([rows.copy(), pad])
    previous = None
    for _ in range(iters):
        assign = nearest(rows, centers)
        if previous is not None and np.array_equal(assign, previous):
            break
        previous = assign
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


# Graphs encoded, searched and differentiated at once in training, and encoded
# at once on the read path. A walk takes its graphs in the declared order (see
# _walk), so a block splits into one stack, a forward and a backward call, per
# size bucket it spans. A stack's per-graph gradients live until they are
# summed (72 KB per graph at d_s = d_h = d = 64), so larger blocks raise peak
# memory, and smaller ones make more calls.
TRAIN_BLOCK = 24

# One stack of a walk: the graphs' positions and their stacked a_target, anorm and x.
Stack = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _walk(
    table: np.ndarray, buckets: list[PreparedBucket], places: np.ndarray | None = None
) -> Iterator[list[Stack]]:
    """The graphs at `places` (all by default) in the declared order, in blocks
    of at most TRAIN_BLOCK. The declared order is the buckets' positions
    concatenated: node counts in order of first appearance, then position
    within a node count; a graph's place is its index in that order. Each run
    of a block's graphs in one bucket is one stack."""
    starts = np.cumsum([0] + [len(b.positions) for b in buckets])
    places = np.arange(starts[-1]) if places is None else np.sort(places)
    for i in range(0, len(places), TRAIN_BLOCK):
        block = places[i : i + TRAIN_BLOCK]
        which = np.searchsorted(starts, block, side="right") - 1
        stacks = []
        # the runs in order; np.unique(which) would import numpy.ma, ~0.5 MB
        for b in dict.fromkeys(which.tolist()):
            bucket, slots = buckets[b], block[which == b] - starts[b]
            stacks.append((bucket.positions[slots], bucket.a_target[slots], bucket.anorm[slots],
                           table[bucket.x_index[slots]]))
        yield stacks


def _add_entry_rows(sums: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> None:
    """Add rows to the codebook sums (K, d) of their entries, in place, where
    keys[i] = graph · K + entry of rows[i] and graphs are numbered in walk
    order: each graph's rows summed per entry in row order, then those sums
    added to the entries graph by graph. np.bincount adds its weights in input
    order, so the sums get the bytes of np.add.at in those orders."""
    k, d = sums.shape
    keys, inverse = np.unique(keys, return_inverse=True)
    entries, slot = np.unique(keys % k, return_inverse=True)
    cols = np.arange(d)
    per_key = np.bincount((inverse[:, None] * d + cols).ravel(), weights=rows.ravel(),
                          minlength=len(keys) * d)
    # the entries' current sums come first, then the graphs' sums (keys ascend)
    bins = np.concatenate([np.arange(len(entries) * d), (slot[:, None] * d + cols).ravel()])
    sums[entries] = np.bincount(bins, weights=np.concatenate([sums[entries].ravel(), per_key])
                                ).reshape(-1, d)


class _Tally:
    """What an epoch's log reads of a walk over every graph: each graph's
    losses (recon, gap, total), added up in dataset order, and whether each
    entry was selected."""

    def __init__(self, graphs: int, k: int):
        self.losses = np.empty((graphs, 3))
        self.used = np.zeros(k, dtype=bool)

    def add(self, at: np.ndarray, state: ForwardState) -> bool:
        """Record a stack's graphs; False when a total loss is not finite. The
        loss terms are sums of squares, so the mean is then not finite either."""
        self.losses[at, 0] = state.loss.reconstruction
        self.losses[at, 1] = state.loss.update
        self.losses[at, 2] = state.loss.total
        if state.sel is not None:
            self.used[state.sel.indices] = True
        return bool(np.isfinite(self.losses[at, 2]).all())

    def log(self, epoch: int, quantized: bool) -> EpochLog:
        """The epoch's log; NonFiniteLoss when the mean total loss is not finite."""
        # a cumulative sum adds the rows one at a time, in dataset order
        mean_recon, mean_gap, mean_total = np.cumsum(self.losses, axis=0)[-1] / len(self.losses)
        if not np.isfinite(mean_total):
            raise NonFiniteLoss(epoch, f"mean total loss {mean_total}")
        k, selected = len(self.used), int(self.used.sum())
        return EpochLog(
            epoch=epoch,
            recon=mean_recon,
            update=mean_gap,
            commit=mean_gap,
            total=mean_total,
            utilization=selected / k if quantized else 0.0,
            dead_entries=k - selected if quantized else k,
        )


def _gather_rows(
    table: np.ndarray, buckets: list[PreparedBucket], enc: EncoderParams, counts: np.ndarray,
    take: slice,
) -> np.ndarray:
    """The rows h[take] of each prepared graph's latent rows h, stacked in
    graph order; graph i takes counts[i] rows."""
    starts = np.cumsum(counts) - counts
    rows = np.empty((counts.sum(), enc.d))
    for at, _, anorm, x in chain.from_iterable(_walk(table, buckets)):
        h = encode(anorm, x, enc)[0][:, take]
        rows[starts[at][:, None] + np.arange(h.shape[1])] = h
    return rows


def _kmeans_entries(
    rows: np.ndarray, sizes: np.ndarray, cfg: TrainConfig, rng: np.random.Generator
) -> np.ndarray:
    """The codebook that warm-up leaves: k-means over every latent row, or
    over the node rows and the global rows apart when cfg.global_share is
    set. Graph i has sizes[i] rows, its global row last."""
    if cfg.global_share is None:
        return kmeans(rows, cfg.k, rng)
    k_global = min(cfg.k - 1, max(1, round(cfg.k * cfg.global_share)))
    is_global = np.zeros(len(rows), dtype=bool)
    is_global[np.cumsum(sizes) - 1] = True
    return np.vstack(
        [
            kmeans(rows[~is_global], cfg.k - k_global, rng),
            kmeans(rows[is_global], k_global, rng),
        ]
    )


def train(
    dataset: Iterable[Graph],
    cfg: TrainConfig,
    checkpoint_dir=None,
    embedder=None,
) -> tuple[TokenizerModel, list[EpochLog]]:
    """Run both phases and return the trained model plus per-epoch logs.

    dataset may be a stream: training holds prepare_graphs()'s buckets, not
    the graphs, and takes the graph count and node counts from the buckets.
    Evaluation, each minibatch of an update pass and the k-means gather are
    walks in the declared order (_walk): blocks of at most TRAIN_BLOCK graphs,
    one stack per size bucket a block spans, each stack one forward and one
    backward pass, and all latent rows of a block go through one quantize()
    call. Per-graph losses and gradients are added up one graph at a time: the
    logged losses in dataset order, a minibatch's gradients in the declared
    order, the dense ones as soon as a stack's backward pass returns and the
    codebook's once per block (_add_entry_rows). So every sum has the bytes of
    a loop over single graphs in those orders. An epoch logs the loss of the
    parameters it starts with: a full-batch epoch takes it from its update
    walk, which is evaluation's walk at those parameters, and a minibatch
    epoch evaluates first."""
    if embedder is None:
        embedder = HashingEmbedder(dim=cfg.d_s)
    if embedder.dim != cfg.d_s:
        raise ValidationError(f"embedder dim {embedder.dim} != configured d_s {cfg.d_s}")

    rng = np.random.default_rng(cfg.seed)
    enc, dec = init_params(cfg.d_s, cfg.hidden, cfg.d, cfg.d_r, rng)
    # gaussian fallback codebook; replaced by k-means when warm-up runs
    entries = rng.normal(0.0, 0.1, size=(cfg.k, cfg.d))
    table, buckets = prepare_graphs(dataset, cfg.strategy, embedder)
    if not buckets:
        raise EmptyDataset("training requires at least one graph")
    place = np.argsort(np.concatenate([b.positions for b in buckets]))  # each graph's, see _walk
    logs: list[EpochLog] = []

    def block_pass(stacks: list[Stack], cb: Codebook | None) -> Iterator[tuple[np.ndarray, ForwardState]]:
        """Forward state of each stack of a block; one search serves all the
        block's latent rows."""
        encoded = [encode(anorm, x, enc) for _, _, anorm, x in stacks]
        found = None
        if cb is not None:
            found = quantize(np.concatenate([h.reshape(-1, cfg.d) for h, _ in encoded]), cb)
        start = 0
        for (at, a, anorm, x), (h, products) in zip(stacks, encoded):
            sel = None if found is None else found.part(start, h.shape)
            start += h.shape[0] * h.shape[1]
            yield at, forward(a, anorm, x, enc, dec, cb, cfg.beta, encoded=(h, products), sel=sel)

    def evaluate(epoch: int, cb: Codebook | None) -> EpochLog:
        """Log of the current parameters over every graph."""
        walked = _Tally(len(place), cfg.k)
        for stacks in _walk(table, buckets):
            for at, state in block_pass(stacks, cb):
                walked.add(at, state)
        return walked.log(epoch, cb is not None)

    def epoch_pass(epoch: int, cb: Codebook | None, opt: Adam, params: dict) -> EpochLog:
        """The log of the parameters the epoch starts with, then one Adam step
        per minibatch. One batch of the whole dataset walks the blocks that
        evaluation walks, at the same parameters, so its own forward states
        give the log, checked before the step."""
        batches = _minibatches(len(place), cfg.batch_size, rng)
        walked = _Tally(len(place), cfg.k) if len(batches) == 1 else None
        log = evaluate(epoch, cb) if walked is None else None
        dense = [name for name in params if name != "codebook"]
        for batch in batches:
            sums = {name: np.zeros_like(p) for name, p in params.items()}
            for stacks in _walk(table, buckets, place[batch]):
                entry_keys, entry_rows = [], []  # the block's update-term rows
                for at, state in block_pass(stacks, cb):
                    if walked is not None and not walked.add(at, state):
                        continue  # the log raises NonFiniteLoss before the step
                    grads = backward(state, enc, dec)
                    for name in dense:
                        for graph_grad in getattr(grads, name):
                            sums[name] += graph_grad
                    if grads.entry_rows is not None:
                        # a graph's place numbers it in walk order
                        entry_keys.append((place[at][:, None] * cfg.k + grads.indices).ravel())
                        entry_rows.append(grads.entry_rows.reshape(-1, cfg.d))
                if entry_keys:
                    _add_entry_rows(sums["codebook"], np.concatenate(entry_keys),
                                    np.concatenate(entry_rows))
            if walked is not None:
                log = walked.log(epoch, cb is not None)
            for total in sums.values():
                total *= 1.0 / len(batch)
            opt.step(params, sums)
        return log

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
        logs.append(epoch_pass(epoch, None, warm_opt, warm_params))
        snapshot(epoch, None)
        epoch += 1

    if cfg.warmup_epochs > 0:
        # every latent row, graph by graph, global row last; held only
        # while k-means runs
        sizes = np.concatenate([[b.a_target.shape[1]] * len(b.positions) for b in buckets])[place]
        entries = _kmeans_entries(_gather_rows(table, buckets, enc, sizes, slice(None)), sizes, cfg, rng)

    cb = Codebook(entries=entries)
    joint_opt = Adam(
        {"w1": cfg.lr_gcn, "w2": cfg.lr_gcn, "wd": cfg.lr_gcn, "codebook": cfg.lr_codebook}
    )
    joint_params = {"w1": enc.w1, "w2": enc.w2, "wd": dec.wd, "codebook": cb.entries}
    for _ in range(cfg.joint_epochs):
        logs.append(epoch_pass(epoch, cb, joint_opt, joint_params))
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
    graph_token: int
    node_tokens: tuple[int, ...]


READ_BLOCK = 512  # graphs prepared at once, and on the read path encoded and searched at once
GLOBAL_ROW = slice(-1, None)  # the row that gives a graph its token
CENTER_ROW = slice(0, 1)  # the row that gives an ego-graph's center its token
T = TypeVar("T")


def _blocks(graphs: Iterable[Graph]) -> Iterator[list[Graph]]:
    it = iter(graphs)  # READ_BLOCK at a time; iter(f, sentinel) keeps no block it has handed on
    return iter(lambda: list(islice(it, READ_BLOCK)), [])


@dataclass(frozen=True)
class EncodedBlock:
    """One block of the read path, handed to the function that uses it."""

    graphs: list[Graph]
    rows: np.ndarray  # the rows h[take] of each graph's latent rows h, stacked in graph order
    tokens: list[int]  # each row's nearest codebook entry


def _encode_block(
    block: list[Graph], model: TokenizerModel, use: Callable[[EncodedBlock], T], embedder,
    include_global: bool, take: slice,
) -> T:
    """use() of one block, encoded; nothing else of the block outlives the call."""
    table, buckets = prepare_graphs(block, model.strategy, embedder, include_global)
    counts = np.array([len(range(g.n + include_global)[take]) for g in block])  # rows of each h[take]
    rows = _gather_rows(table, buckets, model.enc, counts, take)
    return use(EncodedBlock(block, rows, nearest(rows, model.codebook.entries).tolist()))


def encoded_blocks(
    graphs: Iterable[Graph],
    model: TokenizerModel,
    use: Callable[[EncodedBlock], T],
    embedder=None,
    include_global: bool = True,
    take: slice = slice(None),
) -> Iterator[T]:
    """The read path: prepare graphs READ_BLOCK at a time and encode each
    block in the stacks of _walk, which bound the encoder's temporaries as in
    training. Yields use(block) for each block, lazily: its graphs, the rows
    h[take] of their latent rows h (global row last unless
    include_global=False), stacked in graph order, and each row's token, the
    index of its nearest codebook entry, found by one search of the block.
    A row's entry does not depend on the other rows, so a graph's <SOG_k> is
    the token of its global row whatever else is taken. graphs may be a lazy
    iterable. A block lives only while use() runs, so
    what use() returns is all that a caller can hold of it while the next
    block is read and prepared."""
    if embedder is None:
        embedder = HashingEmbedder(dim=model.d_s)
    return map(partial(_encode_block, model=model, use=use, embedder=embedder,
                       include_global=include_global, take=take), _blocks(graphs))


def graph_embedding(g: Graph, model: TokenizerModel, embedder=None) -> np.ndarray:
    """Continuous latent rows for the augmented graph; global row last."""
    return next(encoded_blocks([g], model, lambda b: b.rows, embedder))


def _token_assignments(b: EncodedBlock) -> list[TokenAssignment]:
    out, end = [], 0
    for g in b.graphs:
        start, end = end, end + g.n + 1
        out.append(TokenAssignment(g.id, b.tokens[end - 1], tuple(b.tokens[start : end - 1])))
    return out


def assign_tokens(graphs: Iterable[Graph], model: TokenizerModel, embedder=None) -> list[TokenAssignment]:
    """Graph token and node tokens of each graph, for the token table; the
    only caller that takes node rows of whole graphs."""
    return list(chain.from_iterable(encoded_blocks(graphs, model, _token_assignments, embedder)))


def assign_token(g: Graph, model: TokenizerModel, embedder=None) -> TokenAssignment:
    """assign_tokens() of one graph."""
    return assign_tokens([g], model, embedder)[0]


def node_tokens(
    centers: Iterable[tuple[Graph, int]], model: TokenizerModel, hops: int = 2, embedder=None
) -> list[int]:
    """Token of each (graph, center) pair: the center node, ego index 0, of its
    ego-graph (no global node added)."""
    egos = (ego_graph(g, center, hops)[0] for g, center in centers)
    blocks = encoded_blocks(egos, model, lambda b: b.tokens, embedder, include_global=False,
                            take=CENTER_ROW)
    return list(chain.from_iterable(blocks))


def assign_node_tokens(
    g: Graph, center: int, model: TokenizerModel, hops: int = 2, embedder=None
) -> int:
    """node_tokens() of one center."""
    return node_tokens([(g, center)], model, hops, embedder)[0]


def format_token_table(assignments: list[TokenAssignment]) -> str:
    """Token table: id, graph token, node token indices."""
    lines = ["id\tgraph_token\tnode_tokens"]
    for a in sorted(assignments, key=lambda a: a.graph_id):
        node_part = ",".join(map(str, a.node_tokens))
        lines.append(f"{a.graph_id}\t{token_text(a.graph_token)}\t{node_part}")
    return "\n".join(lines) + "\n"
