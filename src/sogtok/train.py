"""Two-phase tokenizer training and token assignment.

Phase 1 pretrains encoder+decoder on adjacency reconstruction alone (the
decoder reads the continuous embeddings; the codebook is untouched).
The codebook is then initialized by seeded k-means over the gathered
node+global embeddings, and phase 2 jointly optimizes the full three-term
loss with separate learning rates for the GCN/decoder and the codebook.

Training and the read path take blocks of graphs (ingest.GraphBlock, or
StackBlock for ego-graphs and relabelled copies taken from them by
indexing) and share prepare_block(): it ranks each adjacency stack of a
block, takes each node's index into its stack's distinct attribute strings
from the ranking and keeps table row numbers, so neither builds a Graph or
a per-node attribute map.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import TypeVar

import numpy as np

from . import ingest
from .attributes import (
    DEFAULT_EMBED_DIM,
    GLOBAL_ATTRIBUTE,
    HashingEmbedder,
    ImportanceStrategy,
    _Ranked,
    attribute_buckets,
)
from .errors import DimensionMismatch, EmptyDataset, NodeOutOfRange, NonFiniteLoss, ValidationError
from .graph import Graph, ego_stacks, size_buckets
from .ingest import GraphBlock, graph_blocks
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
    views,
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
    epochs. Training reads its target adjacency from anorm (train's block_pass)."""

    positions: np.ndarray  # the graphs' indices in their block, or in prepare_graphs()'s blocks
    anorm: np.ndarray  # (B, m, m), of the adjacency (augmented unless include_global=False)
    x_index: np.ndarray  # (B, m): x's rows of the table, global row last


class StackBlock:
    """A block of graphs given as adjacency stacks: len() graphs, graph k
    with sizes[k] nodes, and buckets() the (positions, (B, n, n) bool stack)
    pairs that hold them, as ingest.GraphBlock.buckets() gives its graphs."""

    def __init__(self, sizes: np.ndarray, stacks: list[tuple[np.ndarray, np.ndarray]]):
        self.sizes, self.stacks = sizes, stacks

    def __len__(self) -> int:
        return len(self.sizes)

    def buckets(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return iter(self.stacks)


def prepare_block(
    block, strategy: ImportanceStrategy, row_of: dict[str, int], include_global: bool
) -> Iterator[tuple[_Ranked, PreparedBucket]]:
    """The ranking and encoder inputs of each adjacency stack of a block. The
    virtual global node is appended unless include_global=False. A node's x
    row is the row of its attribute string in row_of, which gains an entry
    for each string it lacks."""
    for r, index, names in attribute_buckets(block, strategy):
        rows = np.array([row_of.setdefault(s, len(row_of)) for s in names], dtype=np.intp)
        b, n, _ = r.adjacency.shape
        m = n + include_global
        a = np.zeros((b, m, m), dtype=bool)
        a[:, :n, :n] = r.adjacency
        x_index = np.zeros((b, m), dtype=np.intp)  # a global node's column keeps row 0
        x_index[:, :n] = rows[index]
        a[:, :n, n:] = a[:, n:, :n] = True  # the global node's edges, if any
        yield r, PreparedBucket(r.positions, normalized_adjacency(a), x_index)


def _table(row_of: dict[str, int], embedder) -> np.ndarray:
    """The embedding of each string of row_of, in row order."""
    table = np.vstack([embedder.embed(s) for s in row_of])
    if table.shape[1] != embedder.dim:
        raise DimensionMismatch(
            f"embedder produced dimension {table.shape[1]}, configured {embedder.dim}"
        )
    return table


def prepare_graphs(
    blocks: Iterable[GraphBlock], strategy: ImportanceStrategy, embedder
) -> tuple[np.ndarray, list[PreparedBucket]]:
    """Training's encoder inputs of the blocks' graphs, which may come
    lazily, prepared a block at a time (prepare_block): one bucket per
    stack, in the declared order of _walk, each graph's position counted over
    all blocks. Each distinct attribute string is embedded once, into the
    returned table; a graph's features are x = table[x_index], so the
    buckets hold row numbers."""
    row_of: dict[str, int] = {GLOBAL_ATTRIBUTE: 0}
    prepared, first_seen, offset = [], {}, 0
    for block in blocks:
        for _, bucket in prepare_block(block, strategy, row_of, include_global=True):
            first_seen.setdefault(bucket.anorm.shape[1], len(first_seen))
            prepared.append(replace(bucket, positions=bucket.positions + offset))
        offset += len(block)
    if not prepared:
        return np.empty((0, embedder.dim)), []
    # a stable sort: the blocks' buckets of one node count stay in block order
    prepared.sort(key=lambda bucket: first_seen[bucket.anorm.shape[1]])
    return _table(row_of, embedder), prepared


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

# One stack of a walk: the graphs' positions and their stacked anorm and x.
Stack = tuple[np.ndarray, np.ndarray, np.ndarray]


def _walk(
    table: np.ndarray, buckets: list[PreparedBucket], places: np.ndarray | None = None
) -> Iterator[list[Stack]]:
    """The graphs at `places` (all by default) in the declared order, in blocks
    of at most TRAIN_BLOCK. The declared order is the buckets' positions
    concatenated: node counts in order of first appearance, then position
    within a node count; a graph's place is its index in that order. Each run
    of a block's graphs in one bucket is one stack. A stack of slots in one
    unbroken range, as every stack of a walk over all graphs is, takes its
    positions and anorm as views of the bucket's."""
    starts = np.cumsum([0] + [len(b.positions) for b in buckets])
    offsets = starts.tolist()
    places = np.arange(starts[-1]) if places is None else np.sort(places)
    for i in range(0, len(places), TRAIN_BLOCK):
        block = places[i : i + TRAIN_BLOCK]
        which = np.searchsorted(starts, block, side="right") - 1
        # places ascend, so each bucket's places are one run [lo, hi) of the block
        cuts = [0, *(np.flatnonzero(which[1:] != which[:-1]) + 1).tolist(), len(block)]
        owner, place = which.tolist(), block.tolist()
        stacks = []
        for lo, hi in zip(cuts, cuts[1:]):
            bucket, offset = buckets[owner[lo]], offsets[owner[lo]]
            first, last = place[lo] - offset, place[hi - 1] - offset
            slots = slice(first, last + 1) if last - first == hi - lo - 1 else block[lo:hi] - offset
            stacks.append((bucket.positions[slots], bucket.anorm[slots], table[bucket.x_index[slots]]))
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
        loss = state.loss
        total = loss.total
        self.losses[at, 0] = loss.reconstruction
        self.losses[at, 1] = loss.update
        self.losses[at, 2] = total
        if state.sel is not None:
            self.used[state.sel.indices] = True
        return bool(np.isfinite(total).all())

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
    for at, anorm, x in chain.from_iterable(_walk(table, buckets)):
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
    dataset: Iterable[GraphBlock],
    cfg: TrainConfig,
    checkpoint_dir=None,
    embedder=None,
) -> tuple[TokenizerModel, list[EpochLog]]:
    """Run both phases and return the trained model plus per-epoch logs.

    dataset is blocks of graphs, which may come lazily: training holds
    prepare_graphs()'s buckets, not the blocks, and takes the graph count
    and node counts from the buckets.
    Evaluation, each minibatch of an update pass and the k-means gather are
    walks in the declared order (_walk): blocks of at most TRAIN_BLOCK graphs,
    one stack per size bucket a block spans, each stack one forward and one
    backward pass, and all latent rows of a block go through one quantize()
    call. Per-graph losses and gradients are added up one graph at a time: the
    logged losses in dataset order, a minibatch's gradients in the declared
    order, the dense ones as soon as a stack's backward pass returns and the
    codebook's once per block (_add_entry_rows). So every sum has the bytes of
    a loop over single graphs in those orders. Each phase holds its
    parameters in one buffer and steps it with one Adam (phase). An epoch
    logs the loss of the parameters it starts with: a full-batch epoch takes
    it from its update walk, which is evaluation's walk at those parameters,
    and a minibatch epoch evaluates first."""
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
    floor: dict[int, np.ndarray] = {}  # each node count's (m, m) array: inf on the diagonal, 0 off it

    def block_pass(stacks: list[Stack], cb: Codebook | None) -> Iterator[tuple[np.ndarray, ForwardState]]:
        """Forward state of each stack of a block; one search serves all the
        block's latent rows."""
        encoded = [encode(anorm, x, enc) for _, anorm, x in stacks]
        found = None
        if cb is not None:
            found = quantize(np.concatenate([h.reshape(-1, cfg.d) for h, _ in encoded]), cb)
        start = 0
        for (at, anorm, x), (h, products) in zip(stacks, encoded):
            sel = None if found is None else found.part(start, h.shape)
            start += h.shape[0] * h.shape[1]
            m = anorm.shape[-1]
            if m not in floor:
                floor[m] = np.where(np.eye(m, dtype=bool), np.inf, 0.0)
            # the target A, exactly: anorm = D^-1/2 (A + I) D^-1/2 is >= 1/m
            # where A + I is 1 and 0 elsewhere, and no diagonal entry is an edge
            a = anorm > floor[m]
            yield at, forward(a, anorm, x, enc, dec, cb, cfg.beta, encoded=(h, products), sel=sel)

    def evaluate(epoch: int, cb: Codebook | None) -> EpochLog:
        """Log of the current parameters over every graph."""
        walked = _Tally(len(place), cfg.k)
        for stacks in _walk(table, buckets):
            for at, state in block_pass(stacks, cb):
                walked.add(at, state)
        return walked.log(epoch, cb is not None)

    def epoch_pass(epoch: int, cb: Codebook | None, opt: Adam, params: np.ndarray) -> EpochLog:
        """The log of the parameters the epoch starts with, then one Adam step
        of the phase's parameter buffer params per minibatch, by a gradient
        buffer of the same layout: W1's, W2's and Wd's gradients, the layout
        of backward()'s dense rows, then the codebook's in the joint phase.
        One batch of the whole dataset walks the blocks that evaluation walks,
        at the same parameters, so its own forward states give the log,
        checked before the step."""
        batches = _minibatches(len(place), cfg.batch_size, rng)
        walked = _Tally(len(place), cfg.k) if len(batches) == 1 else None
        log = evaluate(epoch, cb) if walked is None else None
        grad = np.empty_like(params)
        dense, entry_sums = grad[:dense_size], grad[dense_size:].reshape(-1, cfg.d)
        for batch in batches:
            grad.fill(0.0)
            for stacks in _walk(table, buckets, place[batch]):
                entry_keys, entry_rows = [], []  # the block's update-term rows
                for at, state in block_pass(stacks, cb):
                    if walked is not None and not walked.add(at, state):
                        continue  # the log raises NonFiniteLoss before the step
                    grads = backward(state, enc, dec)
                    for graph_grad in grads.dense:
                        dense += graph_grad
                    if grads.entry_rows is not None:
                        # a graph's place numbers it in walk order
                        entry_keys.append((place[at][:, None] * cfg.k + grads.indices).ravel())
                        entry_rows.append(grads.entry_rows.reshape(-1, cfg.d))
                if entry_keys:
                    _add_entry_rows(entry_sums, np.concatenate(entry_keys), np.concatenate(entry_rows))
            if walked is not None:
                log = walked.log(epoch, cb is not None)
            grad *= 1.0 / len(batch)
            opt.step(params, grad)
        return log

    def phase(arrays: list[np.ndarray], lrs: list[float]) -> tuple[list[np.ndarray], Adam, np.ndarray]:
        """One buffer holding copies of the phase's parameter arrays one after
        another, views of it that take the arrays' places, and one Adam that
        steps it with each array's rate at its elements."""
        params = np.concatenate([a.ravel() for a in arrays])
        rates = np.repeat(lrs, [a.size for a in arrays])
        return views(params, [a.shape for a in arrays]), Adam(rates), params

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
    dense_size = enc.w1.size + enc.w2.size + dec.wd.size
    (enc.w1, enc.w2, dec.wd), warm_opt, warm_params = phase([enc.w1, enc.w2, dec.wd], [cfg.lr_warmup] * 3)
    for _ in range(cfg.warmup_epochs):
        logs.append(epoch_pass(epoch, None, warm_opt, warm_params))
        snapshot(epoch, None)
        epoch += 1
    del warm_opt  # its moments and rates; the parameters stay in enc and dec

    if cfg.warmup_epochs > 0:
        # every latent row, graph by graph, global row last; held only
        # while k-means runs
        sizes = np.concatenate([[b.anorm.shape[1]] * len(b.positions) for b in buckets])[place]
        entries = _kmeans_entries(_gather_rows(table, buckets, enc, sizes, slice(None)), sizes, cfg, rng)

    (enc.w1, enc.w2, dec.wd, entries), joint_opt, joint_params = phase(
        [enc.w1, enc.w2, dec.wd, entries], [cfg.lr_gcn] * 3 + [cfg.lr_codebook]
    )
    cb = Codebook(entries=entries)
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


GLOBAL_ROW = slice(-1, None)  # the row that gives a graph its token
CENTER_ROW = slice(0, 1)  # the row that gives an ego-graph's center its token
T = TypeVar("T")


@dataclass(frozen=True)
class EncodedBlock:
    """One block of the read path, handed to the function that uses it."""

    block: GraphBlock | StackBlock
    rows: np.ndarray  # the rows h[take] of each graph's latent rows h, stacked in graph order
    tokens: list[int]  # each row's nearest codebook entry
    ranked: list[_Ranked]  # the rankings of the block's stacks, which gave the encoder its x


def _encode_block(
    block: GraphBlock | StackBlock, model: TokenizerModel, use: Callable[[EncodedBlock], T], embedder,
    include_global: bool, take: slice,
) -> T:
    """use() of one block, encoded; nothing else of the block outlives the
    call, and its encoder inputs are dropped before use() runs."""
    row_of: dict[str, int] = {GLOBAL_ATTRIBUTE: 0} if include_global else {}
    ranked, buckets = zip(*prepare_block(block, model.strategy, row_of, include_global))
    # the rows of each graph's h[take]
    counts = np.array([len(range(n + include_global)[take]) for n in block.sizes.tolist()])
    rows = _gather_rows(_table(row_of, embedder), buckets, model.enc, counts, take)
    del buckets
    return use(EncodedBlock(block, rows, nearest(rows, model.codebook.entries).tolist(), list(ranked)))


def encoded_blocks(
    blocks: Iterable[GraphBlock | StackBlock],
    model: TokenizerModel,
    use: Callable[[EncodedBlock], T],
    embedder=None,
    include_global: bool = True,
    take: slice = slice(None),
) -> Iterator[T]:
    """The read path: prepare each block and encode it in the stacks of
    _walk, which bound the encoder's temporaries as in training. Yields
    use(block) for each block, lazily: the block, the rows h[take] of its
    graphs' latent rows h (global row last unless include_global=False),
    stacked in graph order, each row's token, the index of its nearest
    codebook entry, found by one search of the block, and the rankings.
    A row's entry does not depend on the other rows, so a graph's <SOG_k> is
    the token of its global row whatever else is taken. blocks may be lazy.
    A block lives only while use() runs, so what use() returns is all that a
    caller can hold of it while the next block is read and prepared."""
    if embedder is None:
        embedder = HashingEmbedder(dim=model.d_s)
    return map(partial(_encode_block, model=model, use=use, embedder=embedder,
                       include_global=include_global, take=take), blocks)


def graph_embedding(g: Graph, model: TokenizerModel, embedder=None) -> np.ndarray:
    """Continuous latent rows for the augmented graph; global row last."""
    return next(encoded_blocks(graph_blocks([g]), model, lambda b: b.rows, embedder))


def _token_assignments(b: EncodedBlock) -> list[TokenAssignment]:
    out, end = [], 0
    for gid, n in zip(b.block.ids, b.block.sizes.tolist()):
        start, end = end, end + n + 1
        out.append(TokenAssignment(gid, b.tokens[end - 1], tuple(b.tokens[start : end - 1])))
    return out


def assign_tokens(
    blocks: Iterable[GraphBlock], model: TokenizerModel, embedder=None
) -> list[TokenAssignment]:
    """Graph token and node tokens of each graph, for the token table; the
    only caller that takes node rows of whole graphs."""
    return list(chain.from_iterable(encoded_blocks(blocks, model, _token_assignments, embedder)))


def assign_token(g: Graph, model: TokenizerModel, embedder=None) -> TokenAssignment:
    """assign_tokens() of one graph."""
    return assign_tokens(graph_blocks([g]), model, embedder)[0]


def _ego_block(block: GraphBlock, owners: np.ndarray, centers: np.ndarray, hops: int) -> StackBlock:
    """The ego-graph of each center, centers[k] of the graph at owners[k] of
    block, as a block of stacks by ego-graph size (graph.ego_stacks), each
    taken by indexing the adjacency of its parent."""
    n = block.sizes[owners]
    bad = np.flatnonzero((centers < 0) | (centers >= n))
    if len(bad):
        raise NodeOutOfRange(f"center {centers[bad[0]]} out of range for graph with {n[bad[0]]} nodes")
    sizes = np.empty(len(owners), dtype=np.intp)
    by_size: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for group in size_buckets(n):
        for rows, a in ego_stacks(block.adjacency(owners[group]), centers[group], hops):
            sizes[group[rows]] = a.shape[1]
            by_size.setdefault(a.shape[1], []).append((group[rows], a))
    stacks = []
    for parts in by_size.values():
        positions = np.concatenate([p for p, _ in parts])
        egos = np.concatenate([a for _, a in parts])
        stacks.extend((positions[run], egos[run]) for run in size_buckets(sizes[positions]))
    return StackBlock(sizes, stacks)


def node_tokens(
    listed: Iterable[tuple[GraphBlock, np.ndarray, np.ndarray]], model: TokenizerModel, hops: int = 2,
    embedder=None,
) -> list[int]:
    """Token of each listed center: listed gives blocks, each with the
    positions of graphs in it and their centers, one pair per token, in the
    order of the tokens returned. A center's token is that of its ego-graph's
    center row, ego index 0 (no global node added). The ego-graphs are taken
    and encoded READ_BLOCK at a time."""
    def egos() -> Iterator[StackBlock]:
        for block, owners, centers in listed:
            for start in range(0, len(owners), ingest.READ_BLOCK):
                stop = start + ingest.READ_BLOCK
                yield _ego_block(block, owners[start:stop], centers[start:stop], hops)

    blocks = encoded_blocks(egos(), model, lambda b: b.tokens, embedder, include_global=False,
                            take=CENTER_ROW)
    return list(chain.from_iterable(blocks))


def assign_node_tokens(
    g: Graph, center: int, model: TokenizerModel, hops: int = 2, embedder=None
) -> int:
    """node_tokens() of one center."""
    listed = [(next(graph_blocks([g])), np.zeros(1, dtype=np.intp), np.array([center]))]
    return node_tokens(listed, model, hops, embedder)[0]


def format_token_table(assignments: list[TokenAssignment]) -> str:
    """Token table: id, graph token, node token indices."""
    lines = ["id\tgraph_token\tnode_tokens"]
    for a in sorted(assignments, key=lambda a: a.graph_id):
        node_part = ",".join(map(str, a.node_tokens))
        lines.append(f"{a.graph_id}\t{token_text(a.graph_token)}\t{node_part}")
    return "\n".join(lines) + "\n"
