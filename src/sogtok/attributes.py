"""Hierarchical traversal attributes and their vector embeddings.

Every node is located relative to an anchor of maximal importance: the
anchor itself, then "first-hop neighbor #1", "second-hop neighbor #3", and
so on, with within-hop numbering by descending importance. The virtual
global node carries a fixed attribute string of its own.

Graphs are ranked in buckets of equal node counts, from each bucket's
(B, n, n) boolean adjacency stack. The encoder reads only each node's index
into its bucket's distinct strings (attribute_buckets); no stage builds the
full per-node maps (attribute_maps), which are for in-memory graphs.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .graph import Graph
from .ingest import GraphBlock
from .manifest import numbered_lines

STRATEGY_KINDS = ("degree", "pagerank", "betweenness", "random")

ANCHOR_ATTRIBUTE = "anchor node"
GLOBAL_ATTRIBUTE = "global summary node"

_ORDINALS = {
    1: "first", 2: "second", 3: "third", 4: "fourth", 5: "fifth",
    6: "sixth", 7: "seventh", 8: "eighth", 9: "ninth", 10: "tenth",
}

DEFAULT_EMBED_DIM = 64
# fixed 64-bit hashing seed; part of the determinism contract
HASH_SEED = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ImportanceStrategy:
    kind: str = "degree"
    seed: int = 0  # used by the random strategy only

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValidationError(
                f"unknown importance strategy {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )


def hop_ordinal(k: int) -> str:
    return _ORDINALS.get(k, f"{k}-th")


def hop_attribute(hop: int, rank: int) -> str:
    return f"{hop_ordinal(hop)}-hop neighbor #{rank}"


@dataclass(frozen=True)
class StructuralAttributeMap:
    anchor: int
    hop_of: tuple[int | None, ...]  # None marks unreachable nodes
    rank_of: tuple[int, ...]
    attribute_of: tuple[str, ...]


def _pagerank(adjacency: np.ndarray, damping: float = 0.85, iters: int = 100,
              tol: float = 1e-9) -> np.ndarray:
    n = len(adjacency)
    a = adjacency.astype(np.float64)
    deg = a.sum(axis=1)
    p = np.full(n, 1.0 / n)
    dangling = deg == 0
    with np.errstate(divide="ignore"):
        inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    for _ in range(iters):
        spread = a.T @ (p * inv_deg) + p[dangling].sum() / n
        new = (1.0 - damping) / n + damping * spread
        if np.abs(new - p).sum() < tol:
            p = new
            break
        p = new
    return p


def _betweenness(adjacency: np.ndarray) -> np.ndarray:
    """Exact shortest-path betweenness, Brandes accumulation, undirected."""
    n = len(adjacency)
    adj = [np.flatnonzero(row).tolist() for row in adjacency]  # neighbours ascending
    bc = np.zeros(n)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(stack):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0  # each unordered pair counted from both endpoints


def importance_scores(adjacency: np.ndarray, strategy: ImportanceStrategy) -> np.ndarray:
    """Per-node non-negative importance of a graph, from its (n, n) boolean
    adjacency, under the chosen strategy."""
    if strategy.kind == "degree":
        return adjacency.sum(axis=1).astype(np.float64)
    if strategy.kind == "pagerank":
        return _pagerank(adjacency)
    if strategy.kind == "betweenness":
        return _betweenness(adjacency)
    rng = np.random.default_rng(strategy.seed)
    return rng.random(len(adjacency))


class _Ranked(NamedTuple):
    """One bucket of B graphs with n nodes each, ranked in NumPy."""

    positions: np.ndarray  # of the bucket's graphs in their block
    adjacency: np.ndarray  # (B, n, n) bool
    order: np.ndarray  # (B, n): nodes by importance desc, key desc, index asc
    hop: np.ndarray  # (B, n): hops from the anchor, order[:, 0]; -1 if unreachable
    rank: np.ndarray  # (B, n): 1-based within the node's hop or the unreachable pool; anchor 0


def _sort_keys(a: np.ndarray, strategy: ImportanceStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Each node's negated importance (B * n,) and secondary key (B * n, n)
    in a (B, n, n) boolean adjacency stack. The key is the node's neighbour
    degrees, sorted descending. Negated and padded with 1 (every real entry
    is <= -1), rows sort ascending in the key's descending lexicographic
    order, where a longer multiset with an equal prefix ranks first."""
    b, n, _ = a.shape
    deg = a.sum(axis=2)
    scores = deg if strategy.kind == "degree" else np.stack([importance_scores(g, strategy) for g in a])
    key = np.sort(np.where(a, -deg[:, None, :], 1), axis=2).reshape(b * n, n)
    return -scores.reshape(b * n), key


def _rank_bucket(a: np.ndarray, positions: np.ndarray, keys: tuple[np.ndarray, np.ndarray]) -> _Ranked:
    """The ranking of the graphs of a (B, n, n) boolean adjacency stack by
    their _sort_keys."""
    b, n, _ = a.shape
    at = np.arange(b)
    neg_score, key = keys
    flat_order = np.lexsort((np.tile(np.arange(n), b), *key.T[::-1], neg_score, np.repeat(at, n)))
    order = flat_order.reshape(b, n) - (at * n)[:, None]
    place = np.empty((b, n), dtype=np.intp)
    place[at[:, None], order] = np.arange(n)

    # BFS from the anchor, one boolean frontier product per hop
    anchor = order[:, 0]
    hop = np.full((b, n), -1)
    hop[at, anchor] = 0
    frontier = hop == 0
    reached = frontier.copy()
    step = 0
    while frontier.any():
        step += 1
        frontier = (a & frontier[:, :, None]).any(axis=1) & ~reached
        hop[frontier] = step
        reached |= frontier

    # rank within the pool of nodes at the same hop (-1: unreachable)
    ahead = (hop[:, :, None] == hop[:, None, :]) & (place[:, None, :] < place[:, :, None])
    rank = ahead.sum(axis=2) + 1
    rank[at, anchor] = 0
    return _Ranked(positions, a, order, hop, rank)


def _ranked_buckets(block, strategy: ImportanceStrategy) -> Iterator[_Ranked]:
    """The ranking of each of a block's adjacency stacks (block.buckets())."""
    for positions, a in block.buckets():
        yield _rank_bucket(a, positions, _sort_keys(a, strategy))


def _attribute_string(hop: int, rank: int) -> str:
    if hop == 0:
        return ANCHOR_ATTRIBUTE
    if hop < 0:
        return f"disconnected node #{rank}"
    return hop_attribute(hop, rank)


def _attribute_index(r: _Ranked) -> tuple[np.ndarray, list[str]]:
    """Each node's index into the bucket's distinct attribute strings, (B, n),
    and those strings in order of first appearance, graph by graph and then
    node by node."""
    n = r.hop.shape[1]
    code = (r.hop + 1) * (n + 1) + r.rank
    distinct, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    index = np.empty_like(by_first)
    index[by_first] = np.arange(len(by_first))
    names = [_attribute_string(int(c) // (n + 1) - 1, int(c) % (n + 1)) for c in distinct[by_first]]
    return index[inverse].reshape(code.shape), names


def attribute_buckets(block, strategy: ImportanceStrategy) -> Iterator[tuple[_Ranked, np.ndarray, list[str]]]:
    """The attribute strings of a block's graphs, per adjacency stack of its
    buckets() (an ingest.GraphBlock, or any block of stacks): yields the
    stack's ranking, each node's index (B, n) into the stack's distinct
    strings, and those strings in order of first appearance, graph by graph
    and then node by node."""
    for r in _ranked_buckets(block, strategy):
        yield r, *_attribute_index(r)


def attribute_maps(graphs: list[Graph], strategy: ImportanceStrategy) -> list[StructuralAttributeMap]:
    """Anchor, hop labels and within-hop ranks for every node of every graph.

    The anchor is the first node by importance (descending), then by the
    sorted multiset of its neighbours' degrees (descending, a longer multiset
    with an equal prefix first), then by index. Every other node is numbered
    within its BFS hop from the anchor, or among the unreachable nodes, in
    the same order."""
    maps: list[StructuralAttributeMap | None] = [None] * len(graphs)
    for r, index, names in attribute_buckets(GraphBlock.of(graphs), strategy):
        for pos, row, hops, ranks, idx in zip(
            r.positions.tolist(), r.order.tolist(), r.hop.tolist(), r.rank.tolist(), index.tolist()
        ):
            maps[pos] = StructuralAttributeMap(
                anchor=row[0],
                hop_of=tuple([h if h >= 0 else None for h in hops]),
                rank_of=tuple(ranks),
                attribute_of=tuple([names[i] for i in idx]),
            )
    return maps


def assign_attributes(g: Graph, strategy: ImportanceStrategy) -> StructuralAttributeMap:
    """Anchor, hop labels, and within-hop ranks for every node."""
    return attribute_maps([g], strategy)[0]


def has_strict_ranking(g: Graph, strategy: ImportanceStrategy) -> bool:
    """True when anchor choice and every within-hop ranking are decided
    without falling back to node indices."""
    at = np.zeros(1, dtype=np.intp)
    a = GraphBlock.of([g]).adjacency(at)
    keys = _sort_keys(a, strategy)
    r = _rank_bucket(a, at, keys)
    hop, order = r.hop[0], r.order[0]
    # equal for the nodes that only the index tells apart
    tie = np.unique(np.column_stack(keys), axis=0, return_inverse=True)[1].reshape(-1)
    if g.n > 1 and tie[order[0]] == tie[order[1]]:
        return False
    # the disconnected pool is ranked too; tied isolated nodes break strictness
    clash = (hop[:, None] == hop[None, :]) & (tie[:, None] == tie[None, :])
    return int(clash.sum()) == g.n  # the diagonal only


class HashingEmbedder:
    """Deterministic feature-hashing text embedder.

    Tokens (split on whitespace and '#') are hashed into `dim` signed
    buckets with a fixed 64-bit seed; the bucket sums are L2-normalized.
    Identical strings always map to identical unit vectors.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, seed: int = HASH_SEED):
        if dim < 1:
            raise ValidationError("embedding dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self._key = seed.to_bytes(8, "little")
        self._cache: dict[str, np.ndarray] = {}

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=16).digest()
        idx = int.from_bytes(digest[:8], "little") % self.dim
        sign = 1.0 if digest[8] & 1 else -1.0
        return idx, sign

    def embed(self, text: str) -> np.ndarray:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in text.replace("#", " ").split():
            idx, sign = self._bucket(token)
            vec[idx] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # token collisions cancelled out: fall back to whole-string hash
            idx, sign = self._bucket(text)
            vec[idx] = sign
            norm = 1.0
        vec /= norm
        vec.setflags(write=False)
        self._cache[text] = vec
        return vec


class TableEmbedder:
    """Embedder backed by a precomputed attribute-string table."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.dim = dim
        self.table = {}
        for key, vec in table.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise DimensionMismatch(
                    f"table entry {key!r} has dimension {arr.shape}, expected ({dim},)"
                )
            self.table[key] = arr

    def embed(self, text: str) -> np.ndarray:
        if text not in self.table:
            raise ValidationError(f"attribute string {text!r} missing from embedding table")
        return self.table[text]


def load_embedding_table(text: str, dim: int) -> TableEmbedder:
    """Parse 'attribute<TAB>floats' lines into a TableEmbedder; every value
    must be finite, and each attribute string must appear on one line only."""
    table: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    for line_no, line in numbered_lines(text):
        if "\t" not in line:
            raise ValidationError(f"embedding table line {line_no}: missing tab separator")
        key, _, values = line.partition("\t")
        try:
            vec = np.array([float(x) for x in values.split(",")], dtype=np.float64)
        except ValueError:
            raise ValidationError(
                f"embedding table line {line_no}: non-numeric value in {values.strip()!r}"
            ) from None
        if vec.shape != (dim,):
            raise DimensionMismatch(
                f"embedding table line {line_no}: dimension {vec.shape[0]} != configured {dim}"
            )
        if not np.isfinite(vec).all():  # nan, inf, or a number too large for a float, e.g. 1e400
            raise ValidationError(
                f"embedding table line {line_no}: non-finite value in {values.strip()!r}"
            )
        if key in line_of:
            raise ValidationError(f"embedding table line {line_no}: {key!r} repeats line {line_of[key]}")
        line_of[key] = line_no
        table[key] = vec
    return TableEmbedder(table, dim)


def embed_attributes(attrs: StructuralAttributeMap, embedder, include_global: bool = True) -> np.ndarray:
    """Stack attribute-string embeddings; global-node row last when present."""
    rows = [embedder.embed(attr) for attr in attrs.attribute_of]
    if include_global:
        rows.append(embedder.embed(GLOBAL_ATTRIBUTE))
    mat = np.vstack(rows)
    if mat.shape[1] != embedder.dim:
        raise DimensionMismatch(
            f"embedder produced dimension {mat.shape[1]}, configured {embedder.dim}"
        )
    return mat
