"""Hierarchical traversal attributes and their vector embeddings.

Every node is located relative to an anchor of maximal importance: the
anchor itself, then "first-hop neighbor #1", "second-hop neighbor #3", and
so on, with within-hop numbering by descending importance. The virtual
global node carries a fixed attribute string of its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .graph import Graph, bfs_hops, build_adjacency

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
    global_attribute: str = GLOBAL_ATTRIBUTE


def _pagerank(g: Graph, damping: float = 0.85, iters: int = 100, tol: float = 1e-9) -> np.ndarray:
    n = g.n
    a = build_adjacency(g)
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


def _betweenness(g: Graph) -> np.ndarray:
    """Exact shortest-path betweenness, Brandes accumulation, undirected."""
    n = g.n
    adj = g.neighbors()
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


def importance_scores(g: Graph, strategy: ImportanceStrategy) -> np.ndarray:
    """Per-node non-negative importance under the chosen strategy."""
    if g.has_global:
        raise ValidationError("importance is computed before global-node augmentation")
    if strategy.kind == "degree":
        return np.asarray(g.degrees(), dtype=np.float64)
    if strategy.kind == "pagerank":
        return _pagerank(g)
    if strategy.kind == "betweenness":
        return _betweenness(g)
    rng = np.random.default_rng(strategy.seed)
    return rng.random(g.n)


def tie_break_key(g: Graph) -> list[tuple[int, ...]]:
    """Secondary ranking key: sorted neighbor-degree multiset, descending."""
    deg = g.degrees()
    adj = g.neighbors()
    return [tuple(sorted((deg[u] for u in adj[v]), reverse=True)) for v in range(g.n)]


def _node_order(nodes: list[int], scores: np.ndarray, keys: list[tuple[int, ...]]) -> list[int]:
    # primary: importance desc; secondary: neighbor-degree multiset desc;
    # fallback: original index asc (order-sensitive, see has_strict_ranking)
    return sorted(nodes, key=lambda v: (-scores[v], _neg_key(keys[v]), v))


def _neg_key(key: tuple[int, ...]) -> tuple:
    # descending lexicographic comparison of variable-length int tuples:
    # negate entries and terminate with +inf so that prefixes sort after
    # their extensions (a longer multiset with equal prefix ranks first)
    return tuple(-x for x in key) + (float("inf"),)


def assign_attributes(g: Graph, strategy: ImportanceStrategy) -> StructuralAttributeMap:
    """Anchor, hop labels, and within-hop ranks for every node."""
    if g.has_global:
        raise ValidationError("attributes are assigned before global-node augmentation")
    scores = importance_scores(g, strategy)
    keys = tie_break_key(g)
    anchor = _node_order(list(range(g.n)), scores, keys)[0]
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
        for rank, v in enumerate(_node_order(members, scores, keys), start=1):
            rank_of[v] = rank
            attribute_of[v] = hop_attribute(hop, rank)
    for rank, v in enumerate(_node_order(unreachable, scores, keys), start=1):
        rank_of[v] = rank
        attribute_of[v] = f"disconnected node #{rank}"

    return StructuralAttributeMap(
        anchor=anchor,
        hop_of=tuple(hops),
        rank_of=tuple(rank_of),
        attribute_of=tuple(attribute_of),
    )


def has_strict_ranking(g: Graph, strategy: ImportanceStrategy) -> bool:
    """True when anchor choice and every within-hop ranking are decided
    without falling back to node indices."""
    scores = importance_scores(g, strategy)
    keys = tie_break_key(g)

    def strict(pool: list[int], top_only: bool = False) -> bool:
        pairs = sorted(((-scores[v], _neg_key(keys[v])) for v in pool))
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
    # the disconnected pool is ranked too; tied isolated nodes break strictness
    return strict(unreachable) and all(strict(members) for members in by_hop.values())


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
    """Parse 'attribute<TAB>floats' lines into a TableEmbedder."""
    table: dict[str, np.ndarray] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
        table[key] = vec
    return TableEmbedder(table, dim)


def embed_attributes(attrs: StructuralAttributeMap, embedder, include_global: bool = True) -> np.ndarray:
    """Stack attribute-string embeddings; global-node row last when present."""
    rows = [embedder.embed(attr) for attr in attrs.attribute_of]
    if include_global:
        rows.append(embedder.embed(attrs.global_attribute))
    mat = np.vstack(rows)
    if mat.shape[1] != embedder.dim:
        raise DimensionMismatch(
            f"embedder produced dimension {mat.shape[1]}, configured {embedder.dim}"
        )
    return mat
