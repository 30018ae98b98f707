"""Canonical in-memory graph representation and topology utilities.

Graphs are undirected, simple, and immutable after construction. A node's
position in `nodes` is its identity; node text is payload only. Graphs of
one node count stack into (B, n, n) boolean arrays
(ingest.GraphBlock.adjacency, from a block's edge array) for the ranking and
for colour refinement (refine_colours). Ego-graphs (ego_stacks) and
relabelled copies (permuted_adjacency) are taken from such a stack by
indexing it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import NodeOutOfRange, ValidationError

_BUCKET_CELLS = 1 << 20  # B x n x n cells per stack: bounds the stacked arrays for large graphs


@dataclass(frozen=True)
class NodeRecord:
    text: str | None = None


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with optional text payloads and label.

    Edges are stored normalized as (i, j) with i < j, sorted. Construction
    validates all invariants; instances are safe to share between workers.
    """

    id: str
    nodes: tuple[NodeRecord, ...]
    edges: tuple[tuple[int, int], ...]
    label: int | None = None
    graph_text: str | None = None

    def __post_init__(self):
        n = len(self.nodes)
        if n < 1:
            raise ValidationError(f"graph {self.id!r}: node set must be non-empty")
        normalized = []
        for i, j in self.edges:
            # one chained comparison checks both ends' range and rules out a
            # self-loop; only a failing edge takes the branches that name it
            if 0 <= i < j < n:
                normalized.append((i, j))
            elif 0 <= j < i < n:
                normalized.append((j, i))
            elif 0 <= i < n and 0 <= j < n:
                raise ValidationError(f"graph {self.id!r}: self-loop at node {i}")
            else:
                raise ValidationError(f"graph {self.id!r}: edge ({i},{j}) out of range")
        if len(set(normalized)) != len(normalized):
            raise ValidationError(f"graph {self.id!r}: duplicate edges")
        normalized.sort()  # linear when the edges come sorted, as from ingest
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def build_adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def size_buckets(sizes: np.ndarray) -> Iterator[np.ndarray]:
    """Positions of the graphs of each node count, node counts in order of
    first appearance, in runs of at most _BUCKET_CELLS // n² graphs (one at
    least): the graphs that one (B, n, n) stack holds."""
    by_n: dict[int, list[int]] = {}
    for pos, n in enumerate(sizes.tolist()):
        by_n.setdefault(n, []).append(pos)
    for n, members in by_n.items():
        step = max(1, _BUCKET_CELLS // (n * n))
        for start in range(0, len(members), step):
            yield np.array(members[start : start + step], dtype=np.intp)


def refine_colours(a: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """1-WL colour refinement of a (B, n, n) boolean stack from initial (B, n)
    integer colours, until the partition is stable.

    Each round gives a node the rank of (its colour, its neighbours' colours
    sorted), ranked over the whole stack, so equal colours mean the same
    refinement in every graph of the stack."""
    b, n = colours.shape
    width = int(a.sum(axis=2).max(initial=0))
    colour = np.unique(colours, return_inverse=True)[1].reshape(b * n)
    while True:
        # each node's neighbour colours ascending, padded in front with -1
        key = np.sort(np.where(a, colour.reshape(b, 1, n), -1), axis=2)[:, :, n - width:]
        key = key.reshape(b * n, width)
        order = np.lexsort((*key.T[::-1], colour))
        s_key, s_colour = key[order], colour[order]
        new_class = np.ones(b * n, dtype=bool)
        new_class[1:] = (s_colour[1:] != s_colour[:-1]) | (s_key[1:] != s_key[:-1]).any(axis=1)
        refined = np.empty(b * n, dtype=np.intp)
        refined[order] = np.cumsum(new_class) - 1
        if refined.max() == colour.max():
            return refined.reshape(b, n)
        colour = refined


def augment_with_global_node(g: Graph) -> Graph:
    """Add a virtual global node at index |V|, connected to every node."""
    n = g.n
    edges = g.edges + tuple((i, n) for i in range(n))
    return replace(g, nodes=g.nodes + (NodeRecord(),), edges=edges)


def permuted_adjacency(a: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The adjacency of each graph a[k] of a (B, n, n) stack relabelled by
    perms[k], old index i becoming perms[k, i]: that of the copy whose old node i is
    node perms[k, i]."""
    old = np.argsort(perms, axis=1)  # the old index of each new one
    return a[np.arange(len(a))[:, None, None], old[:, :, None], old[:, None, :]]


def ego_stacks(a: np.ndarray, centers: np.ndarray, hops: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ego-graph of centers[k] in graph a[k] of a (B, n, n) boolean stack,
    in ego_graph()'s node order: the center, then the other nodes within
    `hops` of it in index order. Hop distances come from one boolean frontier
    product per hop, for every center at once. Yields, per ego-graph size m in
    order of first appearance, the indices k of the ego-graphs of that size
    and their (len(k), m, m) adjacency."""
    if hops < 0:
        raise ValidationError("hops must be >= 0")
    b, n, _ = a.shape
    at = np.arange(b)
    reached = np.zeros((b, n), dtype=bool)
    reached[at, centers] = True
    frontier = reached
    for _ in range(hops):
        frontier = (a & frontier[:, :, None]).any(axis=1) & ~reached
        if not frontier.any():
            break
        reached = reached | frontier
    key = np.where(reached, np.arange(n), n)  # kept nodes by index, the others last
    key[at, centers] = -1
    order = np.argsort(key, axis=1, kind="stable")
    size = reached.sum(axis=1)
    for m in dict.fromkeys(size.tolist()):
        rows = np.flatnonzero(size == m)
        kept = order[rows, :m]
        yield rows, a[rows[:, None, None], kept[:, :, None], kept[:, None, :]]


def bfs_hops(g: Graph, source: int) -> list[int | None]:
    """Hop distance from source per node; None for unreachable nodes."""
    if not (0 <= source < g.n):
        raise NodeOutOfRange(f"node {source} out of range for graph with {g.n} nodes")
    adj = g.neighbors()
    hops: list[int | None] = [None] * g.n
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def ego_graph(g: Graph, center: int, hops: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on nodes within `hops` of center.

    The center becomes index 0; remaining kept nodes follow in original
    index order. Returns the subgraph and the old->new index mapping.
    """
    if not (0 <= center < g.n):
        raise NodeOutOfRange(f"center {center} out of range for graph with {g.n} nodes")
    if hops < 0:
        raise ValidationError("hops must be >= 0")
    dist = bfs_hops(g, center)
    kept = [center] + [
        v for v in range(g.n) if v != center and dist[v] is not None and dist[v] <= hops
    ]
    mapping = {old: new for new, old in enumerate(kept)}
    nodes = tuple(g.nodes[old] for old in kept)
    edges = tuple(
        (mapping[i], mapping[j]) for i, j in g.edges if i in mapping and j in mapping
    )
    sub = replace(g, id=f"{g.id}#ego{center}h{hops}", nodes=nodes, edges=edges)
    return sub, mapping
