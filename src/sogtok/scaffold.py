"""Ring-systems-plus-linkers skeleton extraction and scaffold grouping.

The scaffold of a graph is its 2-core: iteratively delete nodes of degree
<= 1 until none remain. Grouping buckets scaffolds by an
isomorphism-necessary fingerprint, refined by an exact isomorphism check
inside each bucket of small scaffolds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Graph

EMPTY_KEY = "EMPTY"

# exact isomorphism refinement is attempted only up to this many nodes
EXACT_LIMIT = 24


@dataclass(frozen=True)
class Scaffold:
    graph: Graph | None
    canonical_key: str

    @property
    def is_empty(self) -> bool:
        return self.graph is None


def _triangle_counts(g: Graph) -> list[int]:
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    counts = [0] * g.n
    for v in range(g.n):
        nbrs = sorted(adj[v])
        t = 0
        for a_i in range(len(nbrs)):
            for b_i in range(a_i + 1, len(nbrs)):
                if nbrs[b_i] in adj[nbrs[a_i]]:
                    t += 1
        counts[v] = t
    return counts


def canonical_key(g: Graph) -> str:
    """Isomorphism-invariant fingerprint: degree sequence, edge count, node
    count, per-node triangle counts. Necessary, not sufficient."""
    degs = ",".join(map(str, sorted(g.degrees())))
    tris = ",".join(map(str, sorted(_triangle_counts(g))))
    return f"n{g.n}|m{len(g.edges)}|deg[{degs}]|tri[{tris}]"


def murcko_scaffold(g: Graph) -> Scaffold:
    """Iteratively prune degree-<=1 nodes; return the surviving induced
    subgraph. Acyclic graphs yield the empty scaffold."""
    alive = set(range(g.n))
    adj = {v: set() for v in alive}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    while True:
        prune = [v for v in alive if len(adj[v]) <= 1]
        if not prune:
            break
        for v in prune:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v].clear()
            alive.discard(v)
    if not alive:
        return Scaffold(graph=None, canonical_key=EMPTY_KEY)
    order = sorted(alive)
    mapping = {old: new for new, old in enumerate(order)}
    nodes = tuple(g.nodes[v] for v in order)
    edges = tuple(
        (mapping[i], mapping[j]) for i, j in g.edges if i in alive and j in alive
    )
    sub = Graph(id=f"{g.id}#scaffold", nodes=nodes, edges=edges, graph_text=g.graph_text)
    return Scaffold(graph=sub, canonical_key=canonical_key(sub))


def _refinement_labels(g: Graph) -> list[tuple]:
    """Stable per-node invariant: (degree, sorted neighbor degrees, triangles)."""
    deg = g.degrees()
    adj = g.neighbors()
    tri = _triangle_counts(g)
    return [
        (deg[v], tuple(sorted(deg[u] for u in adj[v])), tri[v]) for v in range(g.n)
    ]


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism by backtracking with invariant pruning.

    Intended for small scaffolds (couple dozen nodes); grouping falls back
    to fingerprint equality beyond that.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    lab1, lab2 = _refinement_labels(g1), _refinement_labels(g2)
    if sorted(lab1) != sorted(lab2):
        return False
    adj1 = [set(ns) for ns in g1.neighbors()]
    adj2 = [set(ns) for ns in g2.neighbors()]
    n = g1.n
    # match rarest labels first to prune early
    freq = Counter(lab1)
    order = sorted(range(n), key=lambda v: (freq[lab1[v]], -len(adj1[v])))
    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used[w] or lab2[w] != lab1[v]:
                continue
            ok = True
            for u in adj1[v]:
                if u in mapping and mapping[u] not in adj2[w]:
                    ok = False
                    break
            if ok:
                # mapped non-neighbors must stay non-neighbors (edge counts equal)
                for u, mu in mapping.items():
                    if (u in adj1[v]) != (mu in adj2[w]):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(pos + 1):
                    return True
                del mapping[v]
                used[w] = False
        return False

    return extend(0)


def group_scaffolds(scaffolds: list[Scaffold]) -> list[list[int]]:
    """Group scaffold indices into equivalence buckets.

    Primary bucketing is by canonical_key; within a key bucket, members are
    split by exact isomorphism when every member is small enough.
    """
    by_key: dict[str, list[int]] = {}
    for idx, sc in enumerate(scaffolds):
        by_key.setdefault(sc.canonical_key, []).append(idx)
    groups: list[list[int]] = []
    for key, members in sorted(by_key.items()):
        if key == EMPTY_KEY or any(scaffolds[i].graph.n > EXACT_LIMIT for i in members):
            groups.append(members)
            continue
        reps: list[list[int]] = []
        for i in members:
            placed = False
            for bucket in reps:
                if are_isomorphic(scaffolds[i].graph, scaffolds[bucket[0]].graph):
                    bucket.append(i)
                    placed = True
                    break
            if not placed:
                reps.append([i])
        groups.extend(reps)
    return groups
