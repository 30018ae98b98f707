"""Ring-systems-plus-linkers skeleton extraction and scaffold grouping.

The scaffold of a graph is its 2-core: iteratively delete nodes of degree
<= 1 until none remain. Grouping buckets scaffolds by an
isomorphism-necessary fingerprint, refined by an exact isomorphism check
inside each bucket of small scaffolds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _triangle_counts(adj: list[set[int]]) -> list[int]:
    # each triangle through v is one edge between two of v's neighbours,
    # seen once from each of its ends
    return [sum(len(adj[u] & nbrs) for u in nbrs) // 2 for nbrs in adj]


def canonical_key(g: Graph) -> str:
    """Isomorphism-invariant fingerprint: degree sequence, edge count, node
    count, per-node triangle counts. Necessary, not sufficient."""
    adj = _adjacency_sets(g)
    degs = ",".join(map(str, sorted(map(len, adj))))
    tris = ",".join(map(str, sorted(_triangle_counts(adj))))
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


class Invariants(NamedTuple):
    """What the isomorphism matcher reads of one graph, computed once."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: list[tuple]  # per node: (degree, sorted neighbour degrees, triangles)
    sorted_labels: list[tuple]
    adj: list[set[int]]


def isomorphism_invariants(g: Graph) -> Invariants:
    """The invariants of g that `match_invariants` compares and searches by."""
    adj = _adjacency_sets(g)
    tri = _triangle_counts(adj)
    labels = [
        (len(nbrs), tuple(sorted(len(adj[u]) for u in nbrs)), t) for nbrs, t in zip(adj, tri)
    ]
    return Invariants(g.n, g.edges, labels, sorted(labels), adj)


def match_invariants(a: Invariants, b: Invariants) -> bool:
    """Exact isomorphism test by backtracking with invariant pruning.

    Intended for small scaffolds (couple dozen nodes); grouping falls back
    to fingerprint equality beyond that.
    """
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if a.edges == b.edges:  # one labelled graph: the identity maps it onto itself
        return True
    if a.sorted_labels != b.sorted_labels:
        return False
    lab1, adj1, adj2 = a.labels, a.adj, b.adj
    n = a.n
    # the nodes of b that may take each label, ascending
    candidates: dict[tuple, list[int]] = {}
    for w, lab in enumerate(b.labels):
        candidates.setdefault(lab, []).append(w)
    # match rarest labels first to prune early
    order = sorted(range(n), key=lambda v: (len(candidates[lab1[v]]), -len(adj1[v])))
    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in candidates[lab1[v]]:
            if used[w]:
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
        # each member joins the first representative it is isomorphic to;
        # the representatives are pairwise non-isomorphic
        reps: list[tuple[Invariants, list[int]]] = []
        for i in members:
            inv = isomorphism_invariants(scaffolds[i].graph)
            for rep, bucket in reps:
                if match_invariants(inv, rep):
                    bucket.append(i)
                    break
            else:
                reps.append((inv, [i]))
        groups.extend(bucket for _, bucket in reps)
    return groups
