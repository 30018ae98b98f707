"""Ring-systems-plus-linkers skeleton extraction and scaffold grouping.

The scaffold of a graph is its 2-core: iteratively delete nodes of degree
<= 1 until none remain, for a whole adjacency stack at once (two_core).
Scaffolds are read and grouped as boolean adjacency matrices, their nodes
in index order. Grouping is exact at every size. The scaffolds of
one node count are colour-refined together from their degrees
(graph.refine_colours), and a scaffold's key is its node count with its
histogram of stable colours, which isomorphic scaffolds share (it also fixes
the edge count). Inside a key, an exact isomorphism check that takes the
stable colours as candidate labels splits the scaffolds that 1-WL cannot
tell apart, such as regular graphs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Graph, refine_colours
from .ingest import GraphBlock


def two_core(a: np.ndarray) -> np.ndarray:
    """The nodes of each graph's 2-core, (B, n) bool, from a (B, n, n)
    boolean adjacency stack: each round drops every node left with at most
    one neighbour left, until a round drops none (Seidman's k-core, k = 2)."""
    alive = np.ones(a.shape[:2], dtype=bool)
    while (drop := alive & ((a & alive[:, None, :]).sum(axis=2) <= 1)).any():
        alive &= ~drop
    return alive


def murcko_scaffold(g: Graph) -> Graph | None:
    """The induced subgraph on g's 2-core (two_core), its nodes in index
    order. Acyclic graphs yield None, the empty scaffold."""
    alive = two_core(GraphBlock.of([g]).adjacency(np.zeros(1, dtype=np.intp)))[0]
    if not alive.any():
        return None
    new, keep = (np.cumsum(alive) - 1).tolist(), alive.tolist()
    nodes = tuple(nd for nd, k in zip(g.nodes, keep) if k)
    edges = tuple((new[i], new[j]) for i, j in g.edges if keep[i] and keep[j])
    return Graph(id=f"{g.id}#scaffold", nodes=nodes, edges=edges, graph_text=g.graph_text)


def scaffold_adjacencies(ranked) -> list[np.ndarray | None]:
    """The (m, m) boolean adjacency of each graph's scaffold, None if empty,
    in block order, from the rankings of a block's stacks (each with its
    positions and (B, n, n) stack)."""
    out: list[np.ndarray | None] = [None] * sum(len(r.positions) for r in ranked)
    for r in ranked:
        for pos, a, alive in zip(r.positions.tolist(), r.adjacency, two_core(r.adjacency)):
            if alive.any():
                out[pos] = a[np.ix_(alive, alive)]
    return out


class _Coloured(NamedTuple):
    """What the isomorphism check reads of one graph."""

    cells: bytes  # the adjacency matrix's bytes
    colour: list[int]  # stable colour per node
    adj: list[set[int]]


def _isomorphic(a: _Coloured, b: _Coloured) -> bool:
    """Exact isomorphism test of two graphs with one stable colour histogram.

    Backtracks over a's nodes in BFS order, each component from a node of its
    rarest colour. A node after the first of its component has a mapped
    neighbour, its BFS parent, and its candidates are the neighbours of that
    parent's image; every candidate must have the node's colour and the
    images of its mapped neighbours as its only mapped neighbours.
    """
    if a.cells == b.cells:  # one labelled graph: the identity maps it onto itself
        return True
    n = len(a.colour)
    of_colour: dict[int, list[int]] = {}
    for w, c in enumerate(b.colour):
        of_colour.setdefault(c, []).append(w)
    order, parent, seen, head = [], [-1] * n, set(), 0
    for root in sorted(range(n), key=lambda v: len(of_colour[a.colour[v]])):
        if root in seen:
            continue
        seen.add(root)
        order.append(root)
        while head < len(order):
            for v in a.adj[order[head]] - seen:
                seen.add(v)
                parent[v] = order[head]
                order.append(v)
            head += 1

    image, used = [-1] * n, [False] * n

    def candidates(v: int):
        p = parent[v]
        return iter(of_colour[a.colour[v]] if p < 0 else b.adj[image[p]])

    trials = [candidates(order[0])] + [None] * (n - 1)
    pos = 0
    while pos >= 0:
        v = order[pos]
        if image[v] >= 0:  # back from a dead end: free v's image, try its next candidate
            used[image[v]], image[v] = False, -1
        mapped = [image[u] for u in a.adj[v] if image[u] >= 0]
        for w in trials[pos]:
            if (not used[w] and b.colour[w] == a.colour[v]
                    and all(x in b.adj[w] for x in mapped)
                    and len(mapped) == sum(used[x] for x in b.adj[w])):
                image[v], used[w] = w, True
                pos += 1
                if pos == n:
                    return True
                trials[pos] = candidates(order[pos])
                break
        else:
            pos -= 1
    return False


def group_scaffolds(scaffolds: list[np.ndarray | None]) -> list[list[int]]:
    """Group scaffold indices into isomorphism classes, each scaffold given
    as its (n, n) boolean adjacency; the empty scaffolds (None) form one
    group.

    Within a key, each scaffold joins the first representative it is
    isomorphic to, so the representatives are pairwise non-isomorphic.
    Groups are listed by the text "n{n}|m{m}|deg[sorted
    degrees]" of their scaffolds ("EMPTY" for the empty ones), then by first
    member.
    """
    by_n: dict[int, list[int]] = {}  # node count 0: the empty scaffolds
    for idx, a in enumerate(scaffolds):
        by_n.setdefault(0 if a is None else len(a), []).append(idx)
    listed = [("EMPTY", by_n.pop(0))] if 0 in by_n else []
    for n, members in by_n.items():
        a = np.stack([scaffolds[i] for i in members])
        deg = a.sum(axis=2)
        colours = refine_colours(a, deg)
        by_key: dict[bytes, list[int]] = {}
        for row, key in enumerate(np.sort(colours, axis=1)):
            by_key.setdefault(key.tobytes(), []).append(row)
        for rows in by_key.values():
            degs = np.sort(deg[rows[0]])
            text = f"n{n}|m{degs.sum() // 2}|deg[{','.join(map(str, degs.tolist()))}]"
            reps: list[tuple[_Coloured, list[int]]] = []
            for row in rows:
                adj: list[set[int]] = [set() for _ in range(n)]
                for i, j in zip(*(ends.tolist() for ends in np.nonzero(a[row]))):
                    adj[i].add(j)
                coloured = _Coloured(a[row].tobytes(), colours[row].tolist(), adj)
                for rep, bucket in reps:
                    if _isomorphic(coloured, rep):
                        bucket.append(members[row])
                        break
                else:
                    reps.append((coloured, [members[row]]))
            listed.extend((text, bucket) for _, bucket in reps)
    listed.sort(key=lambda t: (t[0], t[1][0]))
    return [bucket for _, bucket in listed]
