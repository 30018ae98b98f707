"""Ring-systems-plus-linkers skeleton extraction and scaffold grouping.

The scaffold of a graph is its 2-core: iteratively delete nodes of degree
<= 1 until none remain. Grouping is exact at every size. The scaffolds of
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

from .graph import Graph, adjacency_stack, refine_colours


def murcko_scaffold(g: Graph) -> Graph | None:
    """Iteratively prune degree-<=1 nodes; return the surviving induced
    subgraph. Acyclic graphs yield None, the empty scaffold."""
    alive = set(range(g.n))
    adj = [set(nbrs) for nbrs in g.neighbors()]
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
        return None
    order = sorted(alive)
    mapping = {old: new for new, old in enumerate(order)}
    nodes = tuple(g.nodes[v] for v in order)
    edges = tuple((mapping[i], mapping[j]) for i, j in g.edges if i in alive and j in alive)
    return Graph(id=f"{g.id}#scaffold", nodes=nodes, edges=edges, graph_text=g.graph_text)


class _Coloured(NamedTuple):
    """What the isomorphism check reads of one graph."""

    edges: tuple[tuple[int, int], ...]
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
    if a.edges == b.edges:  # one labelled graph: the identity maps it onto itself
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


def group_scaffolds(scaffolds: list[Graph | None]) -> list[list[int]]:
    """Group scaffold indices into isomorphism classes; the empty scaffolds
    form one group.

    Within a key, each scaffold joins the first representative it is
    isomorphic to, so the representatives are pairwise non-isomorphic.
    Groups are listed by the text "n{n}|m{m}|deg[sorted
    degrees]" of their scaffolds ("EMPTY" for the empty ones), then by first
    member.
    """
    by_n: dict[int, list[int]] = {}  # node count 0: the empty scaffolds
    for idx, g in enumerate(scaffolds):
        by_n.setdefault(0 if g is None else g.n, []).append(idx)
    listed = [("EMPTY", by_n.pop(0))] if 0 in by_n else []
    for n, members in by_n.items():
        graphs = [scaffolds[i] for i in members]
        a = adjacency_stack(graphs)
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
                g = graphs[row]
                coloured = _Coloured(g.edges, colours[row].tolist(), [set(nb) for nb in g.neighbors()])
                for rep, bucket in reps:
                    if _isomorphic(coloured, rep):
                        bucket.append(members[row])
                        break
                else:
                    reps.append((coloured, [members[row]]))
            listed.extend((text, bucket) for _, bucket in reps)
    listed.sort(key=lambda t: (t[0], t[1][0]))
    return [bucket for _, bucket in listed]
