#!/usr/bin/env python3
"""Write seeded molecule-like graphs as one graph JSONL file.

Each graph is a random tree of 18-32 atoms in which no atom has more than
four bonds, plus 0-3 ring closures: extra bonds between two atoms that are
not bonded yet and both have fewer than four bonds. Each atom is C, N or O
(p = 0.75 / 0.15 / 0.10), written as its node's text.

    PYTHONPATH=src python3 scripts/make_molecule_graphs.py --count 41127 --seed 3 --out hiv_like.jsonl

With --smiles the same graphs are written as {"id", "smiles"} records
instead (dfs_smiles), so that SMILES ingest reads diverse molecules. The same
count and seed give the same bytes.
"""

import argparse
import json

import numpy as np

from sogtok.graph import Graph, NodeRecord
from sogtok.ingest import write_graph_file
from sogtok.manifest import atomic_write

MAX_BONDS = 4
ATOMS = [NodeRecord(text=s) for s in ("C", "N", "O")]
ATOM_P = (0.75, 0.15, 0.10)


def molecule_graph(rng: np.random.Generator, gid: str) -> Graph:
    n = int(rng.integers(18, 33))
    deg = [0] * n
    edges = set()

    def bond(i: int, j: int) -> None:
        edges.add((min(i, j), max(i, j)))
        deg[i] += 1
        deg[j] += 1

    for v in range(1, n):
        open_atoms = [u for u in range(v) if deg[u] < MAX_BONDS]
        bond(v, open_atoms[int(rng.integers(len(open_atoms)))])
    for _ in range(int(rng.integers(0, 4))):
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if deg[i] < MAX_BONDS and deg[j] < MAX_BONDS and (i, j) not in edges
        ]
        if pairs:
            bond(*pairs[int(rng.integers(len(pairs)))])
    atoms = rng.choice(len(ATOMS), size=n, p=ATOM_P)
    return Graph(id=gid, nodes=tuple(ATOMS[a] for a in atoms), edges=tuple(sorted(edges)))


def dfs_smiles(g: Graph) -> str:
    """g as a SMILES string of single bonds: its atoms in depth-first
    preorder from node 0, neighbours in index order, so atom k of the string
    is the k-th node visited. Tree edges are chain bonds, each child but
    the last in a branch; every other edge is a ring closure, labelled at
    its earlier atom with the smallest free label (1-9, then %10-%99)."""
    adj = [sorted(nbrs) for nbrs in g.neighbors()]
    place: dict[int, int] = {}  # preorder number of each node visited
    children: list[list[int]] = [[] for _ in range(g.n)]

    def walk(v: int) -> None:
        place[v] = len(place)
        for w in adj[v]:
            if w not in place:
                children[v].append(w)
                walk(w)

    walk(0)
    out, labels, free = [], {}, list(range(99, 0, -1))

    def visit(v: int) -> None:
        out.append(g.nodes[v].text)
        rings = [w for w in adj[v] if w not in children[v] and v not in children[w]]
        for w in sorted(rings, key=place.get):
            if place[w] < place[v]:  # close the ring opened at w
                label = labels.pop((w, v))
                free.append(label)
            else:
                label = labels[v, w] = free.pop()
            out.append(str(label) if label < 10 else f"%{label}")
        for w in children[v][:-1]:
            out.append("(")
            visit(w)
            out.append(")")
        if children[v]:
            visit(children[v][-1])

    visit(0)
    return "".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--count", type=int, default=41127)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--smiles", action="store_true", help="write SMILES records (dfs_smiles)")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    width = len(str(args.count))
    graphs = [molecule_graph(rng, f"mol{k:0{width}d}") for k in range(args.count)]
    if args.smiles:
        with atomic_write(args.out) as fh:
            fh.writelines(json.dumps({"id": g.id, "smiles": dfs_smiles(g)}) + "\n" for g in graphs)
    else:
        write_graph_file(graphs, args.out)
    print(f"wrote {args.count} graphs -> {args.out}")


if __name__ == "__main__":
    main()
