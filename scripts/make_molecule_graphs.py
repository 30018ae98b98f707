#!/usr/bin/env python3
"""Write seeded molecule-like graphs as one graph JSONL file.

Each graph is a random tree of 18-32 atoms in which no atom has more than
four bonds, plus 0-3 ring closures: extra bonds between two atoms that are
not bonded yet and both have fewer than four bonds. Each atom is C, N or O
(p = 0.75 / 0.15 / 0.10), written as its node's text.

    PYTHONPATH=src python3 scripts/make_molecule_graphs.py --count 41127 --seed 3 --out hiv_like.jsonl

The same count and seed give the same bytes.
"""

import argparse

import numpy as np

from sogtok.graph import Graph, NodeRecord
from sogtok.ingest import write_graph_file

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


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--count", type=int, default=41127)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    width = len(str(args.count))
    write_graph_file([molecule_graph(rng, f"mol{k:0{width}d}") for k in range(args.count)], args.out)
    print(f"wrote {args.count} graphs -> {args.out}")


if __name__ == "__main__":
    main()
