"""Seeded synthetic graph and molecule generators for harness runs.

Three topology families (cycles, stars, near-cliques) exercise the
tokenizer's family separation; decorated ring cores provide a molecule set
spanning ten distinct topological scaffolds; a filtered random-graph
generator yields graphs whose hop rankings never fall back to node
indices.
"""

from __future__ import annotations

import numpy as np

from .attributes import ImportanceStrategy, has_strict_ranking
from .graph import Graph, NodeRecord

FAMILY_NAMES = ("cycle", "star", "clique")


def _graph(gid: str, n: int, edges, label: int | None = None) -> Graph:
    return Graph(
        id=gid,
        nodes=(NodeRecord(),) * n,
        edges=tuple(edges),
        label=label,
    )


def cycle_graph(n: int, gid: str = "cycle", label: int | None = None) -> Graph:
    return _graph(gid, n, [(i, (i + 1) % n) for i in range(n)], label)


def star_graph(n: int, gid: str = "star", label: int | None = None) -> Graph:
    return _graph(gid, n, [(0, i) for i in range(1, n)], label)


def near_clique(n: int, rng: np.random.Generator, gid: str = "clique", label: int | None = None) -> Graph:
    """Complete graph with a few random edges knocked out (stays connected)."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    removable = max(1, n // 3)
    drop = set(map(tuple, np.array(edges)[rng.choice(len(edges), size=removable, replace=False)]))
    kept = [e for e in edges if e not in drop]
    g = _graph(gid, n, kept, label)
    if min(g.degrees()) == 0:  # cannot happen for n >= 6; keep the guard cheap
        return _graph(gid, n, edges, label)
    return g


def family_dataset(per_family: int = 60, n_lo: int = 6, n_hi: int = 12, seed: int = 7) -> list[Graph]:
    """Labeled mix of cycles (0), stars (1), and near-cliques (2)."""
    rng = np.random.default_rng(seed)
    graphs: list[Graph] = []
    for fam_idx, fam in enumerate(FAMILY_NAMES):
        for i in range(per_family):
            n = int(rng.integers(n_lo, n_hi + 1))
            gid = f"{fam}_{i:03d}"
            if fam == "cycle":
                graphs.append(cycle_graph(n, gid, label=fam_idx))
            elif fam == "star":
                graphs.append(star_graph(n, gid, label=fam_idx))
            else:
                graphs.append(near_clique(n, rng, gid, label=fam_idx))
    return graphs


def random_connected_graph(n: int, p: float, rng: np.random.Generator, gid: str = "rand") -> Graph:
    """G(n, p) conditioned on connectivity via a random spanning tree."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        a, b = int(order[k]), int(parent)
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return _graph(gid, n, sorted(edges))


def strict_ranking_graphs(
    count: int,
    strategy: ImportanceStrategy | None = None,
    seed: int = 11,
    n_lo: int = 8,
    n_hi: int = 14,
    max_attempts: int = 20000,
) -> list[Graph]:
    """Random connected graphs filtered to those whose anchor choice and
    within-hop rankings are strict (never index-broken)."""
    if strategy is None:
        strategy = ImportanceStrategy()
    rng = np.random.default_rng(seed)
    out: list[Graph] = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.15, 0.45))
        g = random_connected_graph(n, p, rng, gid=f"strict_{len(out):03d}")
        if has_strict_ranking(g, strategy):
            out.append(g)
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} strict-ranking graphs in {attempts} attempts")
    return out


# ten ring systems spanning plain cycles, bridged and fused bicyclics,
# spiro junctions, polycyclic aromatics, and cage graphs; {R} marks the
# side-chain slot
SCAFFOLD_CORES = (
    ("ring6", "C1CCCCC1{R}"),
    ("ring10", "C1CCCCCCCCC1{R}"),
    ("norbornane", "C1CC2CCC1C2{R}"),
    ("naphthalene", "c1ccc2ccccc2c1{R}"),
    ("anthracene", "c1ccc2cc3ccccc3cc2c1{R}"),
    ("pyrene", "c1cc2ccc3cccc4ccc(c1)c2c34{R}"),
    ("spiro56", "C1CCC2(CC1)CCCC2{R}"),
    ("adamantane", "C1C2CC3CC1CC(C2)C3{R}"),
    ("cubane", "C12C3C4C1C5C2C3C45{R}"),
    ("bicyclohexyl", "C1CCCCC1C1CCCCC1{R}"),
)

# twenty short acyclic tails; all prune away under scaffold extraction
SIDE_CHAINS = (
    "", "C", "N", "O", "F", "Cl", "Br", "S", "P", "I",
    "CC", "CO", "CN", "CF", "CCl", "OC", "NC", "SC", "CS", "CBr",
)


def scaffold_smiles_set(variants_per_core: int = 20) -> list[tuple[str, str]]:
    """(family, smiles) pairs: each ring core decorated with acyclic tails."""
    out = []
    for fam, core in SCAFFOLD_CORES:
        for i in range(variants_per_core):
            chain = SIDE_CHAINS[i % len(SIDE_CHAINS)]
            out.append((fam, core.replace("{R}", chain)))
    return out
