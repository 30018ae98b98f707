import numpy as np
import pytest
from hypothesis import given, strategies as st

from sogtok.graph import permute
from sogtok.scaffold import (
    EMPTY_KEY,
    Scaffold,
    canonical_key,
    group_scaffolds,
    murcko_scaffold,
)
from sogtok.smiles import parse_smiles, to_graph

import oracle
from oracle import are_isomorphic
from conftest import make_graph, small_graphs


def scaffold_of(smiles):
    return murcko_scaffold(to_graph(parse_smiles(smiles)))


def test_chain_prunes_to_empty():
    sc = scaffold_of("CCO")
    assert sc.is_empty and sc.canonical_key == EMPTY_KEY


def test_toluene_keeps_ring():
    sc = scaffold_of("Cc1ccccc1")
    assert sc.graph.n == 6 and len(sc.graph.edges) == 6


def test_triangle_is_fixed_point(triangle):
    sc = murcko_scaffold(triangle)
    assert sc.graph.n == 3
    again = murcko_scaffold(sc.graph)
    assert again.canonical_key == sc.canonical_key
    assert set(again.graph.edges) == set(sc.graph.edges)


def test_no_degree_one_in_scaffold():
    sc = scaffold_of("CCC1CCC1CC(C)C")
    assert min(sc.graph.degrees()) >= 2


@given(small_graphs(min_nodes=2))
def test_scaffold_idempotent_and_min_degree(g):
    sc = murcko_scaffold(g)
    if sc.is_empty:
        return
    assert min(sc.graph.degrees()) >= 2
    again = murcko_scaffold(sc.graph)
    assert again.canonical_key == sc.canonical_key
    assert again.graph.n == sc.graph.n


@given(small_graphs(min_nodes=2), st.integers(0, 2**32 - 1))
def test_canonical_key_relabeling_invariant(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    assert canonical_key(g) == canonical_key(permute(g, perm))


def test_isomorphic_rings_match():
    a = to_graph(parse_smiles("C1CCCCC1"))
    b = to_graph(parse_smiles("c1ccccc1"))
    assert are_isomorphic(a, b)


def test_non_isomorphic_same_counts():
    # two graphs with equal n, m but different structure
    a = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])  # 6-cycle
    b = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # 2 triangles
    assert not are_isomorphic(a, b)


@given(small_graphs(min_nodes=2, max_nodes=7), st.integers(0, 2**32 - 1))
def test_isomorphism_under_relabeling(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    assert are_isomorphic(g, permute(g, perm))


def test_grouping_separates_topologies():
    smiles = ["C1CC1", "C1CC1C", "C1CCC1", "CC1CCC1", "CCO", "CCC"]
    scaffolds = [scaffold_of(s) for s in smiles]
    groups = group_scaffolds(scaffolds)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [2, 2, 2]  # triangles, squares, empties


def _cycle(nodes):
    return [(nodes[k], nodes[(k + 1) % len(nodes)]) for k in range(len(nodes))]


def _theta(a, b, c):
    """Two hubs (0, 1) joined by three paths with a, b and c edges."""
    edges, n = [], 2
    for length in (a, b, c):
        inner = list(range(n, n + length - 1))
        n += length - 1
        path = [0, *inner, 1]
        edges += list(zip(path, path[1:]))
    return make_graph(n, edges, gid=f"theta{a}{b}{c}")


def _spiro(a, b):
    """An a-ring and a b-ring sharing node 0."""
    edges = _cycle([0, *range(1, a)]) + _cycle([0, *range(a, a + b - 1)])
    return make_graph(a + b - 1, edges, gid=f"spiro{a}{b}")


# pairs with one canonical key and different topology
SAME_KEY_PAIRS = [
    # 6-node trees with degrees 3,2,2,1,1,1: arms of 1,1,3 and of 1,2,2 edges
    (make_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)], gid="tree113"),
     make_graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)], gid="tree122")),
    # fused bicycle (naphthalene skeleton) against a bridged one
    (_theta(1, 5, 5), _theta(3, 3, 5)),
    (_spiro(5, 5), _spiro(4, 6)),
    (make_graph(8, _cycle(list(range(8))), gid="c8"),
     make_graph(8, _cycle([0, 1, 2, 3]) + _cycle([4, 5, 6, 7]), gid="2c4")),
]


@pytest.mark.parametrize("a,b", SAME_KEY_PAIRS, ids=[a.id + "-" + b.id for a, b in SAME_KEY_PAIRS])
def test_same_key_pairs_are_not_isomorphic(a, b):
    assert canonical_key(a) == canonical_key(b)
    assert not are_isomorphic(a, b)
    assert len(group_scaffolds([Scaffold(g, canonical_key(g)) for g in (a, b, a)])) == 2


def _random_graph(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_graph(n, [e for e in pairs if rng.random() < p], gid=f"r{n}")


def test_grouping_matches_pairwise_rule():
    rng = np.random.default_rng(99)
    bases = [g for pair in SAME_KEY_PAIRS for g in pair]
    bases += [
        _random_graph(rng, int(rng.integers(4, 13)), p) for p in (0.25, 0.35, 0.5) for _ in range(12)
    ]
    graphs = []
    for g in bases:
        graphs += [g] + [permute(g, rng.permutation(g.n).tolist()) for _ in range(3)]
    scaffolds = [Scaffold(g, canonical_key(g)) for g in graphs]
    scaffolds += [scaffold_of(s) for s in ("CCO", "C1CC1CC", "CC1CCC1", "c1ccc2ccccc2c1")]
    order = rng.permutation(len(scaffolds))
    scaffolds = [scaffolds[k] for k in order]
    groups = group_scaffolds(scaffolds)
    assert groups == oracle.group_scaffolds(scaffolds)
    assert sum(map(len, groups)) == len(scaffolds)
    # some key buckets hold more than one isomorphism class
    keys = [scaffolds[grp[0]].canonical_key for grp in groups]
    assert len(set(keys)) < len(keys)


def test_isomorphism_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(150):
        g = _random_graph(rng, int(rng.integers(4, 11)), 0.4)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected_h = h.copy()
        if h.number_of_edges() >= 2:
            try:  # same degree sequence, usually another topology
                nx.double_edge_swap(h, nswap=1, max_tries=100, seed=int(rng.integers(2**31)))
            except nx.NetworkXException:
                pass
        expected = nx.is_isomorphic(expected_h, h)
        other = permute(make_graph(g.n, h.edges), rng.permutation(g.n).tolist())
        assert are_isomorphic(g, other) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_canonical_key_counts_triangles_per_node():
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert canonical_key(k4) == "n4|m6|deg[3,3,3,3]|tri[3,3,3,3]"
    bowtie = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert canonical_key(bowtie) == "n5|m6|deg[2,2,2,2,4]|tri[1,1,1,1,2]"
