from itertools import combinations
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sogtok.graph import refine_colours
from sogtok.scaffold import group_scaffolds, murcko_scaffold, scaffold_adjacencies
from sogtok.smiles import parse_smiles, to_graph

import oracle
from oracle import adjacency_stack, are_isomorphic, brute_force_isomorphic, permute
from conftest import make_graph, read_arrays, scaffold_arrays, small_graphs


def scaffold_of(smiles):
    return murcko_scaffold(to_graph(parse_smiles(smiles)))


def test_chain_prunes_to_empty():
    assert scaffold_of("CCO") is None


def test_toluene_keeps_ring():
    sc = scaffold_of("Cc1ccccc1")
    assert sc.n == 6 and len(sc.edges) == 6


def test_triangle_is_fixed_point(triangle):
    sc = murcko_scaffold(triangle)
    assert sc.n == 3
    again = murcko_scaffold(sc)
    assert again.n == 3 and again.edges == sc.edges


def test_no_degree_one_in_scaffold():
    sc = scaffold_of("CCC1CCC1CC(C)C")
    assert min(sc.degrees()) >= 2


@given(small_graphs(min_nodes=2))
def test_scaffold_idempotent_and_min_degree(g):
    sc = murcko_scaffold(g)
    if sc is None:
        return
    assert min(sc.degrees()) >= 2
    again = murcko_scaffold(sc)
    assert again.n == sc.n and again.edges == sc.edges


@given(st.lists(small_graphs(min_nodes=4, max_nodes=4), min_size=1, max_size=5), small_graphs(min_nodes=2))
def test_two_core_matches_set_pruning(same_size, g):
    """murcko_scaffold and the scaffold adjacencies of a block's stacks are
    the set-pruning reference's scaffold."""
    assert murcko_scaffold(g) == oracle.murcko_scaffold(g)
    graphs = [g, *same_size]
    want = scaffold_arrays([oracle.murcko_scaffold(h) for h in graphs])
    got = scaffold_adjacencies(read_arrays(graphs)[1])
    assert [None if a is None else a.tolist() for a in got] == [None if a is None else a.tolist() for a in want]


@given(small_graphs(min_nodes=1), st.integers(0, 2**32 - 1))
def test_colour_key_relabeling_invariant(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    pair = [g, permute(g, perm)]
    a = adjacency_stack(pair)
    colours = refine_colours(a, a.sum(axis=2))
    assert (colours[1][perm] == colours[0]).all()
    assert group_scaffolds(scaffold_arrays(pair)) == [[0, 1]]


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
    assert brute_force_isomorphic(g, permute(g, perm))


def test_grouping_separates_topologies():
    smiles = ["C1CC1", "C1CC1C", "C1CCC1", "CC1CCC1", "CCO", "CCC"]
    scaffolds = [scaffold_of(s) for s in smiles]
    groups = group_scaffolds(scaffold_arrays(scaffolds))
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


# pairs that share n, m, the degree sequence and the per-node triangle
# counts (the scaffold key before colour refinement), with different topology
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
    assert not are_isomorphic(a, b)
    if a.n <= 8:
        assert not brute_force_isomorphic(a, b)
    assert group_scaffolds(scaffold_arrays([a, b, a])) == [[0, 2], [1]]


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
    scaffolds = graphs + [scaffold_of(s) for s in ("CCO", "C1CC1CC", "CC1CCC1", "c1ccc2ccccc2c1")]
    order = rng.permutation(len(scaffolds))
    scaffolds = [scaffolds[k] for k in order]
    groups = group_scaffolds(scaffold_arrays(scaffolds))
    assert groups == oracle.group_scaffolds(scaffolds)
    assert sum(map(len, groups)) == len(scaffolds)
    # some groups share their order text, so their first members order them
    texts = [oracle.scaffold_order_text(scaffolds[grp[0]]) for grp in groups]
    assert len(set(texts)) < len(texts)


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


def _prism(k):
    """Two k-cycles joined rung by rung: 2k nodes, 3-regular."""
    rungs = [(i, i + k) for i in range(k)]
    return make_graph(2 * k, _cycle(list(range(k))) + _cycle(list(range(k, 2 * k))) + rungs, gid=f"prism{2 * k}")


def _moebius_ladder(k):
    """A 2k-cycle and its k long diagonals: 2k nodes, 3-regular."""
    diagonals = [(i, i + k) for i in range(k)]
    return make_graph(2 * k, _cycle(list(range(2 * k))) + diagonals, gid=f"moebius{2 * k}")


def _relabelled(g, rng):
    return permute(g, rng.permutation(g.n).tolist())


def test_theta_pair_of_26_nodes_is_split():
    a, b = _theta(8, 9, 10), _theta(7, 10, 10)
    assert a.n == b.n == 26 and sorted(a.degrees()) == sorted(b.degrees())
    assert not are_isomorphic(a, b)
    rng = np.random.default_rng(26)
    assert group_scaffolds(scaffold_arrays([a, b, _relabelled(b, rng), _relabelled(a, rng)])) == [[0, 3], [1, 2]]


def test_prism_and_moebius_ladder_of_60_nodes_are_split_quickly():
    prism, moebius = _prism(30), _moebius_ladder(30)
    rng = np.random.default_rng(60)
    scaffolds = [prism, moebius, _relabelled(moebius, rng), _relabelled(prism, rng), _relabelled(prism, rng)]
    # every node of both has one stable colour, so only the exact check splits them
    a = adjacency_stack(scaffolds)
    assert (refine_colours(a, a.sum(axis=2)) == 0).all()
    arrays = scaffold_arrays(scaffolds)
    start = time.perf_counter()
    groups = group_scaffolds(arrays)
    elapsed = time.perf_counter() - start
    assert groups == [[0, 3, 4], [1, 2]]
    assert elapsed < 1.0, f"grouping took {elapsed:.2f} s"


def _from_networkx(h, gid):
    index = {v: k for k, v in enumerate(h.nodes)}
    return make_graph(h.number_of_nodes(), [(index[u], index[v]) for u, v in h.edges], gid=gid)


def test_grouping_matches_networkx_on_equal_key_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(21)
    graphs = []
    for d in (2, 3, 4):
        for _ in range(4):
            n = int(rng.integers(25, 41))
            n += n * d % 2
            pair = [nx.random_regular_graph(d, n, seed=int(s)) for s in rng.integers(2**31, size=2)]
            if d == 3:  # a second colour: the same 5-cycle beside both
                pair = [nx.disjoint_union(h, nx.cycle_graph(5)) for h in pair]
            pair = [_from_networkx(h, f"r{d}n{n}") for h in pair]
            # equal keys: one colour histogram for the pair
            a = adjacency_stack(pair)
            colours = refine_colours(a, a.sum(axis=2))
            assert (np.sort(colours[0]) == np.sort(colours[1])).all()
            graphs += pair + [_relabelled(pair[int(rng.integers(2))], rng)]
    graphs = [graphs[k] for k in rng.permutation(len(graphs))]

    def nx_isomorphic(x, y):
        # no isolated nodes here, so the edge lists give the whole graphs
        return x.n == y.n and nx.is_isomorphic(nx.Graph(list(x.edges)), nx.Graph(list(y.edges)))

    groups = group_scaffolds(scaffold_arrays(graphs))
    assert groups == oracle.group_scaffolds(graphs, isomorphic=nx_isomorphic)
    # both outcomes occur: copies grouped, and equal-key graphs split
    assert len(groups) < len(graphs) and len(groups) > len(graphs) // 3


def test_grouping_matches_brute_force_on_every_five_node_graph():
    pairs = list(combinations(range(5), 2))
    graphs = [
        make_graph(5, [e for k, e in enumerate(pairs) if mask >> k & 1], gid=f"m{mask}")
        for mask in range(1 << len(pairs))
    ]
    groups = group_scaffolds(scaffold_arrays(graphs))
    assert len(groups) == 34  # the graphs on five nodes up to isomorphism
    for grp in groups:
        assert all(brute_force_isomorphic(graphs[grp[0]], graphs[i]) for i in grp)
    firsts = [graphs[grp[0]] for grp in groups]
    assert not any(brute_force_isomorphic(x, y) for x, y in combinations(firsts, 2))


def test_grouping_matches_brute_force_up_to_eight_nodes():
    rng = np.random.default_rng(8)
    bases = [_random_graph(rng, int(rng.integers(6, 9)), p) for p in (0.3, 0.5) for _ in range(8)]
    # regular graphs on 8 nodes, one stable colour each
    bases += [
        make_graph(8, _cycle(list(range(8))), gid="c8"),
        make_graph(8, _cycle([0, 1, 2, 3]) + _cycle([4, 5, 6, 7]), gid="2c4"),
        make_graph(8, _cycle([0, 1, 2]) + _cycle([3, 4, 5, 6, 7]), gid="c3c5"),
        _prism(4),
        _moebius_ladder(4),
        make_graph(8, [e for q in ((0, 1, 2, 3), (4, 5, 6, 7)) for e in combinations(q, 2)], gid="2k4"),
    ]
    graphs = bases + [_relabelled(g, rng) for g in bases]
    graphs = [graphs[k] for k in rng.permutation(len(graphs))]
    groups = group_scaffolds(scaffold_arrays(graphs))
    assert groups == oracle.group_scaffolds(graphs, isomorphic=brute_force_isomorphic)
    assert len(groups) <= len(bases)  # every graph joined its copy
