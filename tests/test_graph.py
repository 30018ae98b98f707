import numpy as np
import pytest
from hypothesis import given, strategies as st

from sogtok.errors import (
    InvalidPermutation,
    NodeOutOfRange,
    ValidationError,
)
from sogtok.graph import (
    Graph,
    augment_with_global_node,
    bfs_hops,
    build_adjacency,
    ego_graph,
    ego_stacks,
    hop_distances,
    permuted_adjacency,
    refine_colours,
)

import oracle
from oracle import adjacency_stack, permute
from conftest import make_graph, small_graphs


def test_adjacency_path(path3):
    a = build_adjacency(path3)
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_adjacency_single_node():
    g = make_graph(1, [])
    assert build_adjacency(g).tolist() == [[0.0]]


def test_adjacency_triangle(triangle):
    a = build_adjacency(triangle)
    assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_edges_normalized_and_deduped():
    g = make_graph(3, [(2, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 2))
    with pytest.raises(ValidationError):
        make_graph(3, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        make_graph(2, [(0, 0)])


def test_empty_graph_rejected():
    with pytest.raises(ValidationError):
        Graph(id="e", nodes=(), edges=())


@pytest.mark.parametrize("n,edges,message", [
    (0, [], "node set must be non-empty"),
    (3, [(0, 1), (3, 3), (1, 1)], "edge (3,3) out of range"),
    (3, [(0, 1), (1, 1), (0, 3)], "self-loop at node 1"),
    (3, [(2, 1), (-1, 2)], "edge (-1,2) out of range"),
    (3, [(1, 0), (0, 1), (2, 2)], "self-loop at node 2"),  # checked before duplicates
    (3, [(1, 0), (2, 1), (0, 1)], "duplicate edges"),
])
def test_edge_check_messages(n, edges, message):
    """The first failing edge, in the given order, names the error."""
    with pytest.raises(ValidationError) as err:
        make_graph(n, edges, gid="m")
    assert str(err.value) == f"graph 'm': {message}"


def test_augment_path(path3):
    aug = augment_with_global_node(path3)
    assert aug.n == 4
    assert len(aug.edges) == 5
    assert [e for e in aug.edges if 3 in e] == [(0, 3), (1, 3), (2, 3)]


def test_augment_single_node():
    aug = augment_with_global_node(make_graph(1, []))
    assert aug.n == 2 and len(aug.edges) == 1


def test_augment_two_isolated():
    aug = augment_with_global_node(make_graph(2, []))
    assert aug.n == 3 and len(aug.edges) == 2


def test_permute_identity(path3):
    assert permute(path3, [0, 1, 2]) == path3


def test_permute_path_degrees(path3):
    p = permute(path3, [2, 1, 0])
    assert sorted(p.degrees()) == sorted(path3.degrees()) == [1, 1, 2]


def test_permute_triangle(triangle):
    assert set(permute(triangle, [1, 2, 0]).edges) == set(triangle.edges)


def test_permute_invalid(path3):
    with pytest.raises(InvalidPermutation):
        permute(path3, [0, 0, 1])


def test_ego_star_leaf(star4):
    sub, mapping = ego_graph(star4, 1, 2)
    assert sub.n == 4 and mapping[1] == 0
    assert len(sub.edges) == 3


def test_ego_zero_hops(star4):
    sub, _ = ego_graph(star4, 2, 0)
    assert sub.n == 1 and sub.edges == ()


def test_ego_path_two_hops():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, mapping = ego_graph(g, 0, 2)
    assert sub.n == 3
    assert set(mapping) == {0, 1, 2}


def test_ego_out_of_range(path3):
    with pytest.raises(NodeOutOfRange):
        ego_graph(path3, 7, 1)


@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_permutation_preserves_degree_multiset(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    assert sorted(permute(g, perm).degrees()) == sorted(g.degrees())


@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_adjacency_conjugation(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    a = build_adjacency(g)
    ap = build_adjacency(permute(g, perm))
    p = np.zeros((g.n, g.n))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    assert np.array_equal(ap, p @ a @ p.T)


@given(small_graphs(min_nodes=2))
def test_ego_with_max_hops_covers_component(g):
    hops = bfs_hops(g, 0)
    sub, mapping = ego_graph(g, 0, g.n)
    component = {v for v in range(g.n) if hops[v] is not None}
    assert set(mapping) == component


@given(small_graphs())
def test_augment_adds_exactly_n_edges(g):
    aug = augment_with_global_node(g)
    assert aug.n == g.n + 1
    assert len(aug.edges) == len(g.edges) + g.n


def test_refine_colours_of_a_path():
    path5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    a = adjacency_stack([path5])
    assert refine_colours(a, np.zeros((1, 5), dtype=int)).tolist() == [[0, 1, 2, 1, 0]]


def test_refine_colours_matches_python_refinement():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n, b = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        p = rng.random()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs = [make_graph(n, [e for e in pairs if rng.random() < p]) for _ in range(b)]
        colours = rng.integers(0, int(rng.integers(1, 4)), size=(b, n)) * 7
        a = adjacency_stack(graphs)
        assert (a == np.stack([build_adjacency(g) > 0 for g in graphs])).all()
        assert refine_colours(a, colours).tolist() == oracle.refine_colours(graphs, colours.tolist())



def _random_graphs(rng, count: int, max_nodes: int) -> list:
    """Graphs of 1 to max_nodes nodes at random densities: disconnected ones
    and isolated nodes among them."""
    graphs = []
    for i in range(count):
        n, p = int(rng.integers(1, max_nodes + 1)), rng.random() * 0.6
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        graphs.append(make_graph(n, [e for e in pairs if rng.random() < p], gid=f"r{i}"))
    return graphs


@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_ego_stacks_equal_ego_graph_adjacency(hops):
    """Every center of random graphs: the indexed ego adjacency is that of
    ego_graph's subgraph, stacked, centers isolated or not."""
    rng = np.random.default_rng(hops)
    for n in range(1, 11):
        graphs = [g for g in _random_graphs(rng, 60, n) if g.n == n]
        if not graphs:
            continue
        owners = np.repeat(np.arange(len(graphs)), n)
        centers = np.tile(np.arange(n), len(graphs))
        got = {}
        for rows, a in ego_stacks(adjacency_stack(graphs)[owners], centers, hops):
            got.update(zip(rows.tolist(), a))
        assert sorted(got) == list(range(len(owners)))
        for k, (owner, center) in enumerate(zip(owners.tolist(), centers.tolist())):
            want = adjacency_stack([ego_graph(graphs[owner], center, hops)[0]])[0]
            assert got[k].shape == want.shape and got[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("limit", [None, 0, 1, 2])
def test_hop_distances_equal_bfs_hops(limit):
    """From every source of random graphs: bfs_hops's distances, -1 for a
    node it does not reach or that lies beyond the limit."""
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        graphs = [g for g in _random_graphs(rng, 40, n) if g.n == n]
        if not graphs:
            continue
        owners = np.repeat(np.arange(len(graphs)), n)
        sources = np.tile(np.arange(n), len(graphs))
        got = hop_distances(adjacency_stack(graphs)[owners], sources, limit).tolist()
        for row, owner, source in zip(got, owners.tolist(), sources.tolist()):
            want = [-1 if h is None or (limit is not None and h > limit) else h
                    for h in bfs_hops(graphs[owner], source)]
            assert row == want


def test_ego_stacks_reject_negative_hops(path3):
    with pytest.raises(ValidationError, match="hops must be >= 0"):
        list(ego_stacks(adjacency_stack([path3]), np.zeros(1, dtype=int), -1))


def test_permuted_adjacency_equals_permute():
    rng = np.random.default_rng(4)
    for g in _random_graphs(rng, 200, 12):
        perms = np.stack([rng.permutation(g.n) for _ in range(3)])
        got = permuted_adjacency(adjacency_stack([g] * 3), perms)
        want = adjacency_stack([permute(g, p.tolist()) for p in perms])
        assert got.tobytes() == want.tobytes()
