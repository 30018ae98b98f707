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
    adjacency_stack,
    augment_with_global_node,
    bfs_hops,
    build_adjacency,
    ego_graph,
    permute,
    refine_colours,
)

import oracle
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

