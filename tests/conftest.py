import numpy as np
import pytest
from hypothesis import strategies as st

from sogtok.graph import Graph, NodeRecord


def make_graph(n, edges, gid="g", label=None, text=None):
    return Graph(
        id=gid,
        nodes=(NodeRecord(),) * n,
        edges=tuple(edges),
        label=label,
        graph_text=text,
    )


@pytest.fixture
def path3():
    return make_graph(3, [(0, 1), (1, 2)], gid="path3")


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)], gid="triangle")


@pytest.fixture
def star4():
    return make_graph(4, [(0, 1), (0, 2), (0, 3)], gid="star4")


@st.composite
def small_graphs(draw, min_nodes=1, max_nodes=9):
    n = draw(st.integers(min_nodes, max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    return make_graph(n, edges, gid=f"h{n}")


@st.composite
def permutations_of(draw, n):
    perm = list(range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(perm)
    return perm
