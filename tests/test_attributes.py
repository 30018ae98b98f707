import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sogtok.attributes import (
    GLOBAL_ATTRIBUTE,
    STRATEGY_KINDS,
    HashingEmbedder,
    ImportanceStrategy,
    TableEmbedder,
    assign_attributes,
    attribute_maps,
    embed_attributes,
    has_strict_ranking,
    hop_attribute,
    importance_scores,
    load_embedding_table,
)
from sogtok.errors import DimensionMismatch, ValidationError
from sogtok.graph import permute

import oracle
from conftest import make_graph, small_graphs


def test_degree_scores(path3):
    assert importance_scores(path3, ImportanceStrategy("degree")).tolist() == [1, 2, 1]


def test_pagerank_symmetric(triangle):
    p = importance_scores(triangle, ImportanceStrategy("pagerank"))
    assert np.allclose(p, 1 / 3)
    assert abs(p.sum() - 1.0) < 1e-9


def test_pagerank_favors_hub(star4):
    p = importance_scores(star4, ImportanceStrategy("pagerank"))
    assert p[0] > p[1] == pytest.approx(p[2])


def test_betweenness_path(path3):
    b = importance_scores(path3, ImportanceStrategy("betweenness"))
    assert b[1] > 0 and b[0] == b[2] == 0.0


def test_betweenness_star(star4):
    b = importance_scores(star4, ImportanceStrategy("betweenness"))
    # center lies on all 3 leaf pairs
    assert b[0] == pytest.approx(3.0)
    assert b[1] == b[2] == b[3] == 0.0


def test_random_scores_deterministic(path3):
    s1 = importance_scores(path3, ImportanceStrategy("random", seed=5))
    s2 = importance_scores(path3, ImportanceStrategy("random", seed=5))
    s3 = importance_scores(path3, ImportanceStrategy("random", seed=6))
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_unknown_strategy():
    with pytest.raises(ValidationError):
        ImportanceStrategy("eigenvector")


def test_assign_path_anchor(path3):
    attrs = assign_attributes(path3, ImportanceStrategy())
    assert attrs.anchor == 1
    assert attrs.attribute_of[1] == "anchor node"
    assert sorted([attrs.attribute_of[0], attrs.attribute_of[2]]) == [
        "first-hop neighbor #1",
        "first-hop neighbor #2",
    ]


def test_assign_single_node():
    g = make_graph(1, [])
    attrs = assign_attributes(g, ImportanceStrategy())
    assert attrs.attribute_of == ("anchor node",)


def test_assign_star_ranks(star4):
    attrs = assign_attributes(star4, ImportanceStrategy())
    assert attrs.anchor == 0
    leaves = sorted(attrs.attribute_of[1:])
    assert leaves == [f"first-hop neighbor #{r}" for r in (1, 2, 3)]


def test_disconnected_nodes_get_sentinel():
    g = make_graph(3, [(0, 1)])
    attrs = assign_attributes(g, ImportanceStrategy())
    assert attrs.hop_of[2] is None
    assert attrs.attribute_of[2] == "disconnected node #1"


def test_hop_ordinals():
    assert hop_attribute(1, 1) == "first-hop neighbor #1"
    assert hop_attribute(2, 3) == "second-hop neighbor #3"
    assert hop_attribute(10, 2) == "tenth-hop neighbor #2"
    assert hop_attribute(11, 1) == "11-th-hop neighbor #1"


def _anchor_is_strict(g, strategy):
    """True when the anchor wins without the index fallback; index-broken
    anchor ties between non-automorphic nodes can shift the whole hop
    partition under relabeling, so the multiset claim only holds here."""
    scores = importance_scores(g, strategy)
    keys = oracle.tie_break_key(g)
    pairs = sorted((-scores[v], oracle.neg_key(keys[v])) for v in range(g.n))
    return len(pairs) < 2 or pairs[0] != pairs[1]


@given(small_graphs(min_nodes=2), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_attribute_multiset_relabeling_invariant(g, seed):
    strategy = ImportanceStrategy()
    if not _anchor_is_strict(g, strategy):
        return
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    a1 = assign_attributes(g, strategy)
    a2 = assign_attributes(permute(g, perm), strategy)
    assert sorted(a1.attribute_of) == sorted(a2.attribute_of)


def test_attribute_multiset_counterexample_documented():
    # index-broken anchor tie between non-automorphic degree-2 nodes: the
    # hop histogram legitimately changes under relabeling
    g = make_graph(9, [(0, 1), (0, 2), (1, 6), (2, 4), (4, 5), (5, 7)])
    strategy = ImportanceStrategy()
    assert not _anchor_is_strict(g, strategy)
    relabeled = permute(g, [2, 1, 0, 3, 4, 5, 6, 7, 8])
    a1 = assign_attributes(g, strategy)
    a2 = assign_attributes(relabeled, strategy)
    assert sorted(a1.attribute_of) != sorted(a2.attribute_of)


@given(small_graphs(min_nodes=2), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_strict_graphs_fully_invariant(g, seed):
    strategy = ImportanceStrategy()
    if not has_strict_ranking(g, strategy):
        return
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    a1 = assign_attributes(g, strategy)
    a2 = assign_attributes(permute(g, perm), strategy)
    for old in range(g.n):
        assert a1.attribute_of[old] == a2.attribute_of[perm[old]]


@given(small_graphs(min_nodes=2))
@settings(max_examples=60)
def test_hops_respect_bfs_property(g):
    attrs = assign_attributes(g, ImportanceStrategy())
    for i, j in g.edges:
        hi, hj = attrs.hop_of[i], attrs.hop_of[j]
        if hi is not None and hj is not None:
            assert abs(hi - hj) <= 1


def _networkx_graph(g):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.edges)
    return nx, graph


_ORACLE_EXAMPLES = [
    make_graph(1, []),  # single node
    make_graph(3, []),  # isolated nodes only
    make_graph(6, [(0, 1), (1, 2), (3, 4)]),  # two components and an isolated node
    make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
]


def _with_examples(test):
    for g in _ORACLE_EXAMPLES:
        test = example(g)(test)
    return test


@_with_examples
@given(small_graphs(max_nodes=12))
@settings(max_examples=150, deadline=None)
def test_betweenness_matches_networkx(g):
    nx, graph = _networkx_graph(g)
    want = nx.betweenness_centrality(graph, normalized=False)  # unordered pairs
    got = importance_scores(g, ImportanceStrategy("betweenness"))
    assert np.allclose(got, [want[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)


@_with_examples
@given(small_graphs(max_nodes=12))
@settings(max_examples=150, deadline=None)
def test_pagerank_matches_networkx(g):
    nx, graph = _networkx_graph(g)
    want = nx.pagerank(graph, alpha=0.85, tol=1e-15, max_iter=10_000)
    got = importance_scores(g, ImportanceStrategy("pagerank"))
    # _pagerank stops after 100 iterations of a map that contracts the L1
    # distance by 0.85 from a start within 2 of the fixed point, or once a
    # step moves p by < 1e-9 (then within 0.85 / 0.15 * 1e-9 of it)
    assert np.abs(got - [want[v] for v in range(g.n)]).sum() <= 2 * 0.85**100 + 1e-9
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


# two 6-cycles joined by an edge, and a 4-cycle: ties that only the index breaks
_TIE_EXAMPLES = [
    make_graph(12, [(i, (i + 1) % 6) for i in range(6)]
               + [(6 + i, 6 + (i + 1) % 6) for i in range(6)] + [(0, 6)]),
    make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
]


def _per_graph_oracle(graphs, kind):
    strategy = ImportanceStrategy(kind, seed=5)
    return strategy, [oracle.assign_attributes(g, strategy) for g in graphs]


@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "degree")
@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "pagerank")
@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "betweenness")
@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "random")
@given(st.lists(small_graphs(max_nodes=10), min_size=1, max_size=12), st.sampled_from(STRATEGY_KINDS))
@settings(max_examples=150, deadline=None)
def test_attribute_maps_equal_per_graph_oracle(graphs, kind):
    """The bucketed rule gives every graph of a mixed-size list the map of
    the per-graph Python rule: anchor, hops, ranks and strings."""
    strategy, want = _per_graph_oracle(graphs, kind)
    got = attribute_maps(graphs, strategy)
    for g, a, b in zip(graphs, got, want):
        assert (a.anchor, a.hop_of, a.rank_of, a.attribute_of) == (
            b.anchor, b.hop_of, b.rank_of, b.attribute_of
        ), g.edges
    assert [has_strict_ranking(g, strategy) for g in graphs] == [
        oracle.has_strict_ranking(g, strategy) for g in graphs
    ]


@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "degree", True)
@example([*_ORACLE_EXAMPLES, *_TIE_EXAMPLES], "betweenness", False)
@given(st.lists(small_graphs(max_nodes=10), min_size=1, max_size=12),
       st.sampled_from(STRATEGY_KINDS), st.booleans())
@settings(max_examples=100, deadline=None)
def test_prepare_graphs_bytes_equal_per_graph_oracle(graphs, kind, include_global):
    from sogtok.train import prepare_graphs

    strategy = ImportanceStrategy(kind, seed=5)
    embedder = HashingEmbedder(dim=16)
    table, buckets = prepare_graphs(graphs, strategy, embedder, include_global)
    assert sorted(pos for bucket in buckets for pos in bucket.positions) == list(range(len(graphs)))
    for bucket in buckets:
        for i, pos in enumerate(bucket.positions):
            a_target, anorm, x = oracle.prepare_graph(graphs[pos], strategy, embedder, include_global)
            mine_x = table[bucket.x_index[i]]
            # the target adjacency is stored as bool: as floats it has the oracle's bytes
            mine_a = bucket.a_target[i]
            assert mine_a.dtype == bool
            for mine, theirs in ((mine_a.astype(np.float64), a_target), (bucket.anorm[i], anorm),
                                 (mine_x, x)):
                assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()


def test_attribute_maps_split_large_buckets(monkeypatch):
    # the cell bound splits one node count into several buckets
    import sogtok.attributes as attributes

    monkeypatch.setattr(attributes, "_BUCKET_CELLS", 40)
    rng = np.random.default_rng(3)
    graphs = [make_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.4])
              for _ in range(9)]
    assert len(list(attributes.attribute_buckets(graphs, ImportanceStrategy()))) == 9
    strategy, want = _per_graph_oracle(graphs, "degree")
    assert attribute_maps(graphs, strategy) == want


def test_embedder_deterministic_unit_norm():
    emb = HashingEmbedder(dim=64)
    v1 = emb.embed("first-hop neighbor #1")
    v2 = HashingEmbedder(dim=64).embed("first-hop neighbor #1")
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert v1.shape == (64,)


def test_embedder_distinct_strings_differ():
    emb = HashingEmbedder(dim=64)
    assert not np.array_equal(emb.embed("anchor node"), emb.embed(GLOBAL_ATTRIBUTE))


def test_embed_attributes_rows(path3):
    attrs = assign_attributes(path3, ImportanceStrategy())
    emb = HashingEmbedder(dim=32)
    x = embed_attributes(attrs, emb)
    assert x.shape == (4, 32)
    assert np.array_equal(x[-1], emb.embed(GLOBAL_ATTRIBUTE))
    x2 = embed_attributes(attrs, HashingEmbedder(dim=32))
    assert np.array_equal(x, x2)


def test_identical_attributes_identical_rows(star4):
    # two leaves of a triangle-free star share hop but not rank; craft equal
    g = make_graph(2, [(0, 1)])
    attrs = assign_attributes(g, ImportanceStrategy())
    emb = HashingEmbedder(dim=16)
    x = embed_attributes(attrs, emb, include_global=False)
    assert not np.array_equal(x[0], x[1])  # anchor vs neighbor differ


def test_table_embedder_exact_lookup():
    table = TableEmbedder({"anchor node": np.arange(4.0)}, dim=4)
    assert np.array_equal(table.embed("anchor node"), np.arange(4.0))
    with pytest.raises(ValidationError):
        table.embed("missing")


def test_table_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TableEmbedder({"anchor node": np.arange(3.0)}, dim=4)


def test_load_embedding_table():
    text = "anchor node\t1.0,0.0\nglobal summary node\t0.0,1.0\n"
    emb = load_embedding_table(text, dim=2)
    assert np.array_equal(emb.embed("anchor node"), [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        load_embedding_table(text, dim=3)
