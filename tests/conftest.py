import json
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from sogtok.attributes import ImportanceStrategy, attribute_buckets
from sogtok.corpus import QARecord
from sogtok.graph import Graph, NodeRecord
from sogtok.ingest import GraphBlock


def make_graph(n, edges, gid="g", label=None, text=None):
    return Graph(
        id=gid,
        nodes=(NodeRecord(),) * n,
        edges=tuple(edges),
        label=label,
        graph_text=text,
    )


def read_arrays(graphs, strategy=ImportanceStrategy()):
    """In-memory graphs as the read path hands them to descmatch and
    scaffolds: their block and the rankings of its stacks
    (train.EncodedBlock's block and ranked)."""
    block = GraphBlock.of(graphs)
    return block, [r for r, *_ in attribute_buckets(block, strategy)]


def scaffold_arrays(scaffolds):
    """Scaffold Graphs as group_scaffolds reads them: each one's (n, n)
    boolean adjacency, None for the empty scaffold."""
    return [None if g is None else GraphBlock.of([g]).adjacency(np.zeros(1, dtype=np.intp))[0]
            for g in scaffolds]


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


_EDGE_CLAUSE = re.compile(r"node ([A-Z]+) and node ([A-Z]+) is connected")
_NODE_COUNT = re.compile(r"a graph of (\d+) nodes? with no edges")


def parse_description(question: str) -> tuple[int | None, list[tuple[str, str]]]:
    """Recover (node count, named edge list) from a descmatch question."""
    pairs = [(a, b) for a, b in _EDGE_CLAUSE.findall(question)]
    m = _NODE_COUNT.search(question)
    return (int(m.group(1)) if m else None), pairs


def read_corpus(path) -> list[QARecord]:
    """The records of a corpus.jsonl, each line validated by QARecord."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(QARecord(**json.loads(line)))
    return records
