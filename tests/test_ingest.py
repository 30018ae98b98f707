import json

import numpy as np
import pytest

from sogtok.errors import GraphFileSemanticError, GraphFileSyntaxError
from sogtok.ingest import (
    _lines,
    iter_graph_file,
    parse_graph_file,
    parse_label_csv,
    write_graph_file,
)


def record(**kw):
    return json.dumps(kw)


def test_parse_basic_record():
    data = record(id="g1", nodes=[{"text": "a"}, {"text": "b"}], edges=[[0, 1]])
    graphs = parse_graph_file(data)
    assert len(graphs) == 1
    g = graphs[0]
    assert g.n == 2 and g.edges == ((0, 1),)
    assert g.nodes[0].text == "a"


def test_node_records_are_shared_per_text():
    """One NodeRecord per distinct node text, for JSON nodes and SMILES atoms
    alike, and one for the nodes without text."""
    a, b, c = parse_graph_file("\n".join([
        record(id="a", nodes=[{"text": "C"}, {"text": "O"}, {}], edges=[]),
        record(id="b", nodes=[{}, {"text": "C"}], edges=[]),
        record(id="c", smiles="CO"),
    ]))
    assert a.nodes[0] is b.nodes[1] is c.nodes[0]
    assert a.nodes[1] is c.nodes[1]
    assert a.nodes[2] is b.nodes[0] and a.nodes[2].text is None


def test_edge_out_of_range():
    data = record(id="g1", nodes=[{}, {}], edges=[[0, 5]])
    with pytest.raises(GraphFileSemanticError) as err:
        parse_graph_file(data)
    assert err.value.line == 1


def test_empty_node_list():
    with pytest.raises(GraphFileSemanticError):
        parse_graph_file(record(id="g1", nodes=[], edges=[]))


def test_json_syntax_error_position():
    with pytest.raises(GraphFileSyntaxError) as err:
        parse_graph_file('{"id": "a", "nodes": [{}], "edges": []}\n{bad json}')
    assert err.value.line == 2
    assert err.value.column >= 1


def test_duplicate_id_rejected():
    data = "\n".join(
        [record(id="g1", nodes=[{}], edges=[]), record(id="g1", nodes=[{}], edges=[])]
    )
    with pytest.raises(GraphFileSemanticError):
        parse_graph_file(data)


def test_lines_split_as_splitlines():
    """Every boundary of str.splitlines(), in random strings."""
    alphabet = ["a", " ", "\t", "\x1f", "\u00e9", "\n", "\r", "\v", "\f", "\x1c", "\x1d",
                "\x1e", "\x85", "\u2028", "\u2029"]
    rng = np.random.default_rng(5)
    for _ in range(3000):
        text = "".join(rng.choice(alphabet, size=rng.integers(12)))
        assert list(_lines(text)) == text.splitlines(), repr(text)


def test_iter_graph_file_yields_before_a_later_fault():
    """The reader parses a line only when its graph is asked for, so the
    graphs before a bad line arrive first, then the line's error."""
    data = "\n".join([record(id="a", nodes=[{}], edges=[]), "", record(id="a", smiles="C")])
    graphs = iter_graph_file(data.encode("utf-8"))
    assert next(graphs).id == "a"
    with pytest.raises(GraphFileSemanticError, match="line 3: duplicate graph id 'a'"):
        next(graphs)


def test_label_and_smiles_fields():
    data = record(id="g1", nodes=[{}, {}], edges=[[0, 1]], label=1, smiles="CC")
    g = parse_graph_file(data)[0]
    assert g.label == 1 and g.graph_text == "CC"


def test_smiles_only_record():
    g = parse_graph_file(record(id="mol", smiles="C1CC1", label=0))[0]
    assert g.n == 3 and len(g.edges) == 3 and g.label == 0


def test_bad_smiles_record():
    with pytest.raises(GraphFileSemanticError):
        parse_graph_file(record(id="mol", smiles="C1CC"))


def test_bool_label_rejected():
    with pytest.raises(GraphFileSemanticError):
        parse_graph_file(record(id="g", nodes=[{}], edges=[], label=True))


def test_roundtrip_write_read(tmp_path):
    data = "\n".join(
        [
            record(id="a", nodes=[{}, {}], edges=[[0, 1]], label=1),
            record(id="b", nodes=[{"text": "x"}], edges=[], smiles="C"),
        ]
    )
    graphs = parse_graph_file(data)
    path = tmp_path / "graphs.jsonl"
    write_graph_file(graphs, path)
    back = parse_graph_file(path.read_bytes())
    assert back == graphs


def test_label_csv_and_join():
    graphs = parse_graph_file(
        "\n".join([record(id="g1", nodes=[{}], edges=[]), record(id="g3", nodes=[{}], edges=[])])
    )
    ids = {g.id for g in graphs}
    labels = parse_label_csv("id,label\ng1, 1\n", ids)
    assert labels == {"g1": 1}
    # a row whose id names no graph is refused, not dropped
    with pytest.raises(GraphFileSemanticError, match="line 3: id 'g2' names no graph"):
        parse_label_csv("id,label\ng1,1\ng2,0\n", ids)


def test_label_csv_bad_value():
    for label in ("notanumber", "2", "-1", "7", "01", ""):
        with pytest.raises(GraphFileSemanticError, match="line 1: label .* is not 0 or 1"):
            parse_label_csv(f"g1,{label}\n", {"g1"})


def test_label_csv_repeated_id():
    # a later row must not silently override an earlier one, same label or not
    for rows, needle in (("g1,0\ng1,1\n", "line 2: id 'g1' repeats line 1"),
                         ("id,label\ng1,1\ng2,0\ng1,1\n", "line 4: id 'g1' repeats line 2")):
        with pytest.raises(GraphFileSemanticError, match=f"^{needle}$"):
            parse_label_csv(rows, {"g1", "g2"})
