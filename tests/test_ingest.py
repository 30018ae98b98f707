import json

import numpy as np
import pytest

from sogtok import ingest
from sogtok.errors import GraphFileSemanticError, GraphFileSyntaxError, ValidationError
from sogtok.smiles import scan_smiles
from sogtok.ingest import (
    GraphBlock,
    _lines,
    iter_graph_file,
    parse_graph_file,
    parse_label_csv,
    write_graph_file,
)

import oracle
from oracle import adjacency_stack


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


def test_iter_graph_file_yields_before_a_later_fault(monkeypatch):
    """The reader parses a block's lines only when the block is asked for, so
    the blocks before a bad line arrive first, then the line's error."""
    monkeypatch.setattr(ingest, "READ_BLOCK", 1)
    data = "\n".join([record(id="a", nodes=[{}], edges=[]), "", record(id="a", smiles="C")])
    blocks = iter_graph_file(data.encode("utf-8"))
    assert next(blocks).ids == ["a"]
    with pytest.raises(GraphFileSemanticError, match="line 3: duplicate graph id 'a'"):
        next(blocks)


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


# faults that the one-character corruptions may miss, each on line 2 of a file
EXTRA_FAULTS = [
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, true]]}',
    '{"id": "g", "nodes": [{}, {}, {}], "edges": [[0, 1], [1, 0]]}',
    '{"id": "g", "nodes": [{}, {}, {}], "edges": [[0, 1], [2, 2]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, 1.0]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[-1, 0]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, 2]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, 99999999999999999999999]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, 1, 1]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[0, 1], [1]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [0, 1]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [{"0": 1, "1": 0}]}',
    '{"id": "g", "nodes": [{}, {}], "edges": null}',
    '{"id": "g", "nodes": [{}, {"text": 5}], "edges": []}',
    '{"id": "g", "nodes": [{}, 1], "edges": []}',
    '{"id": "g", "nodes": [{}], "edges": [], "label": true}',
    '{"id": "g", "nodes": [{}], "edges": [], "smiles": 5}',
    '{"id": "g", "smiles": 5}',
    '{"id": "", "smiles": "C"}',
    '{"id": 5, "smiles": "C"}',
    '["g"]',
    '{"id": "ok", "smiles": "C"}',
    '{"id": "g", "smiles": "CCCC"}',
    '{"id": "g", "nodes": [{}, {}, {}, {}], "edges": [[0, 9]]}',
    '{"id": "g", "nodes": [{}, {}, {}], "edges": [[2, 0], [0, 1]], "label": 1}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[1, 1]], "label": true}',
    '{"id": "g", "nodes": [{}, {}, {}], "edges": [[0, 1], [1, 0], [2, 2]]}',
    '{"id": "g", "nodes": [{}, {}, {}, {}], "edges": [[0, 1], [1, 0]]}',
    '{"id": "g", "nodes": [{}, {}, {}, {}], "edges": [[3, 3], [0, 9]]}',
    '{"id": "g", "nodes": [{}, {}], "edges": [[2, 0]]}',
    '{"id": "g", "nodes": [{}, {}, {}], "edges": [[0, 1], [2, 2], [0, 0]]}',
]


def _outcome(read, text: str, size_cap: int):
    """The graphs read, or the class and message of the error raised."""
    try:
        return read(text, size_cap)
    except ValidationError as exc:
        return type(exc), str(exc)


def _fields(block: GraphBlock) -> tuple:
    return (block.ids, block.labels, block.texts,
            *((a.dtype, a.shape, a.tobytes()) for a in (block.sizes, block.edges, block.edge_starts)))


def _read_blocks(text: str, size_cap: int) -> list:
    """The blocks iter_graph_file yields, then the class and message of the error it raises."""
    out = []
    try:
        for block in iter_graph_file(text, size_cap):
            out.append(_fields(block))
    except ValidationError as exc:
        out.append((type(exc), str(exc)))
    return out


def _oracle_blocks(text: str, size_cap: int) -> list:
    """The blocks and error _read_blocks should give: the oracle's graphs in
    blocks of READ_BLOCK, and before a faulty line only the full blocks."""
    try:
        graphs, error = oracle.read_graph_file(text, size_cap), []
    except ValidationError as exc:
        graphs = oracle.read_graph_file("\n".join(text.splitlines()[: exc.line - 1]), size_cap)
        graphs, error = graphs[: len(graphs) - len(graphs) % ingest.READ_BLOCK], [(type(exc), str(exc))]
    step = ingest.READ_BLOCK
    return [_fields(GraphBlock.of(graphs[k : k + step])) for k in range(0, len(graphs), step)] + error


@pytest.mark.parametrize("read_block", [1, 2, ingest.READ_BLOCK])
def test_block_ingest_matches_the_record_parser(monkeypatch, read_block):
    """Every corruption of line 2 that the one-character tests of test_cli
    make, and the faults above, with a bad line before or after the fault as
    well: parse_graph_file gives the Graphs of the record-by-record parser,
    or its error class (hence exit code) and message, and iter_graph_file
    yields the blocks of those Graphs up to the faulty line's block, then
    the same error."""
    from test_cli import MUTANT_CHARS, VALID_RECORDS

    monkeypatch.setattr(ingest, "READ_BLOCK", read_block)
    mutants = set(EXTRA_FAULTS)
    for kind in sorted(VALID_RECORDS):
        line = json.dumps(VALID_RECORDS[kind])
        rng = np.random.default_rng(17)
        mutants.update(line[:k] + line[k + 1:] for k in range(len(line)))
        for k, ch in zip(rng.integers(len(line), size=80), rng.choice(MUTANT_CHARS, size=80)):
            mutants.add(line[:k] + ch + line[k + 1:])
    first = record(id="ok", smiles="CCO")
    later = record(id="later", nodes=[{}, {}], edges=[[1, 1]])
    for mutant in sorted(mutants):
        for text in (f"{first}\n{mutant}\n", f"{first}\n{mutant}\n{later}\n", f"{first}\n{mutant}\n{{bad\n"):
            for size_cap in (3, 100):
                assert _outcome(parse_graph_file, text, size_cap) == _outcome(
                    oracle.read_graph_file, text, size_cap), (mutant, text, size_cap)
                assert _read_blocks(text, size_cap) == _oracle_blocks(text, size_cap), (mutant, text, size_cap)


def test_block_arrays_hold_each_graphs_edges():
    """A block's edge rows are each graph's Graph edges, (i, j) with i < j,
    ascending, and its adjacency stack is adjacency_stack's."""
    data = "\n".join([record(id="a", nodes=[{}, {}, {}], edges=[[2, 0], [1, 0]]),
                      record(id="b", smiles="C1CC1O"),
                      record(id="c", nodes=[{}, {}, {}], edges=[])])
    (block,) = iter_graph_file(data)
    graphs = oracle.read_graph_file(data)
    want = GraphBlock.of(graphs)
    assert (block.ids, block.labels, block.texts) == (want.ids, want.labels, want.texts)
    assert all(getattr(block, name).tobytes() == getattr(want, name).tobytes()
               for name in ("sizes", "edges", "edge_starts"))
    assert block.sizes.tolist() == [3, 4, 3] and block.edge_starts.tolist() == [0, 2, 6, 6]
    assert block.edges[:2].tolist() == [[0, 1], [0, 2]]
    positions = np.array([0, 2, 0])
    assert block.adjacency(positions).tobytes() == adjacency_stack([graphs[p] for p in positions]).tobytes()
    assert parse_graph_file(data) == graphs


def test_valid_blocks_are_read_without_scan_smiles(monkeypatch):
    """Blocks of valid SMILES records are read without scan_smiles and give
    the record parser's graphs; a block that also holds nodes+edges records
    is read record by record and gives them too. A block with a faulty
    SMILES record is read again record by record, and scan_smiles names the
    fault."""
    smiles = ["CCO", "c1ccccc1", "C(C)(C)C", "[NH4+]", "C%12CC%12", "O"]
    text = "\n".join(record(id=f"s{k}", smiles=s, label=k % 2) for k, s in enumerate(smiles))
    calls = []
    monkeypatch.setattr(ingest, "scan_smiles", lambda s: calls.append(s) or scan_smiles(s))
    for read_block in (1, 4, 512):
        monkeypatch.setattr(ingest, "READ_BLOCK", read_block)
        assert _read_blocks(text, 100) == _oracle_blocks(text, 100)
    assert calls == []
    lines = text.splitlines()
    lines[2:2] = [record(id="n0", nodes=[{}, {"text": "x"}, {}], edges=[[2, 0], [1, 0]], smiles="CC"),
                  record(id="n1", nodes=[{}], edges=[])]
    lines.append(record(id="n2", nodes=[{}, {}], edges=[[0, 1]], label=1))
    mixed = "\n".join(lines)
    for read_block in (3, 4, 512):
        monkeypatch.setattr(ingest, "READ_BLOCK", read_block)
        assert _read_blocks(mixed, 100) == _oracle_blocks(mixed, 100)
    calls.clear()
    faulty = mixed + "\n" + record(id="bad", smiles="C1CC")
    assert _read_blocks(faulty, 100)[-1] == (
        GraphFileSemanticError, "line 10: bad smiles: ring-closure label 1 opened but never closed")
    assert calls == smiles + ["C1CC"]
