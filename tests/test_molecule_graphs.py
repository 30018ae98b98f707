"""scripts/make_molecule_graphs.py: seeded molecule-like graph JSONL."""

import json
import os
import subprocess
import sys
from pathlib import Path

from sogtok.ingest import parse_graph_file
from sogtok.smiles import scan_smiles

REPO = Path(__file__).resolve().parents[1]


def _generate(out, count, seed, *flags):
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_molecule_graphs.py"),
         "--out", str(out), "--count", str(count), "--seed", str(seed), *flags],
        check=True, capture_output=True, env=env, timeout=120,
    )
    return out.read_bytes()


def test_same_seed_gives_same_bytes(tmp_path):
    first = _generate(tmp_path / "a.jsonl", 200, 3)
    assert _generate(tmp_path / "b.jsonl", 200, 3) == first
    assert _generate(tmp_path / "c.jsonl", 200, 4) != first
    graphs = parse_graph_file(first)
    assert len(graphs) == 200 and len({g.id for g in graphs}) == 200
    closures = set()
    for g in graphs:
        assert 18 <= g.n <= 32 and max(g.degrees()) <= 4
        assert {nd.text for nd in g.nodes} <= {"C", "N", "O"}
        closures.add(len(g.edges) - (g.n - 1))
        seen, stack = {0}, [0]  # a tree plus closures is connected
        adj = g.neighbors()
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == g.n
    assert closures == {0, 1, 2, 3}


def test_smiles_records_scan_back_to_the_graphs(tmp_path):
    """--smiles writes the same graphs, the same bytes for the same seed,
    and each SMILES scans to its graph's atoms and edges with the nodes
    numbered in depth-first preorder from node 0, neighbours in index order."""
    first = _generate(tmp_path / "a.jsonl", 200, 3, "--smiles")
    assert _generate(tmp_path / "b.jsonl", 200, 3, "--smiles") == first
    graphs = parse_graph_file(_generate(tmp_path / "g.jsonl", 200, 3))
    records = [json.loads(line) for line in first.decode("utf-8").splitlines()]
    assert [rec["id"] for rec in records] == [g.id for g in graphs]
    assert all(rec.keys() == {"id", "smiles"} for rec in records)
    labels = set()
    for g, rec in zip(graphs, records):
        adj, number = g.neighbors(), {}

        def visit(v):
            number[v] = len(number)
            for w in sorted(adj[v]):
                if w not in number:
                    visit(w)

        visit(0)
        symbols, _, bonds = scan_smiles(rec["smiles"])
        assert symbols == [g.nodes[v].text for v in sorted(number, key=number.get)]
        assert sorted(bonds) == sorted(tuple(sorted((number[i], number[j]))) for i, j in g.edges)
        labels.update(ch for ch in rec["smiles"] if ch.isdigit())
    assert labels == {"1", "2", "3"}
