"""scripts/make_molecule_graphs.py: seeded molecule-like graph JSONL."""

import os
import subprocess
import sys
from pathlib import Path

from sogtok.ingest import parse_graph_file

REPO = Path(__file__).resolve().parents[1]


def _generate(out, count, seed):
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_molecule_graphs.py"),
         "--out", str(out), "--count", str(count), "--seed", str(seed)],
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
