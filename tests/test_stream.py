"""The read stages stream the data file: tokenize, gen-corpus, stats and
eval hold one block of parsed graphs, fail on a bad record wherever it is
without leaving an artifact, and grow with their outputs, not their inputs."""

import gc
import json
import re
import tracemalloc
import warnings

import pytest

from sogtok import train
from sogtok.attributes import HashingEmbedder
from sogtok.cli import main
from sogtok.ingest import iter_graph_file, parse_graph_file
from sogtok.model import load_checkpoint
from sogtok.synthetic import scaffold_smiles_set
from sogtok.train import READ_BLOCK, assign_tokens, node_tokens

SMILES = [s for _, s in scaffold_smiles_set()]


def _molecules(path, count: int, tail: str = "") -> None:
    """count SMILES records of ring cores with long tails (about 28 atoms),
    then the line tail when one is given."""
    lines = [json.dumps({"id": f"m{i:05d}", "smiles": SMILES[i % len(SMILES)] + "C" * (12 + i % 5),
                         "label": i % 2})
             for i in range(count)]
    path.write_text("\n".join(lines + ([tail] if tail else [])) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-model")
    _molecules(root / "train.jsonl", 40)
    assert main(["train", "--data", str(root / "train.jsonl"), "--out", str(root), "--k", "8",
                 "--seed", "3", "--warmup-epochs", "1", "--epochs", "1", "--d-s", "16",
                 "--d", "8", "--d-r", "4"]) == 0
    return root / "model.sogtok"


def _stage_argv(stage: str, data, model, out, tmp_path) -> list[str]:
    common = ["--data", str(data), "--out", str(out)]
    if stage == "eval":
        responses = tmp_path / "responses.jsonl"
        responses.write_text("".join(json.dumps({"id": f"m{i:05d}", "text": "True"}) + "\n"
                                     for i in range(4)))
        return ["eval", "--responses", str(responses), *common]
    argv = {
        "tokenize": ["tokenize"],
        "tokenize-node": ["tokenize", "--node-level", "--hops", "1"],
        "gen-corpus": ["gen-corpus", "--kinds", "knn,simjudge,descmatch", "--seed", "1"],
        "stats": ["stats", "--seed", "1", "--trials", "1"],
    }[stage]
    return [*argv, "--checkpoint", str(model), *common]


BAD_LAST_LINES = {
    "json": ('{"id": "bad", "smiles": ', r"line {n}, column \d+: "),
    "duplicate": (json.dumps({"id": "m00000", "smiles": "CCO"}), r"line {n}: duplicate graph id"),
    "size-cap": (json.dumps({"id": "big", "smiles": "C" * 61}),
                 r"line {n}: graph 'big' has 61 nodes, exceeding the size cap of 60"),
}


@pytest.mark.parametrize("fault", sorted(BAD_LAST_LINES))
@pytest.mark.parametrize("stage", ["tokenize", "tokenize-node", "gen-corpus", "stats", "eval"])
def test_bad_last_line_exits_2_and_leaves_no_artifact(model, tmp_path, capsys, stage, fault):
    """The bad record comes after a whole block has been encoded; the run
    still exits 2 with one line, and its --out directory is gone."""
    count = READ_BLOCK + 8
    tail, message = BAD_LAST_LINES[fault]
    data = tmp_path / "data.jsonl"
    _molecules(data, count, tail)
    out = tmp_path / "out"
    argv = _stage_argv(stage, data, model, out, tmp_path) + ["--size-cap", "60"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch("error: " + message.format(n=count + 1) + r"[^\n]*\n", err), err
    assert not out.exists()


def _peak_bytes(argv: list[str]) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held_bytes(data) -> int:
    """What holding every parsed graph of the file takes."""
    text = data.read_text(encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        graphs = parse_graph_file(text)
        held = tracemalloc.get_traced_memory()[0]
        del graphs
    finally:
        tracemalloc.stop()
    return held


@pytest.mark.parametrize("stage", ["tokenize", "gen-corpus"])
def test_peak_memory_grows_with_outputs_not_parsed_graphs(model, tmp_path, stage):
    """From N to 4N graphs, the peak grows by less than half of what holding
    the 3N added parsed graphs takes. N spans two blocks, so that both runs
    hold a finished block while the next one is parsed. An untraced run
    first does the one-off work of a first call, such as lazy imports."""
    n = 2 * READ_BLOCK
    peaks, held = [], []
    for count in (16, n, 4 * n):
        data = tmp_path / f"data{count}.jsonl"
        _molecules(data, count)
        argv = {
            "tokenize": ["tokenize"],
            "gen-corpus": ["gen-corpus", "--kinds", "knn,simjudge", "--seed", "1"],
        }[stage] + ["--data", str(data), "--checkpoint", str(model),
                    "--out", str(tmp_path / f"out{count}")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a simjudge shortfall is not at issue here
            if count == 16:
                assert main(argv) == 0
                continue
            peaks.append(_peak_bytes(argv))
        held.append(_held_bytes(data))
    assert peaks[1] - peaks[0] < 0.5 * (held[1] - held[0]), (peaks, held)


READ_PATHS = {
    "graph": lambda graphs, model, embedder: assign_tokens(graphs, model, embedder),
    # hops that reach the whole molecule: each ego-graph is as large as its graph
    "node": lambda graphs, model, embedder: node_tokens(((g, 0) for g in graphs), model, 64,
                                                        embedder),
}


@pytest.mark.parametrize("level", sorted(READ_PATHS))
def test_next_block_is_prepared_without_the_previous_one(model, tmp_path, monkeypatch, level):
    """Graph- and node-level tokenize, measured as each block is prepared: it
    holds what it held at the previous block plus that block's outputs, not
    that block's graphs, attribute maps or rows as well. A first untraced run
    fills the embedder's cache, so the traced run grows only by what it keeps."""
    block, blocks = 64, 5
    monkeypatch.setattr(train, "READ_BLOCK", block)
    data = tmp_path / "data.jsonl"
    _molecules(data, block)
    records = [json.loads(line) for line in data.read_text().splitlines()]
    # every block holds the same molecules, under new ids
    data.write_text("".join(json.dumps({**records[i % block], "id": f"m{i:05d}"}) + "\n"
                            for i in range(block * blocks)))
    text = data.read_bytes()
    loaded = load_checkpoint(model)
    embedder = HashingEmbedder(dim=loaded.d_s)
    read = READ_PATHS[level]
    read(iter_graph_file(text), loaded, embedder)

    held = []
    prepare = train.prepare_graphs

    def traced_prepare(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return prepare(*args, **kwargs)

    monkeypatch.setattr(train, "prepare_graphs", traced_prepare)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = read(iter_graph_file(text), loaded, embedder)
        outputs = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(out) == block * blocks and len(held) == blocks
    block_graphs = _held_bytes(data) / blocks
    growth = [b - a for a, b in zip(held, held[1:])]
    # the slack covers small allocator caches, a fraction of one block's graphs
    assert max(growth) < outputs / blocks + 0.25 * block_graphs, (growth, outputs, block_graphs)
