"""Every stage streams the data file: it holds one block of parsed graphs,
fails on a bad record wherever it is without leaving an artifact, and the
read stages grow with their outputs, not their inputs."""

import ast
import gc
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest

from sogtok import cli, train
from sogtok.attributes import HashingEmbedder
from sogtok.cli import main
from sogtok.graph import Graph
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
    if stage == "train":
        return ["train", "--seed", "1", "--k", "8", "--warmup-epochs", "1", "--epochs", "1",
                "--d-s", "16", "--d", "8", "--d-r", "4", *common]
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
        "gen-prompts": ["gen-prompts", "--seed", "1", "--task", "BBBP_p_np"],
    }[stage]
    return [*argv, "--checkpoint", str(model), *common]


BAD_LAST_LINES = {
    "json": ('{"id": "bad", "smiles": ', r"line {n}, column \d+: "),
    "duplicate": (json.dumps({"id": "m00000", "smiles": "CCO"}), r"line {n}: duplicate graph id"),
    "size-cap": (json.dumps({"id": "big", "smiles": "C" * 61}),
                 r"line {n}: graph 'big' has 61 nodes, exceeding the size cap of 60"),
}


STAGES = ["train", "tokenize", "tokenize-node", "gen-corpus", "gen-prompts", "stats", "eval"]


@pytest.mark.parametrize("fault", sorted(BAD_LAST_LINES))
@pytest.mark.parametrize("stage", STAGES)
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


def _graphs_alive(prefix: str) -> int:
    """Graphs alive whose ids start with prefix."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Graph) and o.id.startswith(prefix))


def test_no_parsed_graph_outlives_the_read(model, tmp_path, monkeypatch):
    """train holds its prepared buckets, not the graphs, once k-means starts;
    gen-prompts holds each graph's id, text, label and tokens, not the graph,
    once it renders its first prompt."""
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"id": f"alive{i}", "smiles": SMILES[i % len(SMILES)],
                                        "label": i % 2}) + "\n" for i in range(40)))
    alive = {}

    def counted(name, original):
        def call(*args, **kwargs):
            if name not in alive:  # the first call
                alive[name] = _graphs_alive("alive")
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(train, "kmeans", counted("kmeans", train.kmeans))
    assert main(_stage_argv("train", data, None, tmp_path / "t", tmp_path)) == 0
    monkeypatch.setattr(cli, "render_prompt", counted("render_prompt", cli.render_prompt))
    assert main(_stage_argv("gen-prompts", data, model, tmp_path / "p", tmp_path)) == 0
    assert alive == {"kmeans": 0, "render_prompt": 0}


def test_train_stage_dataset_counts_its_graphs(tmp_path, monkeypatch, capsys):
    """train() is handed the stream itself; once it returns, len() of what it
    was handed is the graph count, which the stage prints and the
    benchmark's tracer reads."""
    data = tmp_path / "data.jsonl"
    _molecules(data, 30)
    handed = []

    def recorded(dataset, *args, **kwargs):
        handed.append(dataset)
        return train.train(dataset, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recorded)
    assert main(_stage_argv("train", data, None, tmp_path / "t", tmp_path)) == 0
    assert not isinstance(handed[0], list) and len(handed[0]) == 30
    assert "model on 30 graphs" in capsys.readouterr().out


@pytest.mark.parametrize("stage", ["train", "gen-prompts"])
def test_outputs_do_not_depend_on_the_block_size(model, tmp_path, monkeypatch, stage):
    """Blocks of 7 graphs, where one node count spans several blocks, write
    the bytes of one block of READ_BLOCK; gen-prompts joins a label CSV that
    flips every third label."""
    data, labels = tmp_path / "data.jsonl", tmp_path / "labels.csv"
    _molecules(data, 40)
    labels.write_text("".join(f"m{i:05d},{1 - i % 2}\n" for i in range(0, 40, 3)))
    outputs = []
    for block in (READ_BLOCK, 7):
        monkeypatch.setattr(train, "READ_BLOCK", block)
        out = tmp_path / f"out{block}"
        argv = _stage_argv(stage, data, model, out, tmp_path)
        assert main(argv + (["--labels", str(labels)] if stage == "gen-prompts" else [])) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1


def _calls(tree: ast.AST, name: str) -> list[str]:
    """The enclosing function of each call of `name` in a module, '' at
    module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_only_stream_graphs_reads_the_data_file():
    """In the package, cli._stream_graphs is the one caller of iter_graph_file
    but for ingest.parse_graph_file, which nothing in the package calls."""
    callers = {"iter_graph_file": [], "parse_graph_file": []}
    for path in sorted((Path(cli.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, found in callers.items():
            found.extend(f"{path.stem}.{where}" for where in _calls(tree, name))
    assert callers == {"iter_graph_file": ["cli._stream_graphs", "ingest.parse_graph_file"],
                       "parse_graph_file": []}
