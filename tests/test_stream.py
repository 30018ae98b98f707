"""Every stage streams the data file: it holds one block of parsed graphs,
fails on a bad record wherever it is without leaving an artifact, and the
read stages grow with their outputs, not their inputs."""

import ast
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sogtok import cli, ingest, prompts, train
from sogtok.attributes import HashingEmbedder
from sogtok.cli import main
from sogtok.graph import Graph
from sogtok.ingest import READ_BLOCK, GraphBlock, iter_graph_file
from sogtok.model import load_checkpoint
from sogtok.synthetic import scaffold_smiles_set
from sogtok.train import assign_tokens, node_tokens

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
    """What holding every parsed block of the file takes: what a stage that
    kept each block it read would hold."""
    text = data.read_text(encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blocks = list(iter_graph_file(text))
        held = tracemalloc.get_traced_memory()[0] - start
        del blocks
    finally:
        tracemalloc.stop()
    return held


@pytest.mark.parametrize("stage", ["tokenize", "gen-corpus"])
def test_peak_memory_grows_with_outputs_not_parsed_graphs(model, tmp_path, stage):
    """From N to 4N graphs, the peak grows by less than what holding the
    blocks of the 3N added graphs takes, which a stage that kept every block
    would add to the growth of its outputs. N spans two blocks, so that both
    runs hold a finished block while the next one is parsed. An untraced run
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
    assert peaks[1] - peaks[0] < held[1] - held[0], (peaks, held)


READ_PATHS = {
    "graph": lambda blocks, model, embedder: assign_tokens(blocks, model, embedder),
    # hops that reach the whole molecule: each ego-graph is as large as its graph
    "node": lambda blocks, model, embedder: node_tokens(
        ((b, np.arange(len(b)), np.zeros(len(b), dtype=np.intp)) for b in blocks), model, 64, embedder),
}


@pytest.mark.parametrize("level", sorted(READ_PATHS))
def test_next_block_is_prepared_without_the_previous_one(model, tmp_path, monkeypatch, level):
    """Graph- and node-level tokenize, measured as each block is prepared: it
    holds what it held at the previous block plus that block's outputs, not
    that block's parsed arrays, rankings or rows as well. A first untraced run
    fills the embedder's cache, so the traced run grows only by what it keeps."""
    block, blocks = 64, 5
    monkeypatch.setattr(ingest, "READ_BLOCK", block)
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
    prepare = train.prepare_block

    def traced_prepare(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return prepare(*args, **kwargs)

    monkeypatch.setattr(train, "prepare_block", traced_prepare)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = read(iter_graph_file(text), loaded, embedder)
        outputs = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(out) == block * blocks and len(held) == blocks
    block_bytes = _held_bytes(data) / blocks
    # the reader keeps every id read, to refuse a repeated one; its set's table
    # grows in jumps, as this set of the same ids added in the same order does
    ids, id_bytes = set(), []
    for i in range(block * blocks):
        ids.add(f"m{i:05d}")
        if (i + 1) % block == 0:
            id_bytes.append(sys.getsizeof(ids))
    growth = [b - a - (d - c) for a, b, c, d in zip(held, held[1:], id_bytes, id_bytes[1:])]
    # From the second block on, a block adds its outputs, within small
    # allocator caches. A previous block held while the next is prepared shows
    # in the first growth only, which also pays one-time allocations (NumPy's
    # first small arrays, about 9 kB here): both slacks are absolute, so they
    # do not grow with the block (one parsed block is about 40 kB here).
    assert max(growth[1:]) < outputs / blocks + 4_000, (growth, outputs)
    assert growth[0] < max(growth[1:]) + 16_000, (growth, block_bytes)


def _graphs_alive(prefix: str) -> int:
    """Graphs, and graphs of parsed blocks, alive whose ids start with prefix."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Graph) and o.id.startswith(prefix)) + sum(
        sum(gid.startswith(prefix) for gid in o.ids) for o in gc.get_objects() if isinstance(o, GraphBlock))


def test_no_parsed_graph_outlives_the_read(model, tmp_path, monkeypatch):
    """train holds its prepared buckets, not the parsed blocks, once k-means
    starts; gen-prompts holds each graph's id, text, label and tokens, not
    its block, once it renders its first prompt."""
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
    monkeypatch.setattr(prompts, "render_prompt", counted("render_prompt", prompts.render_prompt))
    assert main(_stage_argv("gen-prompts", data, model, tmp_path / "p", tmp_path)) == 0
    assert alive == {"kmeans": 0, "render_prompt": 0}


def test_train_stage_dataset_counts_its_graphs(tmp_path, monkeypatch, capsys):
    """train() is handed the stream itself; once it returns, len() of what it
    was handed is the graph count, which the stage prints and the
    benchmark's tracer reads."""
    data = tmp_path / "data.jsonl"
    _molecules(data, 30)
    handed, real = [], train.train

    def recorded(dataset, *args, **kwargs):
        handed.append(dataset)
        return real(dataset, *args, **kwargs)

    monkeypatch.setattr(train, "train", recorded)
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
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        out = tmp_path / f"out{block}"
        argv = _stage_argv(stage, data, model, out, tmp_path)
        assert main(argv + (["--labels", str(labels)] if stage == "gen-prompts" else [])) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1


def _outputs(out) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.mark.parametrize("stage", ["tokenize", "tokenize-node"])
def test_tokens_do_not_depend_on_the_record_order(model, tmp_path, monkeypatch, stage):
    """The records shuffled, in blocks of 64, so each block holds other
    graphs and other stacks, give the bytes of tokens.tsv and
    node_tokens.tsv of the file order."""
    monkeypatch.setattr(ingest, "READ_BLOCK", 64)
    data, shuffled = tmp_path / "data.jsonl", tmp_path / "shuffled.jsonl"
    _molecules(data, 300)
    lines = data.read_text().splitlines(keepends=True)
    shuffled.write_text("".join(lines[i] for i in np.random.default_rng(5).permutation(len(lines))))
    outputs = []
    for path in (data, shuffled):
        out = tmp_path / path.stem
        assert main(_stage_argv(stage, path, model, out, tmp_path)) == 0
        outputs.append(_outputs(out))
    assert outputs[0] == outputs[1] and len(outputs[0]) == 1


def test_inputs_are_read_once_so_a_pipe_works(model, tmp_path):
    """A data file given as a named pipe, which can be read only once, gives
    the outputs of the regular file, and the manifest holds the sha256 of
    the bytes the stage read. The stage runs in its own process, so a
    second read, which would wait for a writer forever, fails the test."""
    data, pipe = tmp_path / "data.jsonl", tmp_path / "data.fifo"
    _molecules(data, 30)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data.read_bytes(),), daemon=True)
    writer.start()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {}
    for path in (pipe, data):
        out = tmp_path / path.suffix[1:]
        proc = subprocess.run([sys.executable, "-m", "sogtok.cli",
                               *_stage_argv("tokenize", path, model, out, tmp_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs[path] = (_outputs(out), json.loads((out / "manifest.json").read_text())["input_checksums"])
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert runs[pipe] == runs[data] and runs[pipe][0]["tokens.tsv"].count(b"\n") == 31
    assert runs[pipe][1]["data"] == hashlib.sha256(data.read_bytes()).hexdigest()


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
    """In the package, cli._stream_graphs is the one caller of
    iter_graph_file. It shares the record generator ingest._records with
    ingest.parse_graph_file, which nothing in the package calls."""
    callers = {"iter_graph_file": [], "parse_graph_file": [], "_records": []}
    for path in sorted((Path(cli.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, found in callers.items():
            found.extend(f"{path.stem}.{where}" for where in _calls(tree, name))
    assert callers == {"iter_graph_file": ["cli._stream_graphs"], "parse_graph_file": [],
                       "_records": ["ingest.iter_graph_file", "ingest.parse_graph_file"]}


# Runs one CLI stage and prints, after it returns, whether numpy.ma was imported.
_MA_PROBE = ("import sys\nfrom sogtok.cli import main\ncode = main(sys.argv[1:])\n"
             "print('numpy.ma' in sys.modules)\nsys.exit(code)")


@pytest.mark.parametrize("stage", STAGES)
def test_no_stage_imports_numpy_ma(model, tmp_path, stage):
    """Each stage in a fresh interpreter ends without numpy.ma, whose import
    costs a process about 2 MB and 25 ms (np.setdiff1d, for one, imports
    it)."""
    data = tmp_path / "data.jsonl"
    _molecules(data, 20)
    argv = _stage_argv(stage, data, model, tmp_path / "out", tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _MA_PROBE, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Runs the CLI and prints, after it returns or exits, the sogtok modules it
# loaded and whether NumPy was imported, as one JSON line.
_MODULE_PROBE = ("import json, sys\nfrom sogtok.cli import main\n"
                 "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
                 "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'sogtok'),"
                 " 'numpy' in sys.modules]))\nsys.exit(code)")

# the sogtok modules that each stage does not load
NOT_LOADED = {
    "train": {"corpus", "metrics", "prompts", "scaffold"},
    "tokenize": {"corpus", "metrics", "prompts", "scaffold"},
    "tokenize-node": {"corpus", "metrics", "prompts", "scaffold"},
    "gen-corpus": {"metrics", "prompts", "scaffold"},
    "gen-prompts": {"corpus", "metrics", "scaffold"},
    "eval": {"train", "model", "attributes", "corpus", "scaffold"},
    "stats": {"prompts"},
}


def _probe_modules(argv) -> tuple[subprocess.CompletedProcess, set[str], bool]:
    """The CLI run on argv in a fresh interpreter: the process, the sogtok
    modules it loaded and whether it imported NumPy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    modules, numpy = json.loads(proc.stdout.splitlines()[-1])
    return proc, set(modules), numpy


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_loads_only_its_modules(model, tmp_path, stage):
    """A stage imports the modules it calls when it runs, so each one ends
    without the modules of the other stages."""
    data = tmp_path / "data.jsonl"
    _molecules(data, 20)
    proc, modules, _ = _probe_modules(_stage_argv(stage, data, model, tmp_path / "out", tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {"sogtok.cli", "sogtok.ingest"} <= modules
    assert not modules & {f"sogtok.{name}" for name in NOT_LOADED[stage]}


def test_top_level_help_loads_no_numpy():
    """`sogtok --help` lists every subcommand and loads no subcommand's
    modules and no NumPy."""
    proc, modules, numpy = _probe_modules(["--help"])
    assert proc.returncode == 0, proc.stderr
    assert modules == {"sogtok", "sogtok.cli", "sogtok.errors", "sogtok.manifest"}
    assert not numpy
    assert all(re.search(rf"^\s+{command}\s", proc.stdout, re.M) for command in cli.COMMANDS)


@pytest.mark.parametrize("command", ["eval", "tokenize", "gen-corpus", "stats"])
def test_subcommand_help_loads_no_numpy(command):
    """A subcommand whose settings declare no default or choices in a NumPy
    module (the size cap is declared in manifest) prints its --help without
    loading NumPy."""
    proc, modules, numpy = _probe_modules([command, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "--size-cap" in proc.stdout
    assert modules == {"sogtok", "sogtok.cli", "sogtok.errors", "sogtok.manifest"}
    assert not numpy


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_subcommand_help_lists_the_flags_of_its_settings(command, capsys):
    """A subcommand declares its flags when it parses: its --help lists
    exactly the flags of its settings."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--" + s.name.replace("_", "-") for s in cli._settings(command)} | {
        "--help", "--from-manifest"}


@pytest.mark.parametrize("flags,message", [
    (["--tau-pos", "0.1", "--tau-neg", "0.5"], "thresholds must satisfy -1 <= tau_neg < tau_pos <= 1, got (0.5, 0.1)"),
    (["--knn-k", "999"], "k must be in [1, K); got k=999, K=8"),
    (["--pairs", "1"], "pair budget must be >= 2"),
], ids=["thresholds", "knn-k", "pairs"])
def test_gen_corpus_reports_a_bad_setting_before_reading_the_data(model, tmp_path, capsys, monkeypatch,
                                                                   flags, message):
    """A bad threshold pair, knn k or pair budget needs only the flags and
    the checkpoint: it is reported before a bad last data line, and no
    graph is encoded."""
    encoded = []
    monkeypatch.setattr(train, "encoded_blocks", lambda *args, **kwargs: encoded.append(args) or iter(()))
    data = tmp_path / "data.jsonl"
    _molecules(data, 4, BAD_LAST_LINES["json"][0])
    out = tmp_path / "out"
    assert main(_stage_argv("gen-corpus", data, model, out, tmp_path) + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert encoded == [] and not out.exists()
