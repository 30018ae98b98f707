"""The CLI's input contract on its line-based inputs, as a generated table:
each (input, mutation, subcommand) case runs in process through cli.main.
A run exits 0 with its artifacts, or exits 1, 2 or 3 with exactly one
stderr line that starts `error:` and leaves no --out directory behind; no
exception escapes main.

Inputs: the data file under all six subcommands, an eval response file, a
tokenize node list and a tokenize embedding table. Mutations, each where it
fits the input's format: truncation at three offsets, one byte set to 0xFF,
U+0085, U+2028 and U+2029 between the first two lines and inside a string
of the first line, a line nested 100,000 deep, an integer of 5,000
digits, NaN, and an empty file.
"""

import json
import re

import pytest

from sogtok.cli import main

ROWS = [
    {"id": "m0", "smiles": "CCO", "label": 1},
    {"id": "m1", "smiles": "c1ccccc1", "label": 0},
    {"id": "m2", "smiles": "CC(=O)N", "label": 1},
    {"id": "m3", "nodes": [{"text": "C"}, {"text": "O"}, {}], "edges": [[0, 1], [1, 2]], "label": 0,
     "smiles": "COC"},
    {"id": "m4", "smiles": "C1CC1C", "label": 1},
    {"id": "m5", "smiles": "OCCN", "label": 0},
]
DATA = "".join(json.dumps(row) + "\n" for row in ROWS)
RESPONSES = "".join(json.dumps({"id": row["id"], "text": "Yes" if k % 2 else "No", "score": k / 10}) + "\n"
                    for k, row in enumerate(ROWS))
NODES = "m0 1\nm1 5\nm3 2\n"


def _embedding_table() -> str:
    """A line for each attribute string of DATA's graphs under the default
    ranking, the one the checkpoint is trained with, at d_s = 8."""
    from sogtok.attributes import GLOBAL_ATTRIBUTE, HashingEmbedder, ImportanceStrategy, attribute_maps
    from sogtok.ingest import parse_graph_file

    strings = {GLOBAL_ATTRIBUTE}
    for attrs in attribute_maps(parse_graph_file(DATA), ImportanceStrategy()):
        strings.update(attrs.attribute_of)
    embedder = HashingEmbedder(dim=8)
    return "".join(f"{s}\t" + ",".join(f"{v:.6g}" for v in embedder.embed(s)) + "\n" for s in sorted(strings))


GOOD = {"data": DATA, "responses": RESPONSES, "nodes": NODES, "embed_table": _embedding_table()}

# the subcommands that read each input, keyed by its setting
READERS = {
    "data": ("train", "tokenize", "gen-corpus", "gen-prompts", "eval", "stats"),
    "responses": ("eval",),
    "nodes": ("tokenize-nodes",),
    "embed_table": ("tokenize-table",),
}
# the text that holds the first number of each JSON or node-list input
NUMBER = {"data": '"label": 1', "responses": '"score": 0.0', "nodes": "m0 1"}
# the JSON string of each JSON input that gets a break character inside
INSIDE = {"data": '"m0"', "responses": '"No"'}
BREAKS = {"U+0085": "\x85", "U+2028": "\u2028", "U+2029": "\u2029"}
LONG_INT = "9" * 5000
NESTED = "[" * 100_000 + "]" * 100_000

ARTIFACTS = {
    "train": {"model.sogtok", "train_log.tsv"},
    "tokenize": {"tokens.tsv"},
    "tokenize-nodes": {"node_tokens.tsv"},
    "tokenize-table": {"tokens.tsv"},
    "gen-corpus": {"corpus.jsonl"},
    "gen-prompts": {"tokens.tsv", "train.jsonl", "valid.jsonl", "test.jsonl", "prompts_manifest.json"},
    "eval": {"metrics.csv"},
    "stats": {"correlation.csv", "embeddings.csv", "stats_report.json"},
}


def _replace_number(text: str, kind: str, value: str) -> str:
    """text with its first number of the kind's format replaced by value."""
    if kind == "embed_table":
        key, _, rest = text.partition("\t")
        return key + "\t" + value + rest[rest.index(","):]
    old = NUMBER[kind]
    return text.replace(old, old[: old.rindex(" ") + 1] + value, 1)


def _mutants(kind: str, text: str) -> dict[str, bytes]:
    """Each mutation of an input's text that fits its format, by name."""
    raw = text.encode("utf-8")
    out = {f"cut-{n}": raw[:n] for n in (3, len(raw) // 2, len(raw) - 3)}
    k = len(raw) // 2
    out["byte-ff"] = raw[:k] + b"\xff" + raw[k + 1:]
    # inside a string of the first line: a graph id, a response text, a node-list id or an attribute string
    inside = text.index(INSIDE[kind]) + 2 if kind in INSIDE else 1
    for name, char in BREAKS.items():
        out[f"between-{name}"] = text.replace("\n", char, 1).encode("utf-8")
        out[f"inside-{name}"] = (text[:inside] + char + text[inside:]).encode("utf-8")
    if kind in INSIDE:  # a JSON input
        out["nested"] = (text + NESTED + "\n").encode("utf-8")
    out["digits"] = _replace_number(text, kind, LONG_INT).encode("utf-8")
    out["nan"] = _replace_number(text, kind, "nan" if kind == "embed_table" else "NaN").encode("utf-8")
    out["empty"] = b""
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The good file of each input, and a checkpoint trained on the data."""
    root = tmp_path_factory.mktemp("contract")
    files = {"data": root / "data.jsonl", "responses": root / "responses.jsonl", "nodes": root / "nodes.txt",
             "embed_table": root / "table.tsv"}
    for name, path in files.items():
        path.write_text(GOOD[name], encoding="utf-8")
    assert main([*_argv("train", files), "--out", str(root / "model")]) == 0
    files["checkpoint"] = root / "model" / "model.sogtok"
    return files


def _argv(command: str, files: dict) -> list[str]:
    data, checkpoint = str(files["data"]), str(files.get("checkpoint"))
    tokenize = ["tokenize", "--data", data, "--checkpoint", checkpoint]
    return {
        "train": ["train", "--data", data, "--seed", "1", "--k", "8", "--warmup-epochs", "1", "--epochs", "1",
                  "--d-s", "8", "--d", "4", "--d-r", "2"],
        "tokenize": tokenize,
        "tokenize-nodes": [*tokenize, "--node-level", "--nodes", str(files["nodes"])],
        "tokenize-table": [*tokenize, "--embed-table", str(files["embed_table"])],
        "gen-corpus": ["gen-corpus", "--data", data, "--checkpoint", checkpoint, "--seed", "1"],
        "gen-prompts": ["gen-prompts", "--data", data, "--checkpoint", checkpoint, "--seed", "1",
                        "--task", "BBBP_p_np"],
        "eval": ["eval", "--responses", str(files["responses"]), "--data", data],
        "stats": ["stats", "--data", data, "--checkpoint", checkpoint, "--seed", "1", "--trials", "2"],
    }[command]


CASES = [(kind, mutation, command)
         for kind, commands in READERS.items()
         for mutation in _mutants(kind, GOOD[kind])
         for command in commands]


def test_every_good_input_runs(inputs, tmp_path):
    for command in ARTIFACTS:
        out = tmp_path / command
        assert main([*_argv(command, inputs), "--out", str(out)]) == 0, command
        assert ARTIFACTS[command] | {"manifest.json"} <= {p.name for p in out.iterdir()}


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
@pytest.mark.parametrize("kind, mutation, command", CASES)
def test_input_contract(inputs, tmp_path, capsys, kind, mutation, command):
    mutant = tmp_path / inputs[kind].name
    mutant.write_bytes(_mutants(kind, GOOD[kind])[mutation])
    files = dict(inputs, **{kind: mutant})
    out = tmp_path / "out"
    code = main([*_argv(command, files), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert ARTIFACTS[command] | {"manifest.json"} <= {p.name for p in out.iterdir()}
    else:
        assert code in (1, 2, 3)
        assert re.fullmatch(r"error: [^\n]+\n", err) and len(err.splitlines()) == 1, err
        assert not out.exists()
