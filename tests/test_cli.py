import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sogtok.attributes import HashingEmbedder
from sogtok.cli import _resolve, build_parser, main
from sogtok.errors import ValidationError
from sogtok.graph import Graph, NodeRecord, ego_graph
from sogtok.ingest import READ_BLOCK, write_graph_file
from sogtok.model import encode, load_checkpoint
from sogtok.synthetic import family_dataset

pytestmark = pytest.mark.usefixtures("dataset")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "graphs.jsonl"
    write_graph_file(family_dataset(per_family=6, n_lo=5, n_hi=8, seed=13), data)
    return data


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(
        [
            "train", "--data", str(dataset), "--out", str(out),
            "--k", "8", "--seed", "3", "--warmup-epochs", "2", "--epochs", "3",
            "--batch-size", "6", "--lr-gcn", "0.002", "--lr-codebook", "0.01",
            "--d-s", "16", "--d", "8", "--d-r", "4",
        ]
    )
    assert code == 0
    return out


def test_train_outputs(trained):
    assert (trained / "model.sogtok").exists()
    assert (trained / "train_log.tsv").exists()
    assert (trained / "manifest.json").exists()
    assert (trained / "ckpt_epoch_000.sogtok").exists()
    assert (trained / "ckpt_epoch_004.sogtok").exists()
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["command"] == "train" and manifest["seed"] == 3
    assert manifest["config"]["k"] == 8
    # the copy in the checkpoint holds no path: the data file is a checksum
    embedded = load_checkpoint(trained / "model.sogtok").manifest
    assert embedded["input_checksums"] == manifest["input_checksums"]
    assert set(embedded["input_checksums"]) == {"data"}
    assert not {"data", "out"} & embedded["config"].keys() and "created_at" not in embedded


def test_train_determinism(dataset, trained, tmp_path):
    out2 = tmp_path / "rerun"
    code = main(
        [
            "train", "--data", str(dataset), "--out", str(out2),
            "--k", "8", "--seed", "3", "--warmup-epochs", "2", "--epochs", "3",
            "--batch-size", "6", "--lr-gcn", "0.002", "--lr-codebook", "0.01",
            "--d-s", "16", "--d", "8", "--d-r", "4",
        ]
    )
    assert code == 0
    assert (out2 / "model.sogtok").read_bytes() == (trained / "model.sogtok").read_bytes()
    assert (out2 / "train_log.tsv").read_bytes() == (trained / "train_log.tsv").read_bytes()


def test_train_replay_from_manifest(trained, tmp_path):
    out2 = tmp_path / "replayed"
    code = main(
        ["train", "--from-manifest", str(trained / "manifest.json"), "--out", str(out2)]
    )
    assert code == 0
    assert (out2 / "model.sogtok").read_bytes() == (trained / "model.sogtok").read_bytes()


def test_train_k_too_small(dataset, tmp_path):
    code = main(
        ["train", "--data", str(dataset), "--out", str(tmp_path / "x"), "--k", "1", "--seed", "1"]
    )
    assert code == 2


def test_train_seed_required(dataset, tmp_path):
    code = main(["train", "--data", str(dataset), "--out", str(tmp_path / "x"), "--k", "4"])
    assert code == 2


def test_missing_data_io_error(tmp_path):
    code = main(
        ["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x"), "--seed", "1"]
    )
    assert code == 1


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_exit_3(dataset, tmp_path):
    code = main(
        ["train", "--data", str(dataset), "--out", str(tmp_path / "x"), "--k", "4",
         "--seed", "1", "--warmup-epochs", "6", "--epochs", "0",
         "--lr-warmup", "1e150", "--d-s", "16", "--d", "8", "--d-r", "4"]
    )
    assert code == 3


def test_tokenize(dataset, trained, tmp_path):
    out = tmp_path / "tok"
    code = main(
        ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "tokens.tsv").read_text().splitlines()
    assert lines[0] == "id\tgraph_token\tnode_tokens"
    assert len(lines) == 19  # 18 graphs + header


def test_tokenize_jobs_deterministic(dataset, trained, tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out, jobs in ((out1, "1"), (out2, "3")):
        assert main(
            ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
             "--out", str(out), "--jobs", jobs]
        ) == 0
    assert (out1 / "tokens.tsv").read_bytes() == (out2 / "tokens.tsv").read_bytes()


def test_tokenize_embed_table_dimension_mismatch(dataset, trained, tmp_path):
    table = tmp_path / "table.tsv"
    table.write_text("anchor node\t1.0,2.0\n")  # dim 2 != checkpoint d_s 16
    code = main(
        ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(tmp_path / "t"), "--embed-table", str(table)]
    )
    assert code == 2


def test_tokenize_node_level(dataset, trained, tmp_path):
    out = tmp_path / "ntok"
    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text("cycle_000 0\ncycle_000 1\nstar_002 0\n")
    code = main(
        ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--node-level", "--hops", "2", "--nodes", str(nodes_file)]
    )
    assert code == 0
    lines = (out / "node_tokens.tsv").read_text().splitlines()
    assert lines[0] == "id\tnode\ttoken"
    assert len(lines) == 4
    assert all("<SOG_" in ln for ln in lines[1:])


def test_tokenize_hops_zero(dataset, trained, tmp_path):
    out = tmp_path / "h0"
    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text("cycle_000 0\ncycle_001 0\n")
    code = main(
        ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--node-level", "--hops", "0", "--nodes", str(nodes_file)]
    )
    assert code == 0
    lines = (out / "node_tokens.tsv").read_text().splitlines()[1:]
    # every single-node ego-graph has the same structure, hence same token
    tokens = {ln.split("\t")[2] for ln in lines}
    assert len(tokens) == 1


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_gen_corpus(dataset, trained, tmp_path):
    out = tmp_path / "corpus"
    code = main(
        ["gen-corpus", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--seed", "5", "--kinds", "knn,simjudge,descmatch",
         "--knn-k", "3", "--pairs", "12"]
    )
    assert code == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    kinds = [json.loads(ln)["kind"] for ln in lines]
    assert set(kinds) <= {"knn", "simjudge", "descmatch"}
    assert "descmatch" in kinds and "knn" in kinds
    assert kinds == sorted(kinds)


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_gen_corpus_deterministic(dataset, trained, tmp_path):
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert main(
            ["gen-corpus", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
             "--out", str(out), "--seed", "5", "--knn-k", "3", "--pairs", "12"]
        ) == 0
        outs.append((out / "corpus.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_gen_prompts(dataset, trained, tmp_path):
    out = tmp_path / "prompts"
    code = main(
        ["gen-prompts", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--seed", "5", "--task", "BBBP_p_np", "--balance", "1:1"]
    )
    # graphs lack SMILES text -> MissingText -> config error
    assert code == 2


def test_gen_prompts_molecules(trained, tmp_path):
    mols = tmp_path / "mols.jsonl"
    rows = []
    for i, smi in enumerate(["CCO", "C1CC1", "CC(C)C", "c1ccccc1", "CCC", "C1CCCC1"]):
        rows.append(json.dumps({"id": f"m{i}", "smiles": smi, "label": i % 2}))
    mols.write_text("\n".join(rows) + "\n")
    out = tmp_path / "prompts"
    code = main(
        ["gen-prompts", "--data", str(mols), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--seed", "5", "--task", "BBBP_p_np", "--split-ratio", "4:1:1"]
    )
    assert code == 0
    for split in ("train", "valid", "test"):
        assert (out / f"{split}.jsonl").exists()
    total = sum(
        len((out / f"{s}.jsonl").read_text().splitlines()) for s in ("train", "valid", "test")
    )
    assert total == 6
    row = json.loads((out / "train.jsonl").read_text().splitlines()[0])
    assert "<SOG_" in row["prompt"] and row["answer"] in ("True", "False")
    manifest = json.loads((out / "prompts_manifest.json").read_text())
    assert "token_table_sha256" in manifest


def test_label_csv_replaces_graph_labels(trained, tmp_path):
    """A CSV label replaces the graph's own label; a graph the CSV leaves out
    keeps its own."""
    mols = tmp_path / "mols.jsonl"
    mols.write_text("".join(json.dumps({"id": f"m{i}", "smiles": "CCO", "label": 1}) + "\n"
                            for i in range(3)))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nm0,0\nm2,1\n")
    out = tmp_path / "prompts"
    assert main(["gen-prompts", "--data", str(mols), "--checkpoint", str(trained / "model.sogtok"),
                 "--out", str(out), "--seed", "5", "--task", "BBBP_p_np", "--split-ratio", "1:0:0",
                 "--labels", str(labels)]) == 0
    rows = [json.loads(line) for line in (out / "train.jsonl").read_text().splitlines()]
    assert sorted((r["id"], r["answer"]) for r in rows) == [("m0", "False"), ("m1", "True"),
                                                            ("m2", "True")]


def test_gen_prompts_unknown_task(dataset, trained, tmp_path):
    code = main(
        ["gen-prompts", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(tmp_path / "x"), "--seed", "5", "--task", "NotATask"]
    )
    assert code == 2


def test_eval(tmp_path):
    data = tmp_path / "labeled.jsonl"
    rows = [json.dumps({"id": f"g{i}", "nodes": [{}], "edges": [], "label": i % 2}) for i in range(6)]
    data.write_text("\n".join(rows) + "\n")
    responses = tmp_path / "responses.jsonl"
    texts = ["True", "False", "True", "False", "True", "cannot tell"]
    responses.write_text(
        "\n".join(json.dumps({"id": f"g{i}", "text": t}) for i, t in enumerate(texts)) + "\n"
    )
    out = tmp_path / "eval"
    code = main(
        ["eval", "--responses", str(responses), "--data", str(data),
         "--task", "BBBP_p_np", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("task,auc,accuracy,micro_f1")
    fields = lines[1].split(",")
    assert fields[0] == "BBBP_p_np"
    assert 0.0 <= float(fields[1]) <= 1.0


def test_stats(dataset, trained, tmp_path):
    out = tmp_path / "stats"
    code = main(
        ["stats", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
         "--out", str(out), "--seed", "9", "--corr-first", "4", "--trials", "2"]
    )
    assert code == 0
    corr = (out / "correlation.csv").read_text().splitlines()
    assert len(corr) == 4 and len(corr[0].split(",")) == 4
    emb_lines = (out / "embeddings.csv").read_text().splitlines()
    assert len(emb_lines) == 19
    report = json.loads((out / "stats_report.json").read_text())
    assert 0.0 <= report["permutation_consistency"] <= 1.0
    assert report["graph_count"] == 18


@pytest.fixture(scope="module")
def mixed_graphs(tmp_path_factory):
    """620 random graphs of 1 to 14 nodes, some disconnected: more than one
    read block, each block with many node counts."""
    rng = np.random.default_rng(17)
    graphs = []
    for i in range(620):
        n = int(rng.integers(1, 15))
        p = rng.uniform(0.1, 0.6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        graphs.append(Graph(id=f"r{i:04d}", nodes=(NodeRecord(),) * n,
                            edges=tuple(edges)))
    path = tmp_path_factory.mktemp("mixed") / "mixed.jsonl"
    write_graph_file(graphs, path)
    return graphs, path


def _oracle_rows(g, model, embedder, include_global):
    import oracle

    _, anorm, x = oracle.prepare_graph(g, model.strategy, embedder, include_global)
    h = encode(anorm, x, model.enc)[0]
    return [int(((row - model.codebook.entries) ** 2).sum(axis=1).argmin()) for row in h]


def test_tokenize_blocks_equal_per_graph_reference(mixed_graphs, trained, tmp_path):
    graphs, data = mixed_graphs
    checkpoint = trained / "model.sogtok"
    model = load_checkpoint(checkpoint)
    embedder = HashingEmbedder(dim=model.d_s)
    wanted = [(g, v) for g in graphs[:100] for v in range(g.n)]
    assert len(graphs) > READ_BLOCK and len(wanted) > READ_BLOCK
    (tmp_path / "nodes.txt").write_text("".join(f"{g.id} {v}\n" for g, v in wanted))

    assert main(["tokenize", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "t")]) == 0
    lines = ["id\tgraph_token\tnode_tokens"]
    for g in graphs:
        idx = _oracle_rows(g, model, embedder, include_global=True)
        lines.append(f"{g.id}\t<SOG_{idx[-1]}>\t" + ",".join(map(str, idx[:-1])))
    assert (tmp_path / "t" / "tokens.tsv").read_text() == "\n".join(lines) + "\n"

    assert main(["tokenize", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "n"), "--node-level", "--hops", "1",
                 "--nodes", str(tmp_path / "nodes.txt")]) == 0
    lines = ["id\tnode\ttoken"]
    for g, v in wanted:
        ego, _ = ego_graph(g, v, 1)
        lines.append(f"{g.id}\t{v}\t<SOG_{_oracle_rows(ego, model, embedder, False)[0]}>")
    assert (tmp_path / "n" / "node_tokens.tsv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("level", [[], ["--node-level"]])
def test_tokenize_table_missing_string_exit_2(mixed_graphs, trained, tmp_path, level):
    _, data = mixed_graphs
    table = tmp_path / "table.tsv"
    table.write_text("anchor node\t" + ",".join(["0.5"] * 16) + "\n")
    proc = _run_cli("tokenize", "--data", data, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "t", "--embed-table", table, *level)
    _assert_validation_exit(proc, "missing from embedding table")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_unknown_flag_exits_2(dataset):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(dataset), "--nonsense", "x"])
    assert exc.value.code == 2


def _run_cli(*argv):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "sogtok.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _assert_validation_exit(proc, needle):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


def test_batch_size_zero_exit_2(dataset, tmp_path):
    proc = _run_cli("train", "--data", dataset, "--out", tmp_path / "x", "--seed", "1",
                    "--batch-size", "0")
    _assert_validation_exit(proc, "batch size")


def test_node_list_non_integer_index_exit_2(dataset, trained, tmp_path):
    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text("cycle_000 0\ncycle_000 first\n")
    proc = _run_cli("tokenize", "--data", dataset, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "t", "--node-level", "--nodes", nodes_file)
    _assert_validation_exit(proc, "node list line 2")


DEEP = "[" * 200_000 + "]" * 200_000  # deeper than the JSON decoder recurses
LONG_INT = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize("case", ["label-digits", "data-depth", "responses-depth", "node-index-digits",
                                  "manifest-depth", "checkpoint-depth"])
def test_json_python_refuses_exits_2(dataset, trained, tmp_path, case):
    """An input whose JSON Python refuses to decode, or a node index with
    more digits than int() converts, exits 2 with one error line that names
    its line or file, and leaves no --out directory."""
    good = json.dumps({"id": "m0", "smiles": "CCO", "label": 1})
    data = tmp_path / "data.jsonl"
    data.write_text(good + "\n" + {"label-digits": '{"id": "m1", "smiles": "CC", "label": %s}' % LONG_INT,
                                   "data-depth": DEEP}.get(case, good.replace("m0", "m1")) + "\n")
    out = tmp_path / "out"
    checkpoint = trained / "model.sogtok"
    if case == "checkpoint-depth":
        blob = DEEP.encode()
        checkpoint = tmp_path / "deep.sogtok"
        checkpoint.write_bytes(b"SOGTOK1" + len(blob).to_bytes(4, "little") + blob)
    tokenize = ["tokenize", "--data", data, "--checkpoint", checkpoint, "--out", out]
    if case == "responses-depth":
        responses = tmp_path / "responses.jsonl"
        responses.write_text(DEEP + "\n")
        argv, needle = ["eval", "--responses", responses, "--data", data, "--out", out], \
            "response line 1: not valid JSON (nested too deeply to decode)"
    elif case == "node-index-digits":
        nodes = tmp_path / "nodes.txt"
        nodes.write_text(f"m0 0\nm0 {LONG_INT}\n")
        argv, needle = [*tokenize, "--node-level", "--nodes", nodes], "node list line 2: index has 5000 digits"
    elif case == "manifest-depth":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(DEEP)
        argv, needle = ["tokenize", "--from-manifest", manifest, "--out", out], \
            f"manifest {manifest}: not valid JSON (nested too deeply to decode)"
    else:
        argv, needle = tokenize, {
            "label-digits": "line 2: an integer has too many digits to decode",
            "data-depth": "line 2: nested too deeply to decode",
            "checkpoint-depth": "unreadable checkpoint header: nested too deeply to decode",
        }[case]
    proc = _run_cli(*argv)
    _assert_one_line_error(proc, needle)
    assert not out.exists()


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_ids_may_hold_json_string_characters_raw(trained, tmp_path, capsys, char):
    """A JSON string may hold U+0085, U+2028 and U+2029 unescaped, as
    json.dumps(..., ensure_ascii=False) writes them: a graph id that holds
    one is read from the data file, a node list and a response file."""
    gid = f"m{char}0"
    rows = [{"id": gid, "smiles": "CCO", "label": 1}, {"id": "m1", "smiles": "CC", "label": 0}]
    data, nodes, responses = tmp_path / "data.jsonl", tmp_path / "nodes.txt", tmp_path / "responses.jsonl"
    data.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    nodes.write_text(f"{gid} 2\nm1 0\n", encoding="utf-8")
    responses.write_text("".join(json.dumps({"id": r["id"], "text": "Yes"}, ensure_ascii=False) + "\n"
                                 for r in rows), encoding="utf-8")
    tokenize = ["tokenize", "--data", str(data), "--checkpoint", str(trained / "model.sogtok")]
    assert main([*tokenize, "--out", str(tmp_path / "t")]) == 0
    assert main([*tokenize, "--out", str(tmp_path / "n"), "--node-level", "--nodes", str(nodes)]) == 0
    assert main(["eval", "--responses", str(responses), "--data", str(data), "--out", str(tmp_path / "e")]) == 0
    assert capsys.readouterr().err == ""

    def rows(name):  # the first two fields of each row after the header; a row ends only at "\n"
        return [row.split("\t")[:2] for row in (tmp_path / name).read_text(encoding="utf-8").split("\n")[1:-1]]

    assert [r[0] for r in rows("t/tokens.tsv")] == sorted([gid, "m1"])
    assert sorted(rows("n/node_tokens.tsv")) == sorted([[gid, "2"], ["m1", "0"]])
    # both answers are positive and the labels are 1 and 0: one true and one false positive
    assert rows("e/metrics.csv") == [["unnamed,0.5,0.5,0.666666667,1,1,0,0,parsed"]]


@pytest.mark.parametrize("index", ["1_0", "\u0663", "+1", "-1", "\uff11"])
def test_node_list_index_not_ascii_digits_exit_2(dataset, trained, tmp_path, capsys, index):
    """int() reads '1_0' as 10 and an Arabic-Indic three as 3; a node index
    is ASCII decimal digits only."""
    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text(f"cycle_000 0\n\ncycle_000 {index}\n", encoding="utf-8")
    assert main(["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
                 "--out", str(tmp_path / "t"), "--node-level", "--nodes", str(nodes_file)]) == 2
    assert capsys.readouterr().err == (
        f"error: node list line 3: expected 'graph_id index', got 'cycle_000 {index}'\n"
    )
    assert not (tmp_path / "t").exists()


def test_malformed_responses_exit_2(tmp_path):
    data = tmp_path / "labeled.jsonl"
    rows = [json.dumps({"id": f"g{i}", "nodes": [{}], "edges": [], "label": i % 2}) for i in range(2)]
    data.write_text("\n".join(rows) + "\n")
    responses = tmp_path / "responses.jsonl"
    good = json.dumps({"id": "g0", "text": "True"})
    cases = (
        ([good, '{"id": "g1", "text": '], 2),  # cut-off JSON
        (['["g0", "True"]'], 1),  # not an object
        (['{"id": "g0", "text": 1}'], 1),  # text not a string
        ([good, '{"id": "g1", "text": "True", "score": "abc"}'], 2),
        ([good, '{"id": "g1", "text": "True", "score": null}'], 2),
        ([good, '{"id": "g1", "text": "True", "score": true}'], 2),
        ([good, '{"id": "g1", "text": "True", "score": NaN}'], 2),
        ([good, '{"id": "g1", "text": "True", "score": 1' + "0" * 400 + '}'], 2),  # past float range
        (['{"id": [1], "text": "True"}'], 1),
        (['{"id": null, "text": "True"}'], 1),
    )
    for body, line_no in cases:
        responses.write_text("\n".join(body) + "\n")
        proc = _run_cli("eval", "--responses", responses, "--data", data, "--out", tmp_path / "e")
        _assert_validation_exit(proc, f"response line {line_no}")


@pytest.mark.parametrize("flag", ["--data", "--responses", "--labels", "--nodes", "--embed-table"])
def test_non_utf8_input_exit_2(dataset, trained, tmp_path, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    rest = ("--checkpoint", trained / "model.sogtok", "--out", tmp_path / "o")
    argv = {
        "--data": ("tokenize", "--data", bad, *rest),
        "--responses": ("eval", "--responses", bad, "--data", dataset, "--out", tmp_path / "o"),
        "--labels": ("gen-prompts", "--data", dataset, *rest, "--seed", "1",
                     "--task", "BBBP_p_np", "--labels", bad),
        "--nodes": ("tokenize", "--data", dataset, *rest, "--node-level", "--nodes", bad),
        "--embed-table": ("tokenize", "--data", dataset, *rest, "--embed-table", bad),
    }[flag]
    proc = _run_cli(*argv)
    needle = "line 1, column 1: not UTF-8 text" if flag == "--data" else f"{bad}: not UTF-8 text"
    _assert_one_line_error(proc, needle)


def test_manifest_checksums_every_input_by_setting_name(dataset, trained, tmp_path):
    checkpoint = trained / "model.sogtok"
    mols = tmp_path / "mols.jsonl"
    mols.write_text("".join(json.dumps({"id": f"m{i}", "smiles": s}) + "\n"
                            for i, s in enumerate(["CCO", "C1CC1", "CCN", "c1ccccc1"])))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\n" + "".join(f"m{i},{i % 2}\n" for i in range(4)))
    assert main(["gen-prompts", "--data", str(mols), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "p"), "--seed", "1", "--task", "BBBP_p_np",
                 "--labels", str(labels)]) == 0
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert sorted(manifest["input_checksums"]) == ["checkpoint", "data", "labels"]
    assert manifest["input_checksums"]["labels"] == hashlib.sha256(labels.read_bytes()).hexdigest()

    # a one-node graph at 0 hops: its ego-graph's only attribute is the anchor
    data = tmp_path / "one.jsonl"
    data.write_text(json.dumps({"id": "g", "nodes": [{}], "edges": []}) + "\n")
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("g 0\n")
    table = tmp_path / "table.tsv"
    table.write_text("anchor node\t" + ",".join(["0.5"] * 16) + "\n")
    assert main(["tokenize", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "t"), "--node-level", "--hops", "0",
                 "--nodes", str(nodes), "--embed-table", str(table)]) == 0
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert manifest["input_checksums"] == {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in (("checkpoint", checkpoint), ("data", data), ("embed_table", table),
                           ("nodes", nodes))
    }


def _assert_one_line_error(proc, needle):
    _assert_validation_exit(proc, needle)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("record", [
    {"id": "big", "nodes": [{}] * 4, "edges": []},
    {"id": "big", "smiles": "CCCC"},
], ids=["nodes", "smiles"])
def test_size_cap_record_over_cap_exit_2(tmp_path, record):
    data = tmp_path / "data.jsonl"
    ok = {"id": "ok", "nodes": [{}, {}, {}], "edges": [[0, 1]]}
    data.write_text(json.dumps(ok) + "\n" + json.dumps(record) + "\n")
    proc = _run_cli("train", "--data", data, "--out", tmp_path / "x", "--seed", "1",
                    "--size-cap", "3")
    _assert_one_line_error(proc, "line 2: graph 'big' has 4 nodes, exceeding the size cap of 3")


def test_size_cap_admits_long_smiles_chain(trained, tmp_path):
    data = tmp_path / "chain.jsonl"
    data.write_text(json.dumps({"id": "chain", "smiles": "C" * 600}) + "\n")
    assert main(["tokenize", "--data", str(data), "--checkpoint", str(trained / "model.sogtok"),
                 "--out", str(tmp_path / "t"), "--size-cap", "1000"]) == 0
    rows = (tmp_path / "t" / "tokens.tsv").read_text().splitlines()
    assert len(rows) == 2 and len(rows[1].split("\t")[2].split(",")) == 600


VALID_RECORDS = {
    "smiles": {"id": "s", "smiles": "CC(=O)Oc1ccc2[nH]ccc2c1C%10CC%10", "label": 1},
    "nodes": {"id": "g", "nodes": [{"text": "C"}, {}, {"text": "O"}], "edges": [[0, 1], [1, 2]],
              "label": 0},
}
# SMILES and JSON syntax, plus a digit that str.isdigit() accepts and int() does not
MUTANT_CHARS = list('CcNnO()[]=#%-0129"{},: .x') + ["²", "é"]


@pytest.mark.parametrize("kind", sorted(VALID_RECORDS))
def test_single_character_corruptions_exit_0_or_2(trained, tmp_path, capsys, kind):
    """Every one-character deletion and a seeded sample of substitutions in
    line 2 of a graph file: tokenize exits 0, or 2 with one line that names
    line 2; no exception escapes main."""
    line = json.dumps(VALID_RECORDS[kind])
    rng = np.random.default_rng(17)
    mutants = {line[:k] + line[k + 1:] for k in range(len(line))}
    for k, ch in zip(rng.integers(len(line), size=80), rng.choice(MUTANT_CHARS, size=80)):
        mutants.add(line[:k] + ch + line[k + 1:])
    mutants.discard(line)
    data = tmp_path / "data.jsonl"
    argv = ["tokenize", "--data", str(data), "--checkpoint", str(trained / "model.sogtok"),
            "--out", str(tmp_path / "t")]
    codes = []
    for mutant in sorted(mutants):
        data.write_text(json.dumps({"id": "ok", "smiles": "CCO"}) + "\n" + mutant + "\n",
                        encoding="utf-8")
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2), mutant
        if codes[-1] == 2:
            assert re.fullmatch(r"error: line 2(, column \d+)?: [^\n]+\n", err), (mutant, err)
        else:
            assert err == "", mutant
    assert set(codes) == {0, 2}


def _corruption_codes(path, line: str, first: str, argv: list[str], capsys,
                      deletions: int | None = None) -> set[int]:
    """Write each one-character deletion (a seeded sample of that many, given
    deletions) and a seeded sample of substitutions of line after the text
    first, and run argv on each; every run exits 0, or 2 with one error line,
    or 1 with one error line that names a file that is not there (a replayed
    manifest can name one), and no exception escapes main."""
    rng = np.random.default_rng(17)
    cuts = range(len(line)) if deletions is None else rng.integers(len(line), size=deletions)
    mutants = {line[:k] + line[k + 1:] for k in cuts}
    for k, ch in zip(rng.integers(len(line), size=80), rng.choice(MUTANT_CHARS, size=80)):
        mutants.add(line[:k] + ch + line[k + 1:])
    mutants.discard(line)
    codes = set()
    for mutant in sorted(mutants):
        path.write_text(first + mutant + "\n", encoding="utf-8")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), mutant
        if code == 0:
            assert err == "", mutant
        else:
            assert re.fullmatch(r"error: [^\n]+\n", err), (mutant, err)
            assert code == 2 or "No such file or directory" in err, (mutant, err)
        codes.add(code)
    return codes


def test_node_list_single_character_corruptions_exit_0_or_2(dataset, trained, tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    argv = ["tokenize", "--data", str(dataset), "--checkpoint", str(trained / "model.sogtok"),
            "--out", str(tmp_path / "t"), "--node-level", "--nodes", str(nodes)]
    assert _corruption_codes(nodes, "cycle_001 4", "star_000 0\n", argv, capsys) == {0, 2}


def test_responses_single_character_corruptions_exit_0_or_2(tmp_path, capsys):
    data = tmp_path / "labeled.jsonl"
    data.write_text("".join(json.dumps({"id": f"g{i}", "nodes": [{}], "edges": [], "label": i})
                            + "\n" for i in range(2)))
    responses = tmp_path / "responses.jsonl"
    argv = ["eval", "--responses", str(responses), "--data", str(data), "--out", str(tmp_path / "e")]
    line = json.dumps({"id": "g1", "text": "Yes, active.", "score": 0.75})
    first = json.dumps({"id": "g0", "text": "No", "score": 0.25}) + "\n"
    assert _corruption_codes(responses, line, first, argv, capsys) == {0, 2}


@pytest.fixture
def prompt_inputs(trained, tmp_path):
    """gen-prompts inputs: unlabelled molecules, a label CSV and an embedding
    table with a line for every attribute string the molecules use."""
    from sogtok.attributes import GLOBAL_ATTRIBUTE, attribute_maps
    from sogtok.ingest import parse_graph_file

    model = load_checkpoint(trained / "model.sogtok")
    mols = tmp_path / "mols.jsonl"
    mols.write_text("".join(json.dumps({"id": f"mol{i}", "smiles": smiles}) + "\n" for i, smiles in
                            enumerate(["CCO", "c1ccccc1", "CC(=O)N", "C1CC1C", "OCCN", "CCCC"])))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label,note\n" + "".join(f"mol{i},{i % 2},note {i}\n" for i in range(6)))
    strings = {GLOBAL_ATTRIBUTE}
    for attrs in attribute_maps(parse_graph_file(mols.read_bytes()), model.strategy):
        strings.update(attrs.attribute_of)
    embedder = HashingEmbedder(dim=model.d_s)
    table = tmp_path / "table.tsv"
    table.write_text("".join(f"{s}\t" + ",".join(f"{v:.3g}" for v in embedder.embed(s)) + "\n"
                             for s in sorted(strings)))
    argv = ["gen-prompts", "--data", str(mols), "--checkpoint", str(trained / "model.sogtok"),
            "--out", str(tmp_path / "p"), "--seed", "5", "--task", "BBBP_p_np",
            "--labels", str(labels), "--embed-table", str(table)]
    return argv, labels, table


def _split_last_line(path) -> tuple[str, str]:
    """A file's text before its last line, and that line."""
    *first, line = path.read_text().splitlines(keepends=True)
    return "".join(first), line.rstrip("\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_label_csv_single_character_corruptions_exit_0_or_2(prompt_inputs, capsys):
    argv, labels, _ = prompt_inputs
    first, line = _split_last_line(labels)
    assert _corruption_codes(labels, line, first, argv, capsys) == {0, 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_embed_table_single_character_corruptions_exit_0_or_2(prompt_inputs, capsys):
    argv, _, table = prompt_inputs
    first, line = _split_last_line(table)
    assert _corruption_codes(table, line, first, argv, capsys) == {0, 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_replayed_manifest_single_character_corruptions_exit_0_1_or_2(prompt_inputs, tmp_path, capsys):
    """A replayed manifest exits 0, or 2 for a bad value; a corrupted path may
    name no file, and those runs exit 1, an I/O failure."""
    argv, _, _ = prompt_inputs
    assert main(argv) == 0
    manifest = tmp_path / "manifest.json"
    line = json.dumps(json.loads((tmp_path / "p" / "manifest.json").read_text()))
    replay = ["gen-prompts", "--from-manifest", str(manifest), "--out", str(tmp_path / "r")]
    assert _corruption_codes(manifest, line, "", replay, capsys, deletions=120) == {0, 1, 2}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_embed_table_non_finite_exit_2(prompt_inputs, value):
    argv, _, table = prompt_inputs
    lines = table.read_text().splitlines()
    key, values = lines[2].split("\t")
    lines[2] = key + "\t" + ",".join([value] + values.split(",")[1:])
    table.write_text("\n".join(lines) + "\n")
    proc = _run_cli(*argv)
    _assert_one_line_error(proc, f"embedding table line 3: non-finite value in '{value},")


def test_embed_table_repeated_string_exit_2(prompt_inputs):
    argv, _, table = prompt_inputs
    lines = table.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("anchor node\t"))
    key, values = lines[first].split("\t")
    lines.append(key + "\t" + ",".join(["0.5"] * len(values.split(","))))
    table.write_text("\n".join(lines) + "\n")
    proc = _run_cli(*argv)
    _assert_one_line_error(proc, f"embedding table line {len(lines)}: 'anchor node' repeats line {first + 1}")


def test_embed_table_missing_strings_name_the_first_table_row(prompt_inputs):
    """With two strings missing, the error names the one whose table row comes
    first: strings are numbered by first appearance, buckets in order of their
    node counts' first appearance (3, 6, 4 atoms here), then graph by graph
    and node by node. Benzene adds the second-hop and third-hop strings in
    ring order, so neither sorting the strings nor sorting a bucket's (hop,
    rank) codes names the same one."""
    argv, _, table = prompt_inputs
    missing = ("second-hop neighbor #2", "third-hop neighbor #1")
    lines = [line for line in table.read_text().splitlines() if line.split("\t")[0] not in missing]
    table.write_text("\n".join(lines) + "\n")
    proc = _run_cli(*argv)
    _assert_one_line_error(proc, "attribute string 'third-hop neighbor #1' missing from embedding table")


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_no_stage_builds_attribute_maps(prompt_inputs, dataset, trained, tmp_path, monkeypatch):
    """The encoder reads attribute row numbers from the ranking, and
    descmatch names nodes from the same ranking: no stage builds a
    StructuralAttributeMap."""
    from sogtok import attributes

    built = []
    real = attributes.StructuralAttributeMap

    def counted(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(attributes, "StructuralAttributeMap", counted)
    prompts, _, _ = prompt_inputs
    mols = tmp_path / "mols.jsonl"
    checkpoint = str(trained / "model.sogtok")
    read = ["--data", str(mols), "--checkpoint", checkpoint]
    runs = {
        "train": ["train", "--data", str(dataset), "--out", str(tmp_path / "m"), "--k", "8",
                  "--seed", "3", "--warmup-epochs", "1", "--epochs", "1", "--d-s", "16", "--d", "8",
                  "--d-r", "4", "--lr-gcn", "0.002", "--lr-codebook", "0.01"],
        "tokenize": ["tokenize", *read, "--out", str(tmp_path / "t")],
        "tokenize --node-level": ["tokenize", *read, "--out", str(tmp_path / "n"), "--node-level"],
        "gen-prompts": prompts,
        "stats": ["stats", *read, "--out", str(tmp_path / "s"), "--seed", "1", "--trials", "2"],
        "gen-corpus knn,simjudge": ["gen-corpus", *read, "--out", str(tmp_path / "k"), "--seed", "1",
                                    "--kinds", "knn,simjudge"],
        "gen-corpus descmatch": ["gen-corpus", *read, "--out", str(tmp_path / "c"), "--seed", "1",
                                 "--kinds", "descmatch"],
    }
    for name, argv in runs.items():
        assert main(argv) == 0, name
        assert built == [], name
    assert len((tmp_path / "c" / "corpus.jsonl").read_text().splitlines()) == len(mols.read_text().splitlines())


def test_node_list_center_out_of_range_exit_2(dataset, trained, tmp_path):
    graph = json.loads(dataset.read_text().splitlines()[0])
    n = len(graph["nodes"])
    nodes = tmp_path / "nodes.txt"
    nodes.write_text(f"{graph['id']} 0\n{graph['id']} {n}\n")
    proc = _run_cli("tokenize", "--data", dataset, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "t", "--node-level", "--nodes", nodes)
    _assert_one_line_error(proc, f"node {n} out of range for graph {graph['id']!r} with {n} nodes")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", [
    ["stats", "--seed", "1"], ["gen-corpus", "--seed", "1", "--kinds", "simjudge"],
    ["gen-corpus", "--seed", "1", "--kinds", "knn"], ["tokenize"], ["tokenize", "--node-level"],
    ["gen-prompts", "--seed", "1", "--task", "BBBP_p_np"],
])
def test_empty_data_exit_2(trained, tmp_path, command):
    """Every stage that reads a checkpoint refuses an empty data file alike,
    and leaves no output directory."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    proc = _run_cli(*command, "--data", empty, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "o")
    _assert_one_line_error(proc, f"no graphs in {empty}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kinds", [",", "", " , "])
def test_gen_corpus_empty_kinds_exit_2(trained, tmp_path, kinds):
    """A --kinds list without a kind is refused as an unknown kind is, before
    the data file is read (this one is not valid JSON), and leaves no output
    directory."""
    data = tmp_path / "data.jsonl"
    data.write_text("not json\n")
    proc = _run_cli("gen-corpus", "--data", data, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "o", "--seed", "1", "--kinds", kinds)
    _assert_one_line_error(proc, f"no corpus kind in --kinds {kinds!r}")
    assert not (tmp_path / "o").exists()


def test_embed_table_non_numeric_exit_2(dataset, trained, tmp_path):
    table = tmp_path / "table.tsv"
    table.write_text("anchor node\t" + ",".join(["0.5"] * 15 + ["x"]) + "\n")
    proc = _run_cli("tokenize", "--data", dataset, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "t", "--embed-table", table)
    _assert_one_line_error(proc, "embedding table line 1")


def test_manifest_not_json_exit_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"command": "train", "config": ')
    proc = _run_cli("train", "--from-manifest", manifest)
    _assert_one_line_error(proc, "not valid JSON")


def test_manifest_without_config_exit_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "train", "seed": 1}))
    proc = _run_cli("train", "--from-manifest", manifest)
    _assert_one_line_error(proc, "'config'")
    manifest.write_text(json.dumps({"command": "train", "config": {"seed": 1}}))
    proc = _run_cli("train", "--from-manifest", manifest)
    _assert_one_line_error(proc, "config lacks 'data'")


def test_split_ratio_non_numeric_exit_2(trained, tmp_path):
    mols = tmp_path / "mols.jsonl"
    mols.write_text("\n".join(json.dumps({"id": f"m{i}", "smiles": "CCO", "label": i % 2})
                              for i in range(3)) + "\n")
    for ratio in ("8:x:1", "nan:1:1"):
        proc = _run_cli("gen-prompts", "--data", mols, "--checkpoint", trained / "model.sogtok",
                        "--out", tmp_path / "p", "--seed", "5", "--task", "BBBP_p_np",
                        "--split-ratio", ratio)
        _assert_one_line_error(proc, f"split ratio {ratio!r}")


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_graph_token_same_in_tokens_corpus_and_embeddings(dataset, trained, tmp_path):
    """tokenize, gen-corpus (descmatch) and stats give each graph one token."""
    ckpt = str(trained / "model.sogtok")
    common = ["--data", str(dataset), "--checkpoint", ckpt]
    assert main(["tokenize", *common, "--out", str(tmp_path / "tok")]) == 0
    assert main(["gen-corpus", *common, "--out", str(tmp_path / "corpus"), "--seed", "5",
                 "--kinds", "descmatch"]) == 0
    assert main(["stats", *common, "--out", str(tmp_path / "stats"), "--seed", "9",
                 "--corr-first", "4", "--trials", "1"]) == 0
    rows = (tmp_path / "tok" / "tokens.tsv").read_text().splitlines()[1:]
    expected = {r.split("\t")[0]: r.split("\t")[1] for r in rows}
    assert len(expected) == 18
    records = [json.loads(ln) for ln in (tmp_path / "corpus" / "corpus.jsonl").read_text().splitlines()]
    descmatch = {r["provenance"][len("graph:"):]: r["answer"] for r in records}
    assert descmatch == expected
    emb = (tmp_path / "stats" / "embeddings.csv").read_text().splitlines()[1:]
    assert {ln.split(",")[0]: f"<SOG_{ln.split(',')[1]}>" for ln in emb} == expected


def test_train_bad_dimension_or_rate_exit_2(dataset, tmp_path):
    for flag, value, needle in (("--d-r", "0", "dimension d_r"), ("--lr-gcn", "nan", "lr_gcn"),
                                ("--beta", "inf", "beta")):
        proc = _run_cli("train", "--data", dataset, "--out", tmp_path / "x", "--seed", "1",
                        flag, value)
        _assert_one_line_error(proc, needle)
        assert not (tmp_path / "x" / "model.sogtok").exists()


# Each subcommand's resolved config when no flag is given. Manifests and
# checkpoints embed these keys and values, so a change here changes bytes.
DEFAULT_CONFIGS = {
    "train": {
        "data": None, "out": None, "k": 256, "beta": 0.25, "seed": None,
        "anchor": "degree", "anchor_seed": 0, "warmup_epochs": 10, "epochs": 50,
        "lr_warmup": 1e-2, "lr_gcn": 5e-2, "lr_codebook": 0.5,
        "d_s": 64, "d_h": None, "d": 64, "d_r": 16, "batch_size": None,
        "global_share": None, "size_cap": 512, "jobs": 1,
    },
    "tokenize": {
        "data": None, "out": None, "checkpoint": None, "node_level": False,
        "hops": 2, "nodes": None, "embed_table": None, "size_cap": 512, "jobs": 1,
    },
    "gen-corpus": {
        "data": None, "out": None, "checkpoint": None, "seed": None,
        "kinds": "knn,simjudge,descmatch", "knn_k": 5, "tau_pos": 0.8,
        "tau_neg": 0.2, "pairs": None, "embed_table": None, "size_cap": 512, "jobs": 1,
    },
    "gen-prompts": {
        "data": None, "out": None, "checkpoint": None, "seed": None, "task": None,
        "labels": None, "balance": "none", "split_ratio": "8:1:1",
        "embed_table": None, "size_cap": 512, "jobs": 1,
    },
    "eval": {
        "responses": None, "data": None, "out": None, "task": None,
        "size_cap": 512, "jobs": 1,
    },
    "stats": {
        "data": None, "out": None, "checkpoint": None, "seed": None,
        "corr_first": 50, "trials": 10, "embed_table": None, "size_cap": 512, "jobs": 1,
    },
}

# every flag of each subcommand, so that none is lost or added unnoticed
COMMON_FLAGS = "--help --out --from-manifest --size-cap --jobs"
FLAGS = {
    "train": "--data --k --beta --seed --anchor --anchor-seed --warmup-epochs --epochs "
             "--lr-warmup --lr-gcn --lr-codebook --d-s --d-h --d --d-r --batch-size "
             "--global-share",
    "tokenize": "--data --checkpoint --node-level --hops --nodes --embed-table",
    "gen-corpus": "--data --checkpoint --seed --kinds --knn-k --tau-pos --tau-neg --pairs "
                  "--embed-table",
    "gen-prompts": "--data --checkpoint --seed --task --labels --balance --split-ratio "
                   "--embed-table",
    "eval": "--responses --data --task",
    "stats": "--data --checkpoint --seed --corr-first --trials --embed-table",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
def test_resolved_default_config(command):
    cfg = _resolve(build_parser().parse_args([command]))
    assert cfg == DEFAULT_CONFIGS[command]
    # equal JSON also pins each value's type (64, not 64.0)
    assert json.dumps(cfg, sort_keys=True) == json.dumps(DEFAULT_CONFIGS[command], sort_keys=True)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == set(FLAGS[command].split()) | set(COMMON_FLAGS.split())


def _write_manifest(path, command, config):
    path.write_text(json.dumps({"command": command, "config": config}))
    return path


def _runnable_config(command, dataset, trained, tmp_path):
    """A config of command that replays to exit 0 as it stands."""
    if command == "train":
        return json.loads((trained / "manifest.json").read_text())["config"]
    if command == "gen-prompts":  # prompts need SMILES text
        dataset = tmp_path / "mols.jsonl"
        dataset.write_text("\n".join(json.dumps({"id": f"m{i}", "smiles": smi, "label": i % 2})
                                     for i, smi in enumerate(["CCO", "C1CC1", "CCC"])) + "\n")
    given = {"data": str(dataset), "checkpoint": str(trained / "model.sogtok"), "seed": 5,
             "task": "BBBP_p_np", "out": str(tmp_path / "control")}
    return {key: given.get(key, value) for key, value in DEFAULT_CONFIGS[command].items()}


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
@pytest.mark.parametrize(("command", "key", "value"), [
    ("train", "k", "x"), ("train", "epochs", "2"),
    ("gen-corpus", "knn_k", "5"), ("gen-prompts", "balance", "2:1"),
])
def test_replay_bad_value_exit_2(dataset, trained, tmp_path, command, key, value):
    config = _runnable_config(command, dataset, trained, tmp_path)
    if command != "train":  # the train manifest already replays in its own test
        assert main([command, "--from-manifest", str(
            _write_manifest(tmp_path / "good.json", command, config))]) == 0
    config[key] = value
    proc = _run_cli(command, "--from-manifest", _write_manifest(tmp_path / "bad.json", command, config),
                    "--out", tmp_path / "bad")
    _assert_one_line_error(proc, f"manifest config {key!r}: bad value {value!r}")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(("command", "key", "value", "fits"), [
    ("train", "beta", 1, True),  # an int where a float is declared
    ("train", "beta", True, False),
    ("train", "k", True, False),  # a bool is never an int
    ("train", "k", 8.0, False),
    ("train", "k", None, False),  # None only where the default is None
    ("train", "d_h", None, True),
    ("train", "anchor", "random", True),
    ("train", "anchor", "bogus", False),
    ("tokenize", "node_level", True, True),
    ("tokenize", "node_level", 1, False),
    ("gen-corpus", "tau_pos", "0.8", False),
    ("gen-corpus", "kinds", ["knn"], False),
    ("eval", "task", "BBBP_p_np", True),
])
def test_replay_checks_each_value(tmp_path, command, key, value, fits):
    config = dict(DEFAULT_CONFIGS[command], **{key: value})
    args = build_parser().parse_args(
        [command, "--from-manifest", str(_write_manifest(tmp_path / "m.json", command, config))])
    if fits:
        assert _resolve(args)[key] == value
    else:
        with pytest.raises(ValidationError, match=f"manifest config {key!r}"):
            _resolve(args)


def test_eval_replay_ignores_old_seed(tmp_path):
    data = tmp_path / "labeled.jsonl"
    data.write_text("\n".join(json.dumps({"id": f"g{i}", "nodes": [{}], "edges": [], "label": i % 2})
                              for i in range(4)) + "\n")
    responses = tmp_path / "responses.jsonl"
    responses.write_text("\n".join(json.dumps({"id": f"g{i}", "text": "True"}) for i in range(4)) + "\n")
    config = dict(DEFAULT_CONFIGS["eval"], responses=str(responses), data=str(data),
                  out=str(tmp_path / "e"), seed=7)
    assert main(["eval", "--from-manifest", str(_write_manifest(tmp_path / "m.json", "eval", config))]) == 0
    written = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert "seed" not in written["config"] and written["seed"] is None


@pytest.mark.parametrize(("command", "extra", "named"), [
    ("train", ["--epochs", "7"], "--epochs"),
    ("train", ["--jobs", "1", "--seed", "3"], "--jobs, --seed"),  # a default value, given
    ("tokenize", ["--node-level"], "--node-level"),
])
def test_replay_refuses_flags_it_would_drop(trained, tmp_path, command, extra, named):
    manifest = trained / "manifest.json"
    if command != "train":
        config = dict(DEFAULT_CONFIGS[command], data="d.jsonl", checkpoint="m.sogtok")
        manifest = _write_manifest(tmp_path / "m.json", command, config)
    proc = _run_cli(command, "--from-manifest", manifest, "--out", tmp_path / "replayed", *extra)
    _assert_one_line_error(proc, f"{named} cannot be combined with --from-manifest")
    assert not (tmp_path / "replayed").exists()


@pytest.mark.parametrize("replay", [False, True], ids=["flags", "replay"])
@pytest.mark.parametrize(("command", "key", "value"), [
    ("train", "seed", -1), ("train", "anchor_seed", -3),
    ("gen-prompts", "seed", -1), ("stats", "seed", -1),
])
def test_negative_seed_exit_2(dataset, trained, tmp_path, command, key, value, replay):
    config = dict(_runnable_config(command, dataset, trained, tmp_path), out=str(tmp_path / "o"))
    config[key] = value
    if key == "anchor_seed":
        config["anchor"] = "random"
    if replay:
        argv = [command, "--from-manifest", _write_manifest(tmp_path / "m.json", command, config)]
    else:
        argv = [command]
        for name, v in config.items():
            if v is not None and v is not False:
                argv += ["--" + name.replace("_", "-")] + ([] if v is True else [v])
    _assert_one_line_error(_run_cli(*argv), f"--{key.replace('_', '-')} must be >= 0, got {value}")
    assert not (tmp_path / "o").exists()


def test_nodes_without_node_level_exit_2(dataset, trained, tmp_path):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("nope 0\n")
    proc = _run_cli("tokenize", "--data", dataset, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "t", "--nodes", nodes)
    _assert_one_line_error(proc, "--nodes requires --node-level")
    assert not (tmp_path / "t").exists()  # the run made it, so the run removes it
    (tmp_path / "kept").mkdir()
    proc = _run_cli("tokenize", "--data", dataset, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "kept", "--nodes", nodes)
    _assert_one_line_error(proc, "--nodes requires --node-level")
    assert (tmp_path / "kept").is_dir()  # it was there before the run


@pytest.mark.parametrize(("rows", "needle"), [
    ("m0,1\nm1,7\n", "line 2: label '7' is not 0 or 1"),
    ("m0,-1\n", "line 1: label '-1' is not 0 or 1"),
    ("id,label\nzz,1\n", "line 2: id 'zz' names no graph"),
    ("m0,1\nm1,0\nm0,0\n", "line 3: id 'm0' repeats line 1"),
], ids=["label-7", "label-minus-1", "unknown-id", "repeated-id"])
def test_label_csv_bad_row_exit_2(trained, tmp_path, rows, needle):
    mols = tmp_path / "mols.jsonl"
    mols.write_text("".join(json.dumps({"id": f"m{i}", "smiles": "CCO"}) + "\n" for i in range(2)))
    labels = tmp_path / "labels.csv"
    labels.write_text(rows)
    proc = _run_cli("gen-prompts", "--data", mols, "--checkpoint", trained / "model.sogtok",
                    "--out", tmp_path / "p", "--seed", "1", "--task", "BBBP_p_np", "--labels", labels)
    _assert_one_line_error(proc, needle)
    assert not (tmp_path / "p").exists()  # the run made it, so the run removes it


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The data of scripts/end_to_end.sh, and a model trained on its molecules."""
    root = tmp_path_factory.mktemp("demo")
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(repo / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(repo / "scripts" / "make_synthetic_data.py"), "--out", str(root),
                    "--seed", "7"], env=env, check=True, capture_output=True, timeout=120)
    assert main(["train", "--data", str(root / "molecules.jsonl"), "--out", str(root / "model"),
                 "--k", "8", "--seed", "7", "--warmup-epochs", "1", "--epochs", "1",
                 "--batch-size", "10"]) == 0
    return root


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_read_stages_build_no_graph(demo, tmp_path, monkeypatch):
    """On the demo set, every read stage reads blocks of arrays and builds no
    Graph: graph- and node-level tokenize, gen-corpus with every kind,
    gen-prompts, eval, and stats with its permutation trials and scaffolds."""
    built, init = [0], Graph.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    mols, families = str(demo / "molecules.jsonl"), str(demo / "families.jsonl")
    checkpoint = str(demo / "model" / "model.sogtok")
    responses = tmp_path / "responses.jsonl"
    ids = [json.loads(line)["id"] for line in Path(mols).read_text().splitlines()]
    responses.write_text("".join(json.dumps({"id": gid, "text": "Yes"}) + "\n" for gid in ids))
    runs = {
        "tokenize": ["tokenize", "--data", mols, "--checkpoint", checkpoint],
        "tokenize-node": ["tokenize", "--data", families, "--checkpoint", checkpoint, "--node-level",
                          "--hops", "2"],
        "gen-corpus": ["gen-corpus", "--data", mols, "--checkpoint", checkpoint, "--seed", "7",
                       "--kinds", "knn,simjudge,descmatch"],
        "gen-prompts": ["gen-prompts", "--data", mols, "--checkpoint", checkpoint, "--seed", "7",
                        "--task", "BBBP_p_np"],
        "eval": ["eval", "--responses", str(responses), "--data", mols, "--task", "BBBP_p_np"],
        "stats": ["stats", "--data", mols, "--checkpoint", checkpoint, "--seed", "7"],
    }
    for name, argv in runs.items():
        built[0] = 0
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert built[0] == 0, name
    report = json.loads((tmp_path / "stats" / "stats_report.json").read_text())
    assert report["scaffold_consistency"]["bucket_count"] > 1


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_gen_corpus_ranks_each_bucket_once(demo, tmp_path, monkeypatch):
    """descmatch names nodes from the rankings that the encoder read: one
    _rank_bucket call per adjacency stack of the data file's blocks."""
    from sogtok import attributes
    from sogtok.graph import size_buckets
    from sogtok.ingest import iter_graph_file

    calls, rank = [], attributes._rank_bucket

    def counted(*args):
        calls.append(len(args[0]))
        return rank(*args)

    monkeypatch.setattr(attributes, "_rank_bucket", counted)
    data = demo / "molecules.jsonl"
    assert main(["gen-corpus", "--data", str(data), "--checkpoint", str(demo / "model" / "model.sogtok"),
                 "--out", str(tmp_path / "c"), "--seed", "7", "--kinds", "descmatch,simjudge"]) == 0
    stacks = [len(run) for block in iter_graph_file(data.read_bytes()) for run in size_buckets(block.sizes)]
    assert calls == stacks
