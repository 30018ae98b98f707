import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sogtok.cli import main
from sogtok.ingest import write_graph_file
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
    )
    for body, line_no in cases:
        responses.write_text("\n".join(body) + "\n")
        proc = _run_cli("eval", "--responses", responses, "--data", data, "--out", tmp_path / "e")
        _assert_validation_exit(proc, f"response line {line_no}")
