"""Acceptance suite: one test per criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS` line (visible with -s);
a failed assertion marks the criterion red. Training-based criteria use
seed-fixed harness configurations chosen for the compact synthetic scale;
the thresholds themselves are asserted exactly as stated.
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sogtok.attributes import HashingEmbedder, ImportanceStrategy, attribute_maps
from sogtok.cli import main
from sogtok.corpus import (
    SimilarityThresholds,
    gen_descmatch_records,
    gen_knn_records,
    gen_simjudge_records,
)
from sogtok.graph import Graph, NodeRecord
from sogtok.ingest import graph_blocks, write_graph_file
from sogtok.metrics import (
    accuracy_and_f1,
    auc_roc,
    parse_answer,
    permutation_consistency,
    scaffold_consistency,
)
from sogtok.model import Codebook, quantize
from sogtok.prompts import load_template, render_prompt
from sogtok.scaffold import group_scaffolds, murcko_scaffold
from sogtok.smiles import parse_smiles, to_graph
from sogtok.synthetic import (
    family_dataset,
    scaffold_smiles_set,
    strict_ranking_graphs,
)
from sogtok.train import (
    TrainConfig,
    assign_token,
    graph_embedding,
    train,
)

import oracle
from conftest import parse_description, read_arrays, scaffold_arrays
from test_model import finite_difference_check
from test_prompts import GOLDEN_DIR, MOLECULE_TASKS
from test_smiles import CORPUS as SMILES_CORPUS

EMBEDDER = HashingEmbedder(dim=64)


def report(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def family_setup():
    graphs = family_dataset(per_family=60, n_lo=6, n_hi=12, seed=7)
    cfg = TrainConfig(
        k=16, warmup_epochs=10, joint_epochs=50, seed=7,
        lr_warmup=1e-2, lr_gcn=2e-3, lr_codebook=1e-2, batch_size=10,
    )
    t0 = time.monotonic()
    model, logs = train(graph_blocks(graphs), cfg)
    elapsed = time.monotonic() - t0
    return graphs, model, logs, elapsed


@pytest.fixture(scope="module")
def scaffold_setup():
    pairs = scaffold_smiles_set()
    graphs = [
        to_graph(parse_smiles(s), graph_id=f"{fam}_{i:03d}")
        for i, (fam, s) in enumerate(pairs)
    ]
    cfg = TrainConfig(
        k=16, warmup_epochs=15, joint_epochs=20, seed=7,
        lr_warmup=1e-2, lr_gcn=2e-4, lr_codebook=5e-3, batch_size=10,
        global_share=0.5,
    )
    t0 = time.monotonic()
    model, _ = train(graph_blocks(graphs), cfg)
    elapsed = time.monotonic() - t0
    return graphs, model, elapsed


def test_01_gradient_correctness():
    t0 = time.monotonic()
    errors = []
    seed = 0
    while len(errors) < 20:
        err = finite_difference_check(seed)
        seed += 1
        if err is not None:
            errors.append(err)
    # stacks of 3 to 5 same-size graphs: the stacked backward against finite
    # differences of the stack's summed loss, and each of its slices against
    # the backward of that graph alone, bit for bit
    while len(errors) < 25:
        err = finite_difference_check(seed, stack=3 + seed % 3)
        seed += 1
        if err is not None:
            errors.append(err)
    elapsed = time.monotonic() - t0
    assert max(errors) < 1e-4, f"max relative error {max(errors)}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(1, f"gradient-correctness (20 graphs and 5 stacks, max rel err {max(errors):.2e})")


def test_02_quantization_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    total = agree = 0
    for k in (16, 64, 256, 512):
        cb = Codebook(entries=rng.normal(size=(k, 8)))
        queries = rng.normal(size=(250, 8))
        sel = quantize(queries, cb)
        for i in range(queries.shape[0]):
            dists = [float(np.sum((queries[i] - cb.entries[j]) ** 2)) for j in range(k)]
            best = min(range(k), key=lambda j: (dists[j], j))
            total += 1
            agree += int(best == sel.indices[i])
    elapsed = time.monotonic() - t0
    assert total == 1000 and agree == total
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(2, "quantization-oracle (1000 queries, 100% agreement)")


def test_03_synthetic_family_separation(family_setup):
    graphs, model, logs, elapsed = family_setup
    ratio = logs[-1].recon / logs[0].recon
    assert ratio < 0.5, f"final/initial reconstruction {ratio:.3f}"
    purities, dominants = {}, {}
    for fam in ("cycle", "star", "clique"):
        tokens = [
            assign_token(g, model, EMBEDDER).graph_token
            for g in graphs
            if g.id.startswith(fam)
        ]
        top_token, top_count = Counter(tokens).most_common(1)[0]
        dominants[fam] = top_token
        purities[fam] = top_count / len(tokens)
    assert min(purities.values()) >= 0.8, purities
    assert len(set(dominants.values())) == 3, dominants
    assert elapsed < 120.0, f"training took {elapsed:.1f}s"
    report(
        3,
        f"synthetic-family-separation (recon ratio {ratio:.3f}, "
        f"min purity {min(purities.values()):.2f})",
    )


def test_04_permutation_consistency(family_setup):
    _, model, _, _ = family_setup
    t0 = time.monotonic()
    graphs = strict_ranking_graphs(50, seed=11)
    rate = permutation_consistency(model, graphs, trials=10, seed=99, embedder=EMBEDDER)
    elapsed = time.monotonic() - t0
    assert rate == 1.0, f"consistency {rate}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(4, "permutation-consistency (500/500 trials)")


def test_05_scaffold_consistency(scaffold_setup):
    graphs, model, train_elapsed = scaffold_setup
    t0 = time.monotonic()
    scaffolds = [murcko_scaffold(g) for g in graphs]
    buckets = group_scaffolds(scaffold_arrays(scaffolds))
    assert len(buckets) == 10 and all(len(b) == 20 for b in buckets)
    tokens = [assign_token(g, model, EMBEDDER).graph_token for g in graphs]
    rep = scaffold_consistency(tokens, buckets, shuffles=100, seed=7)
    elapsed = train_elapsed + (time.monotonic() - t0)
    assert rep.mean_purity >= 2.0 * rep.baseline_purity, (
        f"purity {rep.mean_purity:.3f} vs baseline {rep.baseline_purity:.3f}"
    )
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        5,
        f"scaffold-consistency (purity {rep.mean_purity:.3f} >= "
        f"2 x {rep.baseline_purity:.3f})",
    )


def test_06_corpus_fidelity(family_setup, scaffold_setup):
    graphs, model, _, _ = family_setup
    scaffold_graphs, scaffold_model, _ = scaffold_setup
    records = []

    knn_family = gen_knn_records(model.codebook, k=5)
    knn_scaffold = gen_knn_records(scaffold_model.codebook, k=5)
    records.extend(knn_family)
    records.extend(knn_scaffold)
    for cb, recs in ((model.codebook, knn_family), (scaffold_model.codebook, knn_scaffold)):
        by_prov = {r.provenance: r for r in recs}
        for i in range(cb.k):
            sims = []
            for j in range(cb.k):
                if j == i:
                    continue
                cos = float(
                    np.dot(cb.entries[i], cb.entries[j])
                    / (np.linalg.norm(cb.entries[i]) * np.linalg.norm(cb.entries[j]))
                )
                sims.append((-cos, j))
            expected = [j for _, j in sorted(sims)[:5]]
            got = [
                int(s.strip()[len("<SOG_") : -1])
                for s in by_prov[f"token:{i}"].answer.split(",")
            ]
            assert got == expected, f"knn mismatch for token {i}"

    embeddings = np.vstack([graph_embedding(g, model, EMBEDDER)[-1] for g in graphs])
    tokens = [assign_token(g, model, EMBEDDER).graph_token for g in graphs]
    thresholds = SimilarityThresholds(tau_pos=0.8, tau_neg=0.2)
    sim_records = gen_simjudge_records(
        ids=[g.id for g in graphs], tokens=tokens, embeddings=embeddings,
        thresholds=thresholds, budget=300, seed=5,
    )
    assert len(sim_records) >= 200
    records.extend(sim_records)
    emb_by_id = {g.id: embeddings[i] for i, g in enumerate(graphs)}
    for r in sim_records:
        a, b = r.provenance[len("pair:") :].split("|")
        cos = float(
            np.dot(emb_by_id[a], emb_by_id[b])
            / (np.linalg.norm(emb_by_id[a]) * np.linalg.norm(emb_by_id[b]))
        )
        if r.answer == "similar":
            assert cos > thresholds.tau_pos
        else:
            assert cos < thresholds.tau_neg

    graph_tokens = {g.id: assign_token(g, model, EMBEDDER).graph_token for g in graphs}
    attrs = attribute_maps(graphs, model.strategy)
    block, ranked = read_arrays(graphs, model.strategy)
    desc_records = gen_descmatch_records(block, [graph_tokens[g.id] for g in graphs], ranked)
    records.extend(desc_records)
    by_id = {g.id: (g, a) for g, a in zip(graphs, attrs)}
    for r in desc_records:
        g, graph_attrs = by_id[r.provenance[len("graph:") :]]
        question, name_map = oracle.describe_graph(g, graph_attrs)
        assert r.question == question
        _, pairs = parse_description(r.question)
        recovered = {tuple(sorted((name_map[a], name_map[b]))) for a, b in pairs}
        assert recovered == set(g.edges), f"descmatch round-trip failed for {g.id}"
        assert r.answer == f"<SOG_{graph_tokens[g.id]}>"

    assert len(records) >= 500, f"sample has {len(records)} records"
    report(6, f"corpus-fidelity ({len(records)} records verified)")


def test_07_prompt_golden_files():
    g = Graph(
        id="golden",
        nodes=(NodeRecord(),) * 3,
        edges=((0, 1), (1, 2)),
        label=1,
        graph_text="CCO",
    )
    for task in MOLECULE_TASKS:
        tmpl = load_template(task)
        rec = render_prompt(tmpl, g.id, g.graph_text, g.label, 3)
        golden = (GOLDEN_DIR / f"{task}.golden.txt").read_bytes()
        assert rec.prompt.encode("utf-8") == golden, f"golden mismatch: {task}"
    assert len(MOLECULE_TASKS) == 17
    report(7, "prompt-golden-files (17 templates byte-exact)")


def test_08_metric_oracles():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        scores = np.round(rng.random(n), 2)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > neg).sum() for p in pos)
        ties = sum((p == neg).sum() for p in pos)
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        got = auc_roc(scores, labels)
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)

    adversarial = [
        ("The molecule is not approved.", "Negative"),
        ("approved", "Positive"),
        ("yes, definitely not approved though", "Negative"),
        ("inactive yet active", "Negative"),
        ("TRUE but false", "Negative"),
        ("active", "Positive"),
        ("I cannot determine this.", "Unknown"),
        ("the node is known", "Unknown"),
    ]
    for text, expected in adversarial:
        assert parse_answer(text).value == expected, text

    rep = accuracy_and_f1([1, 1, 0, 0], [1, 0, 1, 0], classes=(1,))
    counts = rep.counts[1]
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
    assert rep.micro_f1 == pytest.approx(0.5)
    report(8, "metric-oracles (auc, parse precedence, micro-f1)")


def test_09_parser_suite():
    from sogtok.errors import UnbalancedBranch, UnclosedRing, UnsupportedToken

    assert len(SMILES_CORPUS) == 20
    for smiles, atoms, bonds, rings in SMILES_CORPUS:
        m = parse_smiles(smiles)
        assert (len(m.atoms), len(m.bonds), m.ring_count) == (atoms, bonds, rings), smiles

    with pytest.raises(UnclosedRing) as ring_err:
        parse_smiles("C1CC")
    assert ring_err.value.digit == 1
    with pytest.raises(UnbalancedBranch) as branch_err:
        parse_smiles("C(C")
    assert branch_err.value.position == 1
    with pytest.raises(UnsupportedToken) as token_err:
        parse_smiles("CQ")
    assert token_err.value.position == 1
    report(9, "parser-suite (20 molecules + positioned errors)")


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
def test_10_determinism(tmp_path):
    data = tmp_path / "mols.jsonl"
    smiles = ["CCO", "C1CC1", "CC(C)C", "c1ccccc1", "CCC", "C1CCCC1", "CCN", "C1CCCCC1"]
    rows = [
        json.dumps({"id": f"m{i}", "smiles": s, "label": i % 2})
        for i, s in enumerate(smiles)
    ]
    data.write_text("\n".join(rows) + "\n")
    # the second run reads a copy of the inputs from another directory: no
    # artifact may depend on where its inputs or outputs live
    copy = tmp_path / "copy" / "mols.jsonl"
    copy.parent.mkdir()
    copy.write_bytes(data.read_bytes())

    def run_all(tag, data):
        out = tmp_path / tag
        model_dir = out / "model"
        assert main([
            "train", "--data", str(data), "--out", str(model_dir), "--k", "4",
            "--seed", "3", "--warmup-epochs", "2", "--epochs", "2",
            "--batch-size", "4", "--lr-gcn", "0.002", "--lr-codebook", "0.01",
            "--d-s", "16", "--d", "8", "--d-r", "4",
        ]) == 0
        ckpt = model_dir / "model.sogtok"
        assert main([
            "tokenize", "--data", str(data), "--checkpoint", str(ckpt),
            "--out", str(out / "tok"),
        ]) == 0
        assert main([
            "gen-corpus", "--data", str(data), "--checkpoint", str(ckpt),
            "--out", str(out / "corpus"), "--seed", "5", "--knn-k", "2", "--pairs", "8",
        ]) == 0
        assert main([
            "gen-prompts", "--data", str(data), "--checkpoint", str(ckpt),
            "--out", str(out / "prompts"), "--seed", "5", "--task", "BBBP_p_np",
            "--balance", "1:1", "--split-ratio", "6:1:1",
        ]) == 0
        responses = data.parent / "responses.jsonl"
        responses.write_text(
            "\n".join(
                json.dumps({"id": f"m{i}", "text": "True" if i % 3 else "False"})
                for i in range(len(smiles))
            )
            + "\n"
        )
        assert main([
            "eval", "--responses", str(responses), "--data", str(data),
            "--task", "BBBP_p_np", "--out", str(out / "eval"),
        ]) == 0
        assert main([
            "stats", "--data", str(data), "--checkpoint", str(ckpt),
            "--out", str(out / "stats"), "--seed", "9", "--corr-first", "4",
            "--trials", "2",
        ]) == 0
        # every artifact but the manifests, which carry created_at and paths
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }

    first = run_all("run1", data)
    second = run_all("run2", copy)
    assert first.keys() == second.keys()
    for name in (
        "model/model.sogtok", "model/ckpt_epoch_003.sogtok", "model/train_log.tsv",
        "tok/tokens.tsv", "corpus/corpus.jsonl", "prompts/train.jsonl", "prompts/valid.jsonl",
        "prompts/test.jsonl", "eval/metrics.csv", "stats/correlation.csv",
        "stats/embeddings.csv", "stats/stats_report.json",
    ):
        assert name in first, name
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    assert not list(tmp_path.rglob("*.tmp"))
    report(10, f"determinism ({len(first)} artifacts byte-identical)")


def test_11_config_sweeps(tmp_path):
    data = tmp_path / "graphs.jsonl"
    write_graph_file(family_dataset(per_family=10, seed=7), data)
    summary = ["setting,final_total_loss,utilization"]

    for k in (64, 128, 256, 512):
        out = tmp_path / f"k{k}"
        assert main([
            "train", "--data", str(data), "--out", str(out), "--k", str(k),
            "--seed", "7", "--warmup-epochs", "2", "--epochs", "3",
            "--batch-size", "10", "--lr-gcn", "0.002", "--lr-codebook", "0.01",
        ]) == 0
        last = (out / "train_log.tsv").read_text().splitlines()[-1].split("\t")
        summary.append(f"K={k},{last[4]},{last[5]}")

    for anchor in ("degree", "pagerank", "betweenness", "random"):
        out = tmp_path / f"anchor_{anchor}"
        assert main([
            "train", "--data", str(data), "--out", str(out), "--k", "16",
            "--seed", "7", "--anchor", anchor, "--anchor-seed", "7",
            "--warmup-epochs", "2", "--epochs", "3", "--batch-size", "10",
            "--lr-gcn", "0.002", "--lr-codebook", "0.01",
        ]) == 0
        last = (out / "train_log.tsv").read_text().splitlines()[-1].split("\t")
        summary.append(f"anchor={anchor},{last[4]},{last[5]}")

    report_path = tmp_path / "sweep_report.csv"
    report_path.write_text("\n".join(summary) + "\n")
    assert len(summary) == 9
    report(11, "config-sweeps (4 vocabulary sizes + 4 anchor strategies)")
