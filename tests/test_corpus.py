import json
import tracemalloc
import warnings

import numpy as np
import pytest

from sogtok.attributes import ImportanceStrategy
from sogtok.corpus import (
    QARecord,
    SimilarityThresholds,
    corpus_lines,
    describe_graph,
    gen_descmatch_records,
    gen_knn_records,
    gen_simjudge_records,
    node_names,
    parse_description,
    read_corpus,
    write_corpus,
)
from sogtok.errors import DegenerateCodebook, ValidationError
from sogtok.model import Codebook
from sogtok.train import StructuralToken

from conftest import make_graph


def test_thresholds_validation():
    SimilarityThresholds(0.8, 0.2)
    with pytest.raises(ValidationError):
        SimilarityThresholds(0.2, 0.8)
    with pytest.raises(ValidationError):
        SimilarityThresholds(1.5, 0.0)


def test_record_validates_tokens():
    with pytest.raises(ValidationError):
        QARecord(kind="knn", question="bad token <SOG_x>", answer="<SOG_1>", provenance="t")
    with pytest.raises(ValidationError):
        QARecord(kind="knn", question="q", answer="", provenance="t")


def test_knn_hand_example():
    cb = Codebook(entries=np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]]))
    records = gen_knn_records(cb, k=1)
    target = next(r for r in records if r.provenance == "token:0")
    assert "<SOG_0>" in target.question
    assert "one nearest" in target.question
    assert target.answer == "<SOG_1>"


def test_knn_all_others_when_k_max():
    rng = np.random.default_rng(0)
    cb = Codebook(entries=rng.normal(size=(6, 4)))
    records = gen_knn_records(cb, k=5)
    for r in records:
        own = int(r.provenance.split(":")[1])
        answered = {int(s.strip()[5:-1]) for s in r.answer.split(",")}
        assert answered == set(range(6)) - {own}


def test_knn_matches_bruteforce_ranking():
    rng = np.random.default_rng(1)
    cb = Codebook(entries=rng.normal(size=(24, 8)))
    records = gen_knn_records(cb, k=5)
    by_prov = {r.provenance: r for r in records}
    for i in range(24):
        sims = []
        for j in range(24):
            if j == i:
                continue
            e_i, e_j = cb.entries[i], cb.entries[j]
            cos = float(np.dot(e_i, e_j) / (np.linalg.norm(e_i) * np.linalg.norm(e_j)))
            sims.append((-cos, j))
        expected = [j for _, j in sorted(sims)[:5]]
        got = [int(s.strip()[5:-1]) for s in by_prov[f"token:{i}"].answer.split(",")]
        assert got == expected


def test_knn_excludes_zero_norm():
    cb = Codebook(entries=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    with pytest.warns(UserWarning):
        records = gen_knn_records(cb, k=1)
    assert {r.provenance for r in records} == {"token:0", "token:2"}


def test_knn_degenerate_codebook():
    cb = Codebook(entries=np.zeros((3, 2)))
    with pytest.raises(DegenerateCodebook):
        gen_knn_records(cb, k=1)


def test_knn_k_bounds():
    cb = Codebook(entries=np.eye(3))
    with pytest.raises(ValidationError):
        gen_knn_records(cb, k=3)


def _simjudge_inputs():
    ids = ["a", "b", "c", "d"]
    tokens = [StructuralToken(i) for i in (0, 1, 2, 3)]
    embeddings = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.01],  # nearly parallel to a -> similar
            [-1.0, 0.0],  # opposite -> dissimilar
            [0.8, 0.7],  # mid-zone vs a
        ]
    )
    return ids, tokens, embeddings


def test_simjudge_labels():
    ids, tokens, emb = _simjudge_inputs()
    th = SimilarityThresholds(0.9, 0.0)
    with pytest.warns(UserWarning):  # tiny pool cannot fill the budget
        records = gen_simjudge_records(ids, tokens, emb, th, budget=20, seed=0)
    by_pair = {r.provenance: r.answer for r in records}
    assert by_pair.get("pair:a|b") == "similar"
    for prov, ans in by_pair.items():
        assert ans in ("similar", "dissimilar")


def test_simjudge_dead_zone_skipped():
    ids = ["a", "b"]
    tokens = [StructuralToken(0), StructuralToken(1)]
    emb = np.array([[1.0, 0.0], [1.0, 1.0]])  # cosine ~0.707
    th = SimilarityThresholds(0.8, 0.2)
    with pytest.warns(UserWarning):
        records = gen_simjudge_records(ids, tokens, emb, th, budget=4, seed=0)
    assert records == []


def test_simjudge_balanced_and_consistent():
    rng = np.random.default_rng(7)
    n = 30
    emb = rng.normal(size=(n, 6))
    ids = [f"g{i}" for i in range(n)]
    tokens = [StructuralToken(i % 8) for i in range(n)]
    th = SimilarityThresholds(0.5, -0.2)
    records = gen_simjudge_records(ids, tokens, emb, th, budget=20, seed=3)
    pos = [r for r in records if r.answer == "similar"]
    neg = [r for r in records if r.answer == "dissimilar"]
    assert len(pos) == len(neg) > 0
    by_id = {gid: emb[i] for i, gid in enumerate(ids)}
    for r in records:
        a, b = r.provenance[len("pair:") :].split("|")
        cos = float(
            np.dot(by_id[a], by_id[b]) / (np.linalg.norm(by_id[a]) * np.linalg.norm(by_id[b]))
        )
        if r.answer == "similar":
            assert cos > th.tau_pos
        else:
            assert cos < th.tau_neg


def _double_loop_simjudge(ids, tokens, embeddings, thresholds, budget, seed, ratio=1.0):
    """gen_simjudge_records before the blocked scan, copied as it was: the
    dense cosine matrix and a Python loop over every pair i < j."""
    norms = np.linalg.norm(embeddings, axis=1)
    unit = embeddings / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit @ unit.T
    n = len(ids)
    pos_pairs = []
    neg_pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            s = sims[i, j]
            if s > thresholds.tau_pos:
                pos_pairs.append((i, j))
            elif s < thresholds.tau_neg:
                neg_pairs.append((i, j))
    rng = np.random.default_rng(seed)
    rng.shuffle(pos_pairs)
    rng.shuffle(neg_pairs)
    unit = min(budget / (1.0 + ratio), len(neg_pairs), len(pos_pairs) / ratio)
    n_neg = int(unit)
    n_pos = int(round(unit * ratio))
    records = []
    for label, picks in (("similar", pos_pairs[:n_pos]), ("dissimilar", neg_pairs[:n_neg])):
        for i, j in picks:
            question = (
                f"Here are two tokens {tokens[i].surface} and {tokens[j].surface}, "
                f"judge whether they represent similar structures or not."
            )
            records.append(QARecord(kind="simjudge", question=question, answer=label,
                                    provenance=f"pair:{ids[i]}|{ids[j]}"))
    return records


@pytest.mark.parametrize("n", [1, 2, 5, 300, 513])
@pytest.mark.parametrize("thresholds", [(0.8, 0.2), (0.3, -0.3)])
@pytest.mark.parametrize("ratio", [1.0, 2.5])
def test_simjudge_equals_double_loop(n, thresholds, ratio):
    rng = np.random.default_rng(n)
    emb = rng.normal(size=(n, 4)) + np.array([0.8, 0.0, 0.0, 0.0])
    emb[::7] = 0.0  # zero-norm rows: cosine 0 with every row
    if n > 3:
        emb[3] = emb[1] * 2.0  # exactly parallel rows
    ids = [f"g{i:03d}" for i in range(n)]
    tokens = [StructuralToken(i % 11) for i in range(n)]
    th = SimilarityThresholds(*thresholds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # shortfall at small n
        got = gen_simjudge_records(ids, tokens, emb, th, budget=200, seed=n + 1, ratio=ratio)
        want = _double_loop_simjudge(ids, tokens, emb, th, budget=200, seed=n + 1, ratio=ratio)
    assert got == want
    if n >= 300:
        assert {r.answer for r in got} == {"similar", "dissimilar"}


def test_simjudge_memory_bounded():
    # the dense 3,000 x 3,000 cosine matrix alone takes 72 MB. The qualifying
    # pairs are kept, 16 B each; these thresholds qualify ~250k of them.
    n = 3000
    emb = np.random.default_rng(5).normal(size=(n, 64))
    ids = [f"g{i}" for i in range(n)]
    tokens = [StructuralToken(i % 8) for i in range(n)]
    tracemalloc.start()
    try:
        records = gen_simjudge_records(ids, tokens, emb, SimilarityThresholds(0.5, -0.2),
                                       budget=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) > 0
    assert peak < 32 * 2**20


def test_node_names_sequence():
    names = node_names(30)
    assert names[:3] == ["A", "B", "C"]
    assert names[25] == "Z"
    assert names[26] == "AA"
    assert names[27] == "AB"


def test_describe_star():
    g = make_graph(3, [(0, 1), (0, 2)])
    question, name_map = describe_graph(g, ImportanceStrategy())
    assert "node A and node B is connected" in question
    assert "node A and node C is connected" in question
    assert question.endswith("The corresponding graph structural token is:")
    assert name_map["A"] == 0  # anchor gets the first name


def test_describe_single_node():
    g = make_graph(1, [])
    question, _ = describe_graph(g, ImportanceStrategy())
    assert "1 node" in question and "connected" not in question
    count, pairs = parse_description(question)
    assert count == 1 and pairs == []


def test_description_roundtrip():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    strategy = ImportanceStrategy()
    question, name_map = describe_graph(g, strategy)
    _, pairs = parse_description(question)
    recovered = {tuple(sorted((name_map[a], name_map[b]))) for a, b in pairs}
    assert recovered == set(g.edges)


def test_descmatch_records():
    g = make_graph(3, [(0, 1), (0, 2)], gid="star")
    tokens = {"star": StructuralToken(7)}
    records = gen_descmatch_records([g], tokens, ImportanceStrategy())
    assert records[0].answer == "<SOG_7>"
    assert records[0].provenance == "graph:star"
    with pytest.raises(ValidationError):
        gen_descmatch_records([make_graph(2, [(0, 1)], gid="other")], tokens, ImportanceStrategy())


def test_corpus_write_grouped_and_deterministic(tmp_path):
    records = [
        QARecord(kind="simjudge", question="q <SOG_1> <SOG_2>", answer="similar", provenance="pair:a|b"),
        QARecord(kind="knn", question="q <SOG_0>", answer="<SOG_1>", provenance="token:0"),
        QARecord(kind="descmatch", question="node A and node B is connected", answer="<SOG_3>", provenance="graph:g"),
    ]
    p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    write_corpus(records, p1)
    write_corpus(list(reversed(records)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    kinds = [json.loads(ln)["kind"] for ln in p1.read_text().splitlines()]
    assert kinds == sorted(kinds)
    back = read_corpus(p1)
    assert len(back) == 3


def test_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_corpus([], path)
    assert path.read_text() == ""
