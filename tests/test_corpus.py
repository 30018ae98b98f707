import json
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sogtok import corpus as corpus_module
from sogtok.attributes import ImportanceStrategy, attribute_maps
from sogtok.corpus import (
    QARecord,
    SimilarityThresholds,
    corpus_lines,
    gen_descmatch_records,
    gen_knn_records,
    gen_simjudge_records,
    node_names,
    qualifying_pairs,
    write_corpus,
)
from sogtok.errors import DegenerateCodebook, ValidationError
from sogtok.model import Codebook

import oracle
from conftest import make_graph, parse_description, read_arrays, read_corpus


def test_thresholds_validation():
    SimilarityThresholds(0.8, 0.2)
    with pytest.raises(ValidationError):
        SimilarityThresholds(0.2, 0.8)
    with pytest.raises(ValidationError):
        SimilarityThresholds(1.5, 0.0)


def test_record_validates_tokens(tmp_path):
    with pytest.raises(ValidationError):
        QARecord(kind="knn", question="bad token <SOG_x>", answer="<SOG_1>", provenance="t")
    with pytest.raises(ValidationError):
        QARecord(kind="knn", question="q", answer="", provenance="t")
    # one spelling: ASCII decimal digits, no leading zero, as the writers emit
    path = tmp_path / "corpus.jsonl"
    for bad in ("<SOG_\u0663>", "<SOG_\uff13>", "<SOG_007>", "<SOG_00>", "<SOG_-1>", "<SOG_>"):
        with pytest.raises(ValidationError, match="not a structural token"):
            QARecord(kind="knn", question="q", answer=bad, provenance="t")
        path.write_text(json.dumps({"kind": "knn", "question": "q", "answer": bad,
                                    "provenance": "t", "split": "train"}) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="not a structural token"):
            read_corpus(path)
    assert QARecord(kind="knn", question="q <SOG_0>", answer="<SOG_10>", provenance="t")


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
    tokens = [0, 1, 2, 3]
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
    tokens = [0, 1]
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
    tokens = [i % 8 for i in range(n)]
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


def _double_loop_pairs(embeddings, thresholds):
    """The qualifying pairs as flat indices i * n + j, found as
    gen_simjudge_records found them before the blocked scan: the dense
    cosine matrix and a Python loop over every pair i < j."""
    norms = np.linalg.norm(embeddings, axis=1)
    unit = embeddings / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit @ unit.T
    n = len(embeddings)
    pos_pairs = []
    neg_pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            s = sims[i, j]
            if s > thresholds.tau_pos:
                pos_pairs.append(i * n + j)
            elif s < thresholds.tau_neg:
                neg_pairs.append(i * n + j)
    return pos_pairs, neg_pairs


def _picked_pairs(records, ids):
    """{answer: [flat index i * n + j]} of simjudge records, in record order."""
    index = {gid: i for i, gid in enumerate(ids)}
    picked = {"similar": [], "dissimilar": []}
    for r in records:
        a, b = r.provenance[len("pair:"):].split("|")
        picked[r.answer].append(index[a] * len(ids) + index[b])
    return picked


@pytest.mark.parametrize("n", [1, 2, 5, 300, 513])
@pytest.mark.parametrize("thresholds", [(0.8, 0.2), (0.3, -0.3)])
def test_simjudge_equals_double_loop(n, thresholds, monkeypatch):
    rng = np.random.default_rng(n)
    emb = rng.normal(size=(n, 4)) + np.array([0.8, 0.0, 0.0, 0.0])
    emb[::7] = 0.0  # zero-norm rows: cosine 0 with every row
    if n > 3:
        emb[3] = emb[1] * 2.0  # exactly parallel rows
    ids = [f"g{i:03d}" for i in range(n)]
    tokens = [i % 11 for i in range(n)]
    th = SimilarityThresholds(*thresholds)
    want_pos, want_neg = _double_loop_pairs(emb, th)
    # the scan finds the double loop's pairs in its order, in blocks of any size
    for cells in (corpus_module._SIMJUDGE_CELLS, 64):
        monkeypatch.setattr(corpus_module, "_SIMJUDGE_CELLS", cells)
        blocks = list(qualifying_pairs(emb, th))
        assert [int(f) for pos, _ in blocks for f in pos] == want_pos
        assert [int(f) for _, neg in blocks for f in neg] == want_neg
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # shortfall at small n
        got = gen_simjudge_records(ids, tokens, emb, th, budget=200, seed=n + 1)
    picked = _picked_pairs(got, ids)
    # both classes are cut to the smaller one's count, never past the budget
    unit = min(100, len(want_neg), len(want_pos))
    assert len(picked["similar"]) == len(picked["dissimilar"]) == unit
    # distinct pairs, each in its class
    assert len(set(picked["similar"] + picked["dissimilar"])) == len(got)
    assert set(picked["similar"]) <= set(want_pos)
    assert set(picked["dissimilar"]) <= set(want_neg)
    for r in got:
        i, j = (int(g[1:]) for g in r.provenance[len("pair:"):].split("|"))
        assert r.question == (f"Here are two tokens <SOG_{tokens[i]}> and <SOG_{tokens[j]}>, "
                              f"judge whether they represent similar structures or not.")
    if n >= 300:
        assert {r.answer for r in got} == {"similar", "dissimilar"}


def test_simjudge_same_seed_same_picks(monkeypatch):
    rng = np.random.default_rng(11)
    n = 400
    emb = rng.normal(size=(n, 4)) + np.array([0.8, 0.0, 0.0, 0.0])
    ids = [f"g{i}" for i in range(n)]
    tokens = [i % 5 for i in range(n)]
    th = SimilarityThresholds(0.3, -0.3)
    monkeypatch.setattr(corpus_module, "_SIMJUDGE_CELLS", 4096)  # 40 row blocks
    runs = [gen_simjudge_records(ids, tokens, emb, th, budget=64, seed=seed)
            for seed in (5, 5, 6)]
    assert runs[0] == runs[1]
    assert len(runs[0]) == 64
    assert {r.provenance for r in runs[0]} != {r.provenance for r in runs[2]}


@pytest.mark.filterwarnings("ignore:simjudge pair shortfall")
@pytest.mark.parametrize(("cluster", "budget", "want"), [
    (6, 8, (4, 4)),  # 30 similar, 36 dissimilar pairs; each class fills its reservoir
    (11, 60, (11, 11)),  # 55 similar, 11 dissimilar; 11 similar cut from a reservoir of 30
], ids=["full-reservoirs", "cut-reservoir"])
def test_simjudge_picks_uniform_across_seeds(monkeypatch, cluster, budget, want):
    # two tight clusters; pairs inside one are similar, across them dissimilar
    n = 12
    emb = np.zeros((n, 2))
    emb[:cluster, 0], emb[cluster:, 0] = 1.0, -1.0
    emb[:, 1] = np.linspace(0.0, 0.05, n)
    ids = [f"g{i:02d}" for i in range(n)]
    th = SimilarityThresholds(0.5, -0.5)
    pos, neg = _double_loop_pairs(emb, th)
    # one- and two-row blocks, so the reservoirs replace across many batches
    monkeypatch.setattr(corpus_module, "_SIMJUDGE_CELLS", 12)
    seeds = 1500
    counts = Counter()
    for seed in range(seeds):
        records = gen_simjudge_records(ids, [0] * n, emb, th, budget=budget, seed=seed)
        picked = _picked_pairs(records, ids)
        assert (len(picked["similar"]), len(picked["dissimilar"])) == want
        counts.update(picked["similar"] + picked["dissimilar"])
    for pairs, m in zip((pos, neg), want):
        expected = seeds * m / len(pairs)
        chi2 = sum((counts[p] - expected) ** 2 / expected for p in pairs)
        # degrees of freedom len(pairs) - 1; a biased sampler lands far above
        assert chi2 < 2 * len(pairs), (chi2, len(pairs))


def test_reservoir_uniform_over_a_long_stream():
    # 200 items in batches of uneven size (some empty), 4 kept: N / size = 50
    sizes = [0, 3, 1, 40, 0, 7, 60, 1, 88]
    assert sum(sizes) == 200
    seeds = 2000
    counts = np.zeros(200)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        reservoir = corpus_module._Reservoir(4, rng)
        stream = np.arange(200)
        for size in sizes:
            reservoir.feed(stream[:size])
            stream = stream[size:]
        kept = reservoir.sample()
        assert reservoir.seen == 200
        assert len(set(kept.tolist())) == 4
        counts[kept] += 1
    expected = seeds * 4 / 200
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 2 * 200, chi2
    # the first and the last items are kept as often as the middle ones
    assert abs(counts[:20].mean() - expected) < 0.25 * expected
    assert abs(counts[-20:].mean() - expected) < 0.25 * expected


def _simjudge_peak(n, thresholds):
    emb = np.random.default_rng(5).normal(size=(n, 64))
    ids = [f"g{i}" for i in range(n)]
    tokens = [i % 8 for i in range(n)]
    tracemalloc.start()
    try:
        records = gen_simjudge_records(ids, tokens, emb, SimilarityThresholds(*thresholds),
                                       budget=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 64
    return peak


def test_simjudge_memory_bounded():
    # 3,000 rows of 64: the dense cosine matrix alone takes 72 MB. (0.5, -0.2)
    # qualifies ~250k of the 4.5M pairs and (0.5, 0.0) ~2.2M; keeping them
    # (8 B each) would add 16 MB between the two. One row block holds
    # 2 MB of cosines, and its qualifying indices at most as much again.
    few = _simjudge_peak(3000, (0.5, -0.2))
    many = _simjudge_peak(3000, (0.5, 0.0))
    assert few < 8 * 2**20 and many < 8 * 2**20
    assert many - few < corpus_module._SIMJUDGE_CELLS * 8


def test_knn_ranking_equals_sorted_rule():
    # small integer entries give many equal cosines; some rows are zero
    rng = np.random.default_rng(4)
    for trial in range(60):
        count = int(rng.integers(3, 30))
        entries = rng.integers(-2, 3, size=(count, int(rng.integers(1, 4)))).astype(float)
        entries[rng.integers(count, size=int(rng.integers(0, 3)))] = 0.0
        norms = np.linalg.norm(entries, axis=1)
        usable = [i for i in range(count) if norms[i] > 0]
        if len(usable) < 2:
            continue
        k = int(rng.integers(1, count))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            records = gen_knn_records(Codebook(entries=entries), k=k)
        sims, _ = corpus_module.cosine_matrix(entries)
        assert [r.provenance for r in records] == [f"token:{i}" for i in usable]
        for i, r in zip(usable, records):
            want = sorted((j for j in usable if j != i), key=lambda j: (-sims[i, j], j))[:k]
            assert r.answer == ", ".join(f"<SOG_{j}>" for j in want), (trial, i)


def test_node_names_sequence():
    names = node_names(30)
    assert names[:3] == ["A", "B", "C"]
    assert names[25] == "Z"
    assert names[26] == "AA"
    assert names[27] == "AB"


def _describe(g):
    """g's descmatch question, checked against the reference's, and the
    reference's name -> node map."""
    block, ranked = read_arrays([g])
    (record,) = gen_descmatch_records(block, [0], ranked)
    question, name_map = oracle.describe_graph(g, attribute_maps([g], ImportanceStrategy())[0])
    assert record.question == question
    return question, name_map


def test_describe_star():
    g = make_graph(3, [(0, 1), (0, 2)])
    question, name_map = _describe(g)
    assert "node A and node B is connected" in question
    assert "node A and node C is connected" in question
    assert question.endswith("The corresponding graph structural token is:")
    assert name_map["A"] == 0  # anchor gets the first name


def test_describe_single_node():
    g = make_graph(1, [])
    question, _ = _describe(g)
    assert "1 node" in question and "connected" not in question
    count, pairs = parse_description(question)
    assert count == 1 and pairs == []


def test_description_roundtrip():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    question, name_map = _describe(g)
    _, pairs = parse_description(question)
    recovered = {tuple(sorted((name_map[a], name_map[b]))) for a, b in pairs}
    assert recovered == set(g.edges)


def test_descmatch_records():
    g = make_graph(3, [(0, 1), (0, 2)], gid="star")
    block, ranked = read_arrays([g])
    records = gen_descmatch_records(block, [7], ranked)
    assert records[0].answer == "<SOG_7>"
    assert records[0].provenance == "graph:star"
    other = make_graph(2, [(0, 1)], gid="other")
    block, ranked = read_arrays([other])
    with pytest.raises(ValidationError):
        gen_descmatch_records(block, [], ranked)  # no token for the graph


def test_descmatch_uses_given_attribute_maps():
    graphs = [
        make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], gid="path"),
        make_graph(6, [(0, 1), (1, 2), (3, 4)], gid="split"),
        make_graph(3, [], gid="bare"),
    ]
    strategy = ImportanceStrategy("random", seed=1)
    block, ranked = read_arrays(graphs, strategy)
    records = gen_descmatch_records(block, list(range(len(graphs))), ranked)
    attrs = attribute_maps(graphs, strategy)
    for g, graph_attrs, record in zip(graphs, attrs, records):
        question, name_map = oracle.describe_graph(g, graph_attrs)
        assert record.question == question
        assert name_map["A"] == graph_attrs.anchor
    with pytest.raises(ValidationError):
        gen_descmatch_records(block, list(range(len(graphs))), ranked[:2])


def test_descmatch_matches_reference_on_many_sizes():
    """One block of graphs of many sizes, several per stack, some with
    unreachable nodes: every question is the per-graph reference's."""
    rng = np.random.default_rng(4)
    graphs = []
    for k in range(60):
        n = int(rng.integers(1, 30))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 2.5 / n]
        graphs.append(make_graph(n, pairs, gid=f"g{k}"))
    strategy = ImportanceStrategy()
    block, ranked = read_arrays(graphs, strategy)
    records = gen_descmatch_records(block, list(range(60)), ranked)
    for g, attrs, record in zip(graphs, attribute_maps(graphs, strategy), records):
        assert record.question == oracle.describe_graph(g, attrs)[0]
        assert record.provenance == f"graph:{g.id}"


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


def test_corpus_write_failing_partway_keeps_old_file(tmp_path, monkeypatch):
    records = [QARecord(kind="knn", question=f"q <SOG_{i}>", answer="<SOG_0>",
                        provenance=f"token:{i}") for i in range(3)]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"old corpus\n")
    real = corpus_module.corpus_lines

    def fail_after_first_line(recs):
        yield next(iter(real(recs)))
        raise OSError("disk full")

    monkeypatch.setattr(corpus_module, "corpus_lines", fail_after_first_line)
    with pytest.raises(OSError, match="disk full"):
        write_corpus(records, path)
    assert path.read_bytes() == b"old corpus\n"
    with pytest.raises(OSError, match="disk full"):
        write_corpus(records, tmp_path / "fresh.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_corpus([], path)
    assert path.read_text() == ""
