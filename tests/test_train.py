import math

import numpy as np
import pytest

from sogtok.attributes import HashingEmbedder, ImportanceStrategy
from sogtok.errors import EmptyDataset, ValidationError
from sogtok.ingest import graph_blocks
from sogtok.model import load_checkpoint, nearest, save_checkpoint
from sogtok.synthetic import (
    cycle_graph,
    family_dataset,
    random_connected_graph,
    star_graph,
    strict_ranking_graphs,
)
from sogtok.train import (
    CENTER_ROW,
    GLOBAL_ROW,
    TOKEN_RE,
    TokenAssignment,
    TrainConfig,
    assign_node_tokens,
    assign_token,
    encoded_blocks,
    format_token_table,
    format_training_log,
    graph_embedding,
    token_text,
    train,
)

from conftest import make_graph
import oracle
from oracle import permute

SMALL = dict(k=4, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4)


@pytest.fixture(scope="module")
def tiny_model():
    graphs = [cycle_graph(n, f"c{n}") for n in (4, 5, 6)] + [
        star_graph(n, f"s{n}") for n in (4, 5, 6)
    ]
    model, logs = train(graph_blocks(graphs), TrainConfig(**SMALL))
    return model, logs, graphs


def test_token_surface_roundtrip():
    assert token_text(157) == "<SOG_157>"
    for k in (0, 7, 157, 10**6):
        assert int(TOKEN_RE.fullmatch(token_text(k)).group(1)) == k
    # one spelling: no other digits, no leading zeros, nothing around it
    for bad in ("<SOG_x>", "<SOG_\u0663>", "<SOG_\uff13>", "<SOG_007>", "<SOG_00>", "<SOG_>",
                "<SOG_-1>", "<SOG_+1>", " <SOG_1>", "<SOG_1>x"):
        assert TOKEN_RE.fullmatch(bad) is None, bad


def test_train_rejects_empty():
    with pytest.raises(EmptyDataset):
        train(graph_blocks([]), TrainConfig(**SMALL))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_aborts_with_nonfinite_loss():
    from sogtok.errors import NonFiniteLoss

    graphs = [cycle_graph(5, "c5"), star_graph(5, "s5")]
    cfg = TrainConfig(
        k=4, warmup_epochs=6, joint_epochs=0, seed=1, lr_warmup=1e150, d_s=16, d=8, d_r=4
    )
    with pytest.raises(NonFiniteLoss) as err:
        train(graph_blocks(graphs), cfg)
    assert err.value.epoch >= 1


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_full_batch_divergence_differentiates_no_non_finite_state(monkeypatch):
    """A full-batch epoch logs from its update walk: a stack whose loss is not
    finite is not differentiated, and NonFiniteLoss comes before the step."""
    import sogtok.train as train_module
    from sogtok.errors import NonFiniteLoss

    backward, finite = train_module.backward, []

    def checked_backward(state, *args):
        finite.append(bool(np.isfinite(state.loss.total).all()))
        return backward(state, *args)

    monkeypatch.setattr(train_module, "backward", checked_backward)
    graphs = [cycle_graph(5, "c5"), star_graph(5, "s5")]
    cfg = TrainConfig(k=4, warmup_epochs=6, joint_epochs=0, seed=1, lr_warmup=1e150, d_s=16, d=8, d_r=4)
    with pytest.raises(NonFiniteLoss):
        train(graph_blocks(graphs), cfg)
    assert finite and all(finite)


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(k=1)
    with pytest.raises(ValidationError):
        TrainConfig(lr_gcn=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(global_share=1.5)


def test_config_rejects_batch_size_below_one():
    for size in (0, -3):
        with pytest.raises(ValidationError, match="batch size"):
            TrainConfig(batch_size=size)
    assert TrainConfig(batch_size=1).batch_size == 1


@pytest.mark.parametrize("name", ["d_s", "d_h", "d", "d_r"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_dimension_below_one(name, value):
    with pytest.raises(ValidationError, match=f"dimension {name} must be >= 1"):
        TrainConfig(**{name: value})
    assert getattr(TrainConfig(**{name: 1}), name) == 1
    assert TrainConfig(d_h=None).hidden == TrainConfig().d_s


@pytest.mark.parametrize("name", ["lr_warmup", "lr_gcn", "lr_codebook", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
def test_config_rejects_non_finite_or_non_positive_rate(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
        TrainConfig(**{name: value})
    assert getattr(TrainConfig(**{name: 1e-300}), name) == 1e-300


def test_zero_epochs_returns_initialization():
    graphs = [cycle_graph(5, "c5")]
    cfg = TrainConfig(k=4, warmup_epochs=0, joint_epochs=0, seed=9, d_s=16, d=8, d_r=4)
    m1, logs1 = train(graph_blocks(graphs), cfg)
    m2, _ = train(graph_blocks(graphs), cfg)
    assert np.array_equal(m1.enc.w1, m2.enc.w1)
    assert np.array_equal(m1.codebook.entries, m2.codebook.entries)
    assert len(logs1) == 1  # closing evaluation row only


def test_codebook_untouched_during_warmup(tmp_path):
    graphs = [cycle_graph(5, "c5"), star_graph(5, "s5")]
    cfg = TrainConfig(k=4, warmup_epochs=3, joint_epochs=0, seed=9, d_s=16, d=8, d_r=4)
    out = tmp_path / "ck"
    out.mkdir()
    train(graph_blocks(graphs), cfg, checkpoint_dir=str(out))
    first = load_checkpoint(out / "ckpt_epoch_000.sogtok")
    last = load_checkpoint(out / "ckpt_epoch_002.sogtok")
    assert np.array_equal(first.codebook.entries, last.codebook.entries)
    assert not np.array_equal(first.enc.w1, last.enc.w1)


def test_training_is_bit_reproducible(tmp_path):
    graphs = family_dataset(per_family=4, seed=3)
    cfg = TrainConfig(k=4, warmup_epochs=2, joint_epochs=2, seed=11, d_s=16, d=8, d_r=4)
    m1, logs1 = train(graph_blocks(graphs), cfg)
    m2, logs2 = train(graph_blocks(graphs), cfg)
    save_checkpoint(m1, tmp_path / "a.sogtok")
    save_checkpoint(m2, tmp_path / "b.sogtok")
    assert (tmp_path / "a.sogtok").read_bytes() == (tmp_path / "b.sogtok").read_bytes()
    assert format_training_log(logs1) == format_training_log(logs2)


def test_training_log_shape(tiny_model):
    _, logs, _ = tiny_model
    # entry row per epoch plus a closing row
    assert len(logs) == SMALL["warmup_epochs"] + SMALL["joint_epochs"] + 1
    text = format_training_log(logs)
    header = text.splitlines()[0].split("\t")
    assert header == ["epoch", "recon", "update", "commit", "total", "utilization", "dead_entries"]


def test_assign_token_pure(tiny_model):
    model, _, graphs = tiny_model
    a1 = assign_token(graphs[0], model)
    a2 = assign_token(graphs[0], model)
    assert a1 == a2
    assert 0 <= a1.graph_token < model.k
    assert len(a1.node_tokens) == graphs[0].n


def test_assign_token_internal_consistency(tiny_model):
    model, _, graphs = tiny_model
    from sogtok.model import quantize
    from sogtok.train import graph_embedding

    g = graphs[2]
    h = graph_embedding(g, model)
    sel = quantize(h, model.codebook)
    assert assign_token(g, model).graph_token == int(sel.indices[-1])


def _brute_force_nearest(row, entries) -> int:
    """Nearest entry by a plain Python scan; the lowest index wins ties."""
    best, best_d = 0, float("inf")
    for j, entry in enumerate(entries):
        dist = sum((float(a) - float(b)) ** 2 for a, b in zip(row, entry))
        if dist < best_d:
            best, best_d = j, dist
    return best


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_graph_token_matches_assign_token_and_brute_force(tiny_model, n):
    """Graph sizes straddle the 64-row chunk of model.nearest."""
    model, _, _ = tiny_model
    rng = np.random.default_rng(n)
    g = random_connected_graph(n, 0.05, rng, gid=f"r{n}")
    h = graph_embedding(g, model)
    token = int(nearest(h[-1:], model.codebook.entries)[0])
    assignment = assign_token(g, model)
    assert token == assignment.graph_token
    assert token == _brute_force_nearest(h[-1], model.codebook.entries)
    assert list(assignment.node_tokens) == [
        _brute_force_nearest(row, model.codebook.entries) for row in h[:-1]
    ]


def test_strict_graph_relabeling_same_token(tiny_model):
    model, _, _ = tiny_model
    rng = np.random.default_rng(2)
    for g in strict_ranking_graphs(5, seed=21):
        base = assign_token(g, model).graph_token
        perm = rng.permutation(g.n).tolist()
        assert assign_token(permute(g, perm), model).graph_token == base


def test_assign_token_with_external_table(tiny_model):
    from sogtok.attributes import GLOBAL_ATTRIBUTE, TableEmbedder

    model, _, _ = tiny_model
    path = make_graph(3, [(0, 1), (1, 2)], gid="p3")
    rng = np.random.default_rng(0)
    table = TableEmbedder(
        {
            "anchor node": rng.normal(size=16),
            "first-hop neighbor #1": rng.normal(size=16),
            "first-hop neighbor #2": rng.normal(size=16),
            GLOBAL_ATTRIBUTE: rng.normal(size=16),
        },
        dim=16,
    )
    a1 = assign_token(path, model, embedder=table)
    a2 = assign_token(path, model, embedder=table)
    assert a1 == a2
    assert 0 <= a1.graph_token < model.k


def test_node_tokens_symmetric_star(tiny_model):
    model, _, _ = tiny_model
    star = star_graph(5, "star5")
    t1 = assign_node_tokens(star, 1, model)
    t2 = assign_node_tokens(star, 2, model)
    assert t1 == t2  # symmetric leaves share attribute layout


def test_node_token_isolated(tiny_model):
    model, _, _ = tiny_model
    g = make_graph(1, [])
    tok = assign_node_tokens(g, 0, model, hops=2)
    assert 0 <= tok < model.k


def test_node_token_ego_covers_star(tiny_model):
    model, _, _ = tiny_model
    star = star_graph(6, "star6")
    tok_leaf = assign_node_tokens(star, 3, model, hops=2)
    assert 0 <= tok_leaf < model.k


def test_permutation_consistency_reuses_base_tokens(tiny_model):
    from sogtok.metrics import permutation_consistency

    model, _, graphs = tiny_model
    rng = np.random.default_rng(12)
    graphs = graphs + [random_connected_graph(n, 0.3, rng, gid=f"r{n}") for n in range(3, 12)]
    base = [assign_token(g, model).graph_token for g in graphs]
    # the seeded relabelings, drawn graph by graph, each tokenized on its own
    perm_rng = np.random.default_rng(4)
    hits = sum(
        assign_token(permute(g, perm_rng.permutation(g.n).tolist()), model).graph_token == b
        for g, b in zip(graphs, base)
        for _ in range(3)
    )
    assert permutation_consistency(model, graphs, trials=3, seed=4) == hits / (3 * len(graphs))


def test_export_token_table(tmp_path, tiny_model):
    model, _, graphs = tiny_model
    assignments = [assign_token(g, model) for g in graphs]
    out = tmp_path / "tokens.tsv"
    out.write_text(format_token_table(assignments), encoding="utf-8")
    lines = out.read_text().splitlines()
    assert lines[0] == "id\tgraph_token\tnode_tokens"
    assert len(lines) == len(graphs) + 1
    ids = [ln.split("\t")[0] for ln in lines[1:]]
    assert ids == sorted(ids)
    assert "<SOG_" in lines[1]
    # deterministic re-export
    out2 = tmp_path / "tokens2.tsv"
    out2.write_text(format_token_table(assignments), encoding="utf-8")
    assert out.read_bytes() == out2.read_bytes()


def test_empty_token_table(tmp_path):
    out = tmp_path / "empty.tsv"
    out.write_text(format_token_table([]), encoding="utf-8")
    assert out.read_text() == "id\tgraph_token\tnode_tokens\n"


def test_format_token_table_surface():
    row = format_token_table(
        [
            TokenAssignment(
                graph_id="g1",
                graph_token=157,
                node_tokens=(1, 2),
            )
        ]
    )
    assert "<SOG_157>" in row and "1,2" in row


def _mixed_sizes(count, seed):
    """Graphs of 1 to 8 nodes, a fifth of them edgeless, with single-node ones."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        edges = [] if rng.random() < 0.2 else [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4
        ]
        graphs.append(make_graph(n, edges, gid=f"m{i:03d}"))
    return graphs


def _train_blocks(graphs, cfg, checkpoint_dir=None):
    """train() of in-memory graphs, READ_BLOCK at a time."""
    return train(graph_blocks(graphs), cfg, checkpoint_dir=checkpoint_dir)


def _artifacts(trainer, graphs, cfg, out):
    out.mkdir()
    model, logs = trainer(graphs, cfg, checkpoint_dir=str(out))
    save_checkpoint(model, out / "final.sogtok")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, format_training_log(logs)


ORACLE_CASES = {
    "full_batch": dict(k=8, batch_size=None),
    "batch_1": dict(k=8, batch_size=1),
    "batch_7_global_share": dict(k=8, batch_size=7, global_share=0.5),
    "batch_32": dict(k=16, batch_size=32),
    "no_warmup": dict(k=8, batch_size=7, warmup_epochs=0),
    "one_dimensional": dict(k=4, batch_size=7, d_s=1, d_h=1, d=1, d_r=1),
    "one_dimensional_global_share": dict(k=4, batch_size=None, d_s=1, d_h=1, d=1, d_r=1, global_share=0.5),
    # two entries: a graph's rows share entries, and so do the graphs of a block
    "collapsed_codebook": dict(k=2, batch_size=32),
    "collapsed_codebook_full_batch": dict(k=2, batch_size=None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_train_matches_per_graph_oracle(case, tmp_path):
    """Blocked training writes the bytes of the one-graph-at-a-time loop: final
    model, every snapshot and the log. 41 graphs leave partial minibatches and
    blocks; single-node and edgeless graphs are among them."""
    graphs = _mixed_sizes(41, seed=0)
    settings = dict(warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4, lr_gcn=2e-3,
                    lr_codebook=1e-2) | ORACLE_CASES[case]
    cfg = TrainConfig(**settings)
    assert _artifacts(_train_blocks, graphs, cfg, tmp_path / "blocked") == _artifacts(
        oracle.train, graphs, cfg, tmp_path / "per_graph"
    )


@pytest.mark.parametrize("global_share", [None, 0.5])
def test_train_matches_oracle_when_k_exceeds_rows(global_share, tmp_path):
    """K=32 entries for 15 latent rows: k-means pads its centers."""
    graphs = [make_graph(1, [], gid="a"), make_graph(2, [(0, 1)], gid="b"),
              make_graph(3, [], gid="c"), make_graph(4, [(0, 1), (1, 2), (2, 3)], gid="d")]
    cfg = TrainConfig(k=32, warmup_epochs=2, joint_epochs=2, seed=3, d_s=16, d=8, d_r=4,
                      batch_size=3, global_share=global_share)
    assert _artifacts(_train_blocks, graphs, cfg, tmp_path / "blocked") == _artifacts(
        oracle.train, graphs, cfg, tmp_path / "per_graph"
    )


def test_train_matches_oracle_with_split_buckets(monkeypatch, tmp_path):
    """With one node count spread over several buckets, a minibatch still sums
    its gradients by node count in order of first appearance, then by dataset
    position, as the per-graph loop does."""
    import sogtok.graph as graph_module

    monkeypatch.setattr(graph_module, "_BUCKET_CELLS", 64)  # 8-node graphs one per bucket, 5-node two
    graphs = _mixed_sizes(41, seed=0)
    cfg = TrainConfig(k=16, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4,
                      lr_gcn=2e-3, lr_codebook=1e-2, batch_size=32)
    assert _artifacts(_train_blocks, graphs, cfg, tmp_path / "blocked") == _artifacts(
        oracle.train, graphs, cfg, tmp_path / "per_graph"
    )


@pytest.mark.parametrize("bucket_cells", [None, 64])
@pytest.mark.parametrize("batch_size", [None, 32])
def test_train_matches_oracle_across_read_blocks(monkeypatch, tmp_path, batch_size, bucket_cells):
    """Graphs prepared 7 at a time from a stream: each node count spans the
    buckets of several blocks, and with 64 bucket cells 8-node graphs also
    take one bucket each within a block. Training still writes the bytes of
    the per-graph loop."""
    import sogtok.graph as graph_module
    import sogtok.ingest as ingest

    monkeypatch.setattr(ingest, "READ_BLOCK", 7)
    graphs = _mixed_sizes(41, seed=0)
    if bucket_cells is not None:
        monkeypatch.setattr(graph_module, "_BUCKET_CELLS", bucket_cells)
        assert any(sum(g.n == 8 for g in graphs[i : i + 7]) > 1 for i in range(0, 41, 7))
    cfg = TrainConfig(k=16, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4,
                      lr_gcn=2e-3, lr_codebook=1e-2, batch_size=batch_size)
    assert _artifacts(_train_blocks, iter(graphs), cfg, tmp_path / "blocked") == _artifacts(
        oracle.train, graphs, cfg, tmp_path / "per_graph"
    )


def test_minibatch_blocks_split_only_between_node_counts(monkeypatch):
    """A minibatch walks its graphs by node count, so its blocks of TRAIN_BLOCK
    split into stacks only where the node count changes: at most
    ceil(len(batch) / TRAIN_BLOCK) + (distinct node counts) - 1 backward calls."""
    import sogtok.train as train_module

    minibatches, backward, step = train_module._minibatches, train_module.backward, train_module.Adam.step
    batches, calls = [], [0]  # the minibatches drawn; backward calls before each Adam step

    def recorded_minibatches(*args):
        drawn = minibatches(*args)
        batches.extend(drawn)
        return drawn

    def counted_backward(*args):
        calls[-1] += 1
        return backward(*args)

    def step_then_count(self, *args):
        calls.append(0)
        return step(self, *args)

    monkeypatch.setattr(train_module, "_minibatches", recorded_minibatches)
    monkeypatch.setattr(train_module, "backward", counted_backward)
    monkeypatch.setattr(train_module.Adam, "step", step_then_count)
    graphs = _mixed_sizes(41, seed=0)
    train(graph_blocks(graphs), TrainConfig(k=16, warmup_epochs=1, joint_epochs=1, seed=5, d_s=16, d=8, d_r=4,
                              batch_size=32))
    assert [len(b) for b in batches] == [32, 9, 32, 9]
    assert calls[-1] == 0  # the closing evaluation differentiates nothing
    for batch, made in zip(batches, calls):
        sizes = {graphs[i].n for i in batch}
        assert made <= math.ceil(len(batch) / train_module.TRAIN_BLOCK) + len(sizes) - 1


@pytest.mark.parametrize("batch_size", [None, 32])
def test_full_batch_epoch_walks_the_graphs_once(monkeypatch, batch_size):
    """A full-batch update pass walks evaluation's blocks at the same
    parameters and logs the epoch from its own forward states: n graphs go
    through forward() per epoch, plus n for the closing evaluation. Minibatch
    epochs evaluate first, so they take 2n."""
    import sogtok.train as train_module

    forward, passed = train_module.forward, [0]

    def counted_forward(a_target, *args, **kwargs):
        passed[0] += len(a_target)  # a stack of graphs
        return forward(a_target, *args, **kwargs)

    monkeypatch.setattr(train_module, "forward", counted_forward)
    graphs = _mixed_sizes(41, seed=0)
    train(graph_blocks(graphs), TrainConfig(k=8, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4,
                              lr_gcn=2e-3, lr_codebook=1e-2, batch_size=batch_size))
    n = len(graphs)
    assert passed[0] == 5 * (n if batch_size is None else 2 * n) + n


def test_each_phase_steps_one_parameter_buffer(monkeypatch):
    """A phase's parameters are views of one float64 buffer, and each
    minibatch makes one Adam step on all of it: W1, W2 and Wd in warm-up, and
    the codebook's entries too in the joint phase."""
    import sogtok.train as train_module

    step, stepped = train_module.Adam.step, []

    def recorded_step(self, p, g):
        stepped.append((p, g))
        return step(self, p, g)

    monkeypatch.setattr(train_module.Adam, "step", recorded_step)
    cfg = TrainConfig(k=16, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4, batch_size=32)
    model, _ = train(graph_blocks(_mixed_sizes(41, seed=0)), cfg)
    assert len(stepped) == (2 + 3) * 2  # two minibatches of 41 graphs per epoch
    warm, joint = stepped[0][0], stepped[-1][0]
    dense = 16 * 16 + 16 * 8 + 8 * 4
    assert warm.shape == (dense,) and joint.shape == (dense + 16 * 8,)
    assert all(p is warm for p, _ in stepped[:4]) and all(p is joint for p, _ in stepped[4:])
    assert all(g.shape == p.shape for p, g in stepped)
    for param in (model.enc.w1, model.enc.w2, model.dec.wd, model.codebook.entries):
        assert param.base is joint


def test_declared_order_walk_views_its_buckets():
    """A walk over every graph takes each stack's positions and anorm as
    views of its bucket's; a stack of slots with a gap gathers copies of the
    same rows."""
    from sogtok.train import _walk, prepare_graphs

    table, buckets = prepare_graphs(graph_blocks(_mixed_sizes(41, seed=0)), ImportanceStrategy(),
                                    HashingEmbedder(dim=16))
    starts = np.cumsum([0] + [len(b.positions) for b in buckets])
    bucket_of = {int(p): b for b in buckets for p in b.positions}
    stacks = [stack for block in _walk(table, buckets) for stack in block]
    assert sum(len(at) for at, _, _ in stacks) == 41
    for at, anorm, x in stacks:
        bucket = bucket_of[int(at[0])]
        assert np.shares_memory(anorm, bucket.anorm) and np.shares_memory(at, bucket.positions)
    every_other = np.arange(0, starts[-1], 2)
    for at, anorm, x in (stack for block in _walk(table, buckets, every_other) for stack in block):
        bucket = bucket_of[int(at[0])]
        slots = np.flatnonzero(np.isin(bucket.positions, at))
        assert np.array_equal(anorm, bucket.anorm[slots]) and np.array_equal(x, table[bucket.x_index[slots]])
        assert len(at) == 1 or not np.shares_memory(anorm, bucket.anorm)


def test_prepared_buckets_hold_anorm_and_row_indices_only(monkeypatch, tmp_path):
    """Training holds, per graph of a streamed set, its position, anorm and
    the table rows of its x: no second copy of its adjacency."""
    from dataclasses import fields

    import sogtok.ingest as ingest
    from sogtok.train import prepare_graphs

    monkeypatch.setattr(ingest, "READ_BLOCK", 7)
    ingest.write_graph_file(_mixed_sizes(41, seed=0), tmp_path / "g.jsonl")
    blocks = ingest.iter_graph_file((tmp_path / "g.jsonl").read_bytes())
    _, buckets = prepare_graphs(blocks, ImportanceStrategy(), HashingEmbedder(dim=16))
    assert sorted(np.concatenate([b.positions for b in buckets]).tolist()) == list(range(41))
    for bucket in buckets:
        assert [f.name for f in fields(bucket)] == ["positions", "anorm", "x_index"]
        b, m, _ = bucket.anorm.shape
        assert bucket.anorm.dtype == np.float64 and bucket.x_index.shape == (b, m)
        assert sum(getattr(bucket, f.name).nbytes for f in fields(bucket)) == 8 * b * (1 + m * m + m)


def _epoch_memory(graphs, cfg) -> int:
    """Peak traced bytes that training allocates beyond its prepared inputs."""
    import tracemalloc

    import sogtok.train as train_module

    prepare = train_module.prepare_graphs
    after_prepare = []

    def prepare_then_mark(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        tracemalloc.reset_peak()
        after_prepare.append(tracemalloc.get_traced_memory()[0])
        return prepared

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_module, "prepare_graphs", prepare_then_mark)
        tracemalloc.start()
        try:
            train(graph_blocks(graphs), cfg)
            return tracemalloc.get_traced_memory()[1] - after_prepare[0]
        finally:
            tracemalloc.stop()


def test_training_epoch_memory_is_bounded_by_a_block():
    """An epoch (evaluation, an update pass, evaluation) allocates per block:
    four times the graphs add a few index entries per graph (the minibatch
    order), never an array over the graphs' latent rows, which would take
    (nodes + 1) x d x 8 bytes per graph."""
    cfg = TrainConfig(k=16, warmup_epochs=0, joint_epochs=1, seed=2, d_s=16, d=16, d_r=4, batch_size=100)
    small, large = _mixed_sizes(400, seed=1), _mixed_sizes(1600, seed=1)
    growth = _epoch_memory(large, cfg) - _epoch_memory(small, cfg)
    latent_row_bytes = cfg.d * 8 * sum(g.n + 1 for g in large[len(small):])
    assert growth < latent_row_bytes / 10


@pytest.mark.parametrize("include_global, take", [(True, slice(None)), (True, GLOBAL_ROW),
                                                  (False, CENTER_ROW)])
def test_encoded_blocks_rows_equal_per_graph_encode(tiny_model, monkeypatch, include_global, take):
    """Stacked encode calls yield the bytes of encoding every graph alone,
    across block boundaries and with buckets split into several stacks."""
    import sogtok.ingest as ingest
    import sogtok.train as train_module
    from sogtok.model import encode

    model, _, _ = tiny_model
    monkeypatch.setattr(ingest, "READ_BLOCK", 7)
    monkeypatch.setattr(train_module, "TRAIN_BLOCK", 2)
    graphs = _mixed_sizes(23, seed=4)
    embedder = HashingEmbedder(dim=model.d_s)
    blocks = list(encoded_blocks(graph_blocks(graphs), model, lambda b: (b.rows, b.tokens), embedder,
                                 include_global, take))
    got = np.vstack([rows for rows, _ in blocks])
    want = np.vstack([
        encode(*oracle.prepare_graph(g, model.strategy, embedder, include_global)[1:], model.enc)[0][take]
        for g in graphs
    ])
    assert got.tobytes() == want.tobytes()
    # each row's token is its nearest entry, the lowest index on ties
    tokens = [t for _, block_tokens in blocks for t in block_tokens]
    assert tokens == [_brute_force_nearest(row, model.codebook.entries) for row in want]
