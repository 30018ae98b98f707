import numpy as np
import pytest

from sogtok.attributes import HashingEmbedder, ImportanceStrategy
from sogtok.errors import EmptyDataset, ValidationError
from sogtok.graph import permute
from sogtok.model import load_checkpoint, save_checkpoint
from sogtok.synthetic import (
    cycle_graph,
    family_dataset,
    random_connected_graph,
    star_graph,
    strict_ranking_graphs,
)
from sogtok.train import (
    StructuralToken,
    TokenAssignment,
    TrainConfig,
    assign_node_tokens,
    assign_token,
    format_token_table,
    format_training_log,
    graph_embedding,
    graph_token,
    parse_token,
    train,
)

from conftest import make_graph

SMALL = dict(k=4, warmup_epochs=2, joint_epochs=3, seed=5, d_s=16, d=8, d_r=4)


@pytest.fixture(scope="module")
def tiny_model():
    graphs = [cycle_graph(n, f"c{n}") for n in (4, 5, 6)] + [
        star_graph(n, f"s{n}") for n in (4, 5, 6)
    ]
    model, logs = train(graphs, TrainConfig(**SMALL))
    return model, logs, graphs


def test_token_surface_roundtrip():
    tok = StructuralToken(157)
    assert tok.surface == "<SOG_157>"
    assert parse_token("<SOG_157>") == tok
    with pytest.raises(ValidationError):
        parse_token("<SOG_x>")


def test_train_rejects_empty():
    with pytest.raises(EmptyDataset):
        train([], TrainConfig(**SMALL))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_aborts_with_nonfinite_loss():
    from sogtok.errors import NonFiniteLoss

    graphs = [cycle_graph(5, "c5"), star_graph(5, "s5")]
    cfg = TrainConfig(
        k=4, warmup_epochs=6, joint_epochs=0, seed=1, lr_warmup=1e150, d_s=16, d=8, d_r=4
    )
    with pytest.raises(NonFiniteLoss) as err:
        train(graphs, cfg)
    assert err.value.epoch >= 1


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
    m1, logs1 = train(graphs, cfg)
    m2, _ = train(graphs, cfg)
    assert np.array_equal(m1.enc.w1, m2.enc.w1)
    assert np.array_equal(m1.codebook.entries, m2.codebook.entries)
    assert len(logs1) == 1  # closing evaluation row only


def test_codebook_untouched_during_warmup(tmp_path):
    graphs = [cycle_graph(5, "c5"), star_graph(5, "s5")]
    cfg = TrainConfig(k=4, warmup_epochs=3, joint_epochs=0, seed=9, d_s=16, d=8, d_r=4)
    out = tmp_path / "ck"
    out.mkdir()
    train(graphs, cfg, checkpoint_dir=str(out))
    first = load_checkpoint(out / "ckpt_epoch_000.sogtok")
    last = load_checkpoint(out / "ckpt_epoch_002.sogtok")
    assert np.array_equal(first.codebook.entries, last.codebook.entries)
    assert not np.array_equal(first.enc.w1, last.enc.w1)


def test_training_is_bit_reproducible(tmp_path):
    graphs = family_dataset(per_family=4, seed=3)
    cfg = TrainConfig(k=4, warmup_epochs=2, joint_epochs=2, seed=11, d_s=16, d=8, d_r=4)
    m1, logs1 = train(graphs, cfg)
    m2, logs2 = train(graphs, cfg)
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
    assert 0 <= a1.graph_token.index < model.k
    assert len(a1.node_tokens) == graphs[0].n


def test_assign_token_internal_consistency(tiny_model):
    model, _, graphs = tiny_model
    from sogtok.model import quantize
    from sogtok.train import graph_embedding

    g = graphs[2]
    h = graph_embedding(g, model)
    sel = quantize(h, model.codebook)
    assert assign_token(g, model).graph_token.index == int(sel.indices[-1])


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
    token = graph_token(h, model.codebook)
    assignment = assign_token(g, model)
    assert token == assignment.graph_token
    assert token.index == _brute_force_nearest(h[-1], model.codebook.entries)
    assert [t.index for t in assignment.node_tokens] == [
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
    assert 0 <= a1.graph_token.index < model.k


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
    assert 0 <= tok.index < model.k


def test_node_token_ego_covers_star(tiny_model):
    model, _, _ = tiny_model
    star = star_graph(6, "star6")
    tok_leaf = assign_node_tokens(star, 3, model, hops=2)
    assert 0 <= tok_leaf.index < model.k


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
                graph_token=StructuralToken(157),
                node_tokens=(StructuralToken(1), StructuralToken(2)),
            )
        ]
    )
    assert "<SOG_157>" in row and "1,2" in row
