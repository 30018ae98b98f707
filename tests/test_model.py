import json
import struct
import tracemalloc

import numpy as np
import pytest

from sogtok.errors import CheckpointError, DimensionMismatch, ValidationError
from sogtok.attributes import ImportanceStrategy
from sogtok.model import (
    CHECKPOINT_MAGIC,
    Adam,
    Codebook,
    DecoderParams,
    EncoderParams,
    TokenizerModel,
    backward,
    compute_loss,
    decode_and_reconstruct,
    encode,
    forward,
    init_params,
    load_checkpoint,
    nearest,
    normalized_adjacency,
    quantize,
    save_checkpoint,
)
from sogtok import train
from sogtok.train import kmeans

import oracle


def random_symmetric_adjacency(n, rng, p=0.4):
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def test_normalized_adjacency_single():
    assert normalized_adjacency(np.zeros((1, 1))).tolist() == [[1.0]]


def test_normalized_adjacency_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalized_adjacency(a), 0.5)


def test_normalized_adjacency_disconnected():
    assert np.array_equal(normalized_adjacency(np.zeros((2, 2))), np.eye(2))


def test_encode_zero_features():
    rng = np.random.default_rng(0)
    enc, _ = init_params(4, 4, 3, 2, rng)
    a = random_symmetric_adjacency(5, rng)
    h, _ = encode(normalized_adjacency(a), np.zeros((5, 4)), enc)
    assert np.array_equal(h, np.zeros((5, 3)))


def test_encode_identity_weights_single_node():
    enc = EncoderParams(w1=np.eye(3), w2=np.eye(3))
    x = np.array([[-1.0, 0.5, 2.0]])
    h, _ = encode(np.array([[1.0]]), x, enc)
    assert np.array_equal(h, np.maximum(x, 0.0))


def test_encode_output_layer_linear():
    rng = np.random.default_rng(1)
    enc, _ = init_params(4, 4, 3, 2, rng)
    a = normalized_adjacency(random_symmetric_adjacency(5, rng))
    x = rng.normal(size=(5, 4))
    h1, _ = encode(a, x, enc)
    h2, _ = encode(a, x, EncoderParams(w1=enc.w1, w2=2.0 * enc.w2))
    assert np.allclose(h2, 2.0 * h1)


def test_encode_dimension_mismatch():
    rng = np.random.default_rng(2)
    enc, _ = init_params(4, 4, 3, 2, rng)
    with pytest.raises(DimensionMismatch):
        encode(np.eye(2), np.zeros((2, 5)), enc)


def test_quantize_simple_cases():
    cb = Codebook(entries=np.array([[1.0, 0.0], [0.0, 2.0]]))
    sel = quantize(np.array([[0.0, 0.0]]), cb)
    assert sel.indices.tolist() == [0]
    sel = quantize(np.array([[0.0, 2.0]]), cb)
    assert sel.indices.tolist() == [1]
    assert np.array_equal(sel.quantized[0], cb.entries[1])


def test_quantize_tie_lowest_index():
    cb = Codebook(entries=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    sel = quantize(np.array([[0.0, 0.0]]), cb)
    assert sel.indices.tolist() == [0]


def _brute_force_nearest(rows, entries):
    """Python loop over every (row, entry) pair; the lowest index wins ties."""
    out = []
    for row in rows.tolist():
        dists = [sum((r - c) ** 2 for r, c in zip(row, entry)) for entry in entries.tolist()]
        out.append(min(range(len(dists)), key=lambda j: (dists[j], j)))
    return out


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_nearest_matches_brute_force_with_ties(chunk):
    # half-integer coordinates keep every distance exact, so ties are real
    rng = np.random.default_rng(41)
    entries = rng.integers(-3, 4, size=(12, 5)).astype(float)
    entries[7] = entries[2]  # duplicate entry: index 2 must win
    entries[11] = entries[4]
    pairs = [(0, 1), (2, 5), (3, 9), (6, 10)]
    midpoints = np.array([(entries[a] + entries[b]) / 2.0 for a, b in pairs])
    rows = np.vstack(
        [rng.integers(-3, 4, size=(60, 5)).astype(float), entries, midpoints]
    )
    expected = _brute_force_nearest(rows, entries)
    assert nearest(rows, entries, chunk=chunk).tolist() == expected
    assert 7 not in expected and 11 not in expected
    # each duplicated entry's own row maps to the first copy
    assert expected[60 + 7] == 2 and expected[60 + 11] == 4


def test_nearest_equidistant_row_lowest_index():
    entries = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
    assert nearest(np.zeros((3, 2)), entries).tolist() == [0, 0, 0]
    assert nearest(np.array([[0.5, 0.5]]), entries).tolist() == [0]


def _broadcast_nearest(rows, entries, chunk=64):
    """The search before the product form, copied as it was: the broadcast
    squared distance in row chunks, then argmin."""
    indices = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], chunk):
        block = rows[start : start + chunk]
        d2 = ((block[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
        indices[start : start + chunk] = d2.argmin(axis=1)
    return indices


def _nearest_cases():
    """(name, rows, entries): ties, near-ties and extreme values, where a
    product-form ranking alone could pick another index than the broadcast."""
    rng = np.random.default_rng(44)
    cases = []
    base = rng.normal(size=(12, 6))
    dup = base.copy()
    dup[5] = dup[1]
    dup[9] = dup[1]
    cases.append(("duplicates", np.vstack([dup, rng.normal(size=(40, 6))]), dup))
    ulp = base.copy()
    ulp[3] = np.nextafter(ulp[2], np.inf)
    ulp[7] = np.nextafter(ulp[2], -np.inf)
    near = ulp[2] + rng.normal(size=(30, 6)) * 1e-14
    cases.append(("one_ulp", np.vstack([ulp, near, (ulp[2] + ulp[3]) / 2]), ulp))
    offset = base + 1e6
    cases.append(("offset_1e6", np.vstack([offset, offset + rng.normal(size=(12, 6)) * 1e-9,
                                           1e6 + rng.normal(size=(40, 6))]), offset))
    line = np.arange(8.0)[:, None]
    cases.append(("d1", np.vstack([line, line + 0.5, rng.normal(size=(20, 1)) * 4]), line))
    pair = np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, 2.0]])
    cases.append(("k2", np.vstack([np.zeros((3, 3)), pair, rng.normal(size=(20, 3))]), pair))
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 2.0]])
    cases.append(("zero_rows", np.zeros((5, 2)), ring))
    bad = np.array([[np.nan, 0.0], [np.inf, 1.0], [-np.inf, np.inf], [1.0, np.nan],
                    [1e200, -1e200], [1e-170, 0.0], [0.0, 0.0], [0.3, 0.4]])
    cases.append(("non_finite", bad, np.vstack([ring, [[2e-170, 0.0], [1e154, 1e154]]])))
    # the broadcast distance to entry 1 rounds to inf, the product form's to
    # the largest float: the broadcast argmin is 0, among two infs
    edge = np.array([[9.783080080769208e153]])
    cases.append(("overflow", edge, np.array([[-9e153], [-3.624727849173388e153]])))
    # both broadcast distances underflow to 0; the product form gives -5e-324
    # for entry 1, a gap no relative rounding bound covers
    tiny = np.array([[1.4234158750959632e-160]])
    cases.append(("underflow", tiny, np.array([[1.4324904018341964e-160],
                                               [1.4368186746734478e-160]])))
    big = rng.normal(size=(300, 8))
    cases.append(("random", big, np.vstack([big[:40], big[:40] + 1e-15])))
    # many columns tie or near-tie with each row's best: the 16 signed unit
    # steps around an integer centre (exact ties at distance 1), the same
    # around a random centre (ties up to rounding) and each of those 1 ulp
    # further out, among far columns
    star = np.vstack([np.eye(8), -np.eye(8)])
    centre = rng.normal(size=8)
    ring = centre + star
    far = 10 + rng.normal(size=(20, 8))
    entries = np.vstack([far[:10], 3.0 + star, ring, np.nextafter(ring, np.inf), far[10:]])
    rows = np.vstack([np.full((1, 8), 3.0), centre, centre + rng.normal(size=(30, 8)) * 1e-13,
                      (ring[:8] + ring[8:]) / 2, ring])
    cases.append(("many_ties", rows, entries))
    # rows 1e4 to 1e8 away from a small codebook: the ranked values leave
    # ‖b‖² out, but the rounding bound must not. Four entries lie within 1e-6
    # of others, and entry 5 is entry 4 one ulp out, the nearest entry of the
    # rows along e0, where the broadcast distances round to a tie
    small = rng.normal(size=(16, 8))
    small[12:] = small[:4] + rng.normal(size=(4, 8)) * 1e-6
    small[4] = 6.0 * np.eye(8)[0]
    small[5] = np.nextafter(small[4], np.inf)
    direction = rng.normal(size=(40, 8))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    far_rows = direction * np.logspace(4, 8, 40)[:, None]
    along = np.eye(8)[:1] * np.logspace(4, 8, 20)[:, None] + rng.normal(size=(20, 8))
    cases.append(("far_rows", np.vstack([far_rows, far_rows + small[:1], along]), small))
    # a near-collapsed K = 256, d = 64 codebook, like a reference model after
    # training: its entries lie within 1e-9 of four centres, and the rows are
    # those centres, entries, midpoints and points nearby
    centres = rng.normal(size=(4, 64))
    collapsed = centres[rng.integers(0, 4, size=256)] + rng.uniform(-1e-9, 1e-9, size=(256, 64))
    nearby = centres[rng.integers(0, 4, size=60)] + rng.normal(size=(60, 64)) * 1e-10
    collapsed_rows = np.vstack([centres, collapsed[:40], (collapsed[:20] + collapsed[20:40]) / 2,
                                nearby, rng.normal(size=(20, 64))])
    cases.append(("collapsed_k256", collapsed_rows, collapsed))
    return cases


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite rows warn in both searches
@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("case", _nearest_cases(), ids=lambda c: c[0])
def test_nearest_equals_broadcast_expression(case, chunk):
    _, rows, entries = case
    got = nearest(rows, entries) if chunk is None else nearest(rows, entries, chunk=chunk)
    assert got.tolist() == _broadcast_nearest(rows, entries).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite rows warn in both searches
def test_nearest_equals_broadcast_on_random_ties():
    """Rows and entries drawn from a few small-integer points, so that most
    rows tie or near-tie; some rows copy entries one ulp away, and some hold
    NaN, inf or 1e200. The searches agree in every case."""
    rng = np.random.default_rng(45)
    for case in range(120):
        d = (1, 2, 5, 16)[case % 4]
        points = rng.integers(-2, 3, size=(6, d)).astype(float)
        entries = points[rng.integers(0, 6, size=int(rng.integers(2, 24)))]
        rows = points[rng.integers(0, 6, size=int(rng.integers(1, 40)))]
        rows[::5] = np.nextafter(rows[::5], np.inf)
        if case % 3 == 0:
            rows[rng.integers(0, len(rows))] = rng.choice([np.nan, np.inf, 1e200], size=d)
        chunk = int(rng.integers(1, 9))
        assert nearest(rows, entries, chunk=chunk).tolist() == _broadcast_nearest(rows, entries).tolist()


def test_kmeans_matches_one_shot_search():
    """Chunked search and sorted cluster members give the same centers, bit
    for bit, as searching all rows in one broadcast and masking each cluster.
    At d = 1 NumPy sums an (n, 1) column pairwise, so only the same rows in
    the same order give the same mean."""

    def one_shot(rows, k, rng, iters=20):
        centers = rows[rng.choice(len(rows), size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            for j in range(k):
                if (assign == j).any():
                    centers[j] = rows[assign == j].mean(axis=0)
        return centers

    for d in (8, 1):
        rows = np.random.default_rng(8).normal(size=(300, d))
        got = kmeans(rows, 16, np.random.default_rng(4))
        assert got.tobytes() == one_shot(rows, 16, np.random.default_rng(4)).tobytes(), d


def _kmeans_cases():
    """(name, rows, k, seed, iters)."""
    rng = np.random.default_rng(12)
    blobs = (rng.normal(size=(6, 4)) * 20)[np.arange(240) % 6] + rng.normal(size=(240, 4))
    # integer powers with repeated values: rows that tie between a center and
    # its copy move clusters, and cluster 1's six members all leave it
    repeats = np.array([[3.0], [6], [3], [11], [11], [3], [9], [11], [3], [7], [0]]) ** 1.5
    return [
        ("converges", blobs, 6, 5, 20),
        ("cut_by_iters", rng.normal(size=(300, 8)), 16, 4, 2),
        ("fewer_rows_than_k", rng.normal(size=(5, 3)), 8, 6, 20),
        ("cluster_empties", repeats, 6, 463, 20),
    ]


@pytest.mark.parametrize("case", _kmeans_cases(), ids=lambda c: c[0])
def test_kmeans_stop_matches_all_iterations(case, monkeypatch):
    """Stopping at the first repeated assignment gives the bytes, and leaves
    rng in the state, of running every iteration."""
    name, rows, k, seed, iters = case
    counts = []

    def counted(rows, centers):
        assign = nearest(rows, centers)
        counts.append(np.bincount(assign, minlength=len(centers)))
        return assign

    monkeypatch.setattr(train, "nearest", counted)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = kmeans(rows, k, rng, iters=iters)
    assert got.tobytes() == oracle.kmeans(rows, k, oracle_rng, iters=iters).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if name == "converges":
        assert len(counts) < iters
    elif name == "cut_by_iters":
        assert len(counts) == iters
        assert got.tobytes() != oracle.kmeans(rows, k, np.random.default_rng(seed)).tobytes()
    elif name == "fewer_rows_than_k":
        assert len(rows) < k and len(counts) < iters
    else:
        assert len(counts) < iters
        assert any(before[j] > 0 and after[j] == 0
                   for before, after in zip(counts, counts[1:]) for j in range(k))


def test_kmeans_memory_bounded():
    # one rows x K x d float64 array here would take 500 MB
    rows = np.random.default_rng(9).normal(size=(4000, 64))
    tracemalloc.start()
    try:
        kmeans(rows, 256, np.random.default_rng(0), iters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_quantize_matches_exhaustive_scan():
    rng = np.random.default_rng(3)
    cb = Codebook(entries=rng.normal(size=(8, 4)))
    h = rng.normal(size=(50, 4))
    sel = quantize(h, cb)
    for i in range(50):
        dists = [np.sum((h[i] - cb.entries[j]) ** 2) for j in range(8)]
        best = min(range(8), key=lambda j: (dists[j], j))
        assert sel.indices[i] == best
        assert np.array_equal(sel.quantized[i], cb.entries[best])


def test_decode_identity_example():
    dec = DecoderParams(wd=np.eye(2))
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    xhat, arec = decode_and_reconstruct(q, dec)
    assert np.array_equal(arec, np.eye(2))


def test_decode_zero():
    dec = DecoderParams(wd=np.eye(2))
    _, arec = decode_and_reconstruct(np.zeros((3, 2)), dec)
    assert np.array_equal(arec, np.zeros((3, 3)))


def test_reconstruction_symmetric():
    rng = np.random.default_rng(4)
    dec = DecoderParams(wd=rng.normal(size=(3, 5)))
    _, arec = decode_and_reconstruct(rng.normal(size=(6, 3)), dec)
    assert np.array_equal(arec, arec.T)


def test_loss_values():
    cb = Codebook(entries=np.array([[0.0, 0.0], [5.0, 5.0]]))
    h = np.array([[1.0, 0.0]])
    sel = quantize(h, cb)
    a = np.array([[0.0]])
    loss = compute_loss(a, np.array([[0.0]]), h, sel, beta=0.5)
    assert loss.update == pytest.approx(1.0)
    assert loss.commitment == pytest.approx(1.0)
    assert loss.reconstruction == 0.0
    assert loss.total == pytest.approx(1.0 + 0.5)


def test_loss_reconstruction_example():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    arec = np.eye(2)
    cb = Codebook(entries=np.zeros((2, 2)) + [[0.0, 0.0], [9.0, 9.0]])
    h = np.zeros((2, 2))
    sel = quantize(h, cb)
    loss = compute_loss(a, arec, h, sel, beta=0.25)
    assert loss.reconstruction == pytest.approx(4.0)


def test_loss_total_identity():
    rng = np.random.default_rng(5)
    cb = Codebook(entries=rng.normal(size=(4, 3)))
    h = rng.normal(size=(6, 3))
    sel = quantize(h, cb)
    a = random_symmetric_adjacency(6, rng)
    _, arec = decode_and_reconstruct(sel.quantized, DecoderParams(wd=rng.normal(size=(3, 4))))
    loss = compute_loss(a, arec, h, sel, beta=0.25)
    lhs = loss.total
    rhs = loss.reconstruction + loss.update + loss.beta * loss.commitment
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _gradient_instance(seed, n=6, d_s=8, d_h=8, d=4, d_r=4, k=4, beta=0.25, stack=None):
    """Instance with safe margins at the relu kink and codebook boundaries:
    one graph, or a stack of `stack` graphs with n nodes each."""
    rng = np.random.default_rng(seed)
    if stack is None:
        a = random_symmetric_adjacency(n, rng)
        x = rng.normal(size=(n, d_s))
    else:
        a = np.stack([random_symmetric_adjacency(n, rng) for _ in range(stack)])
        x = rng.normal(size=(stack, n, d_s))
    enc, dec = init_params(d_s, d_h, d, d_r, rng)
    cb = Codebook(entries=rng.normal(size=(k, d)))
    state = forward(a, normalized_adjacency(a), x, enc, dec, cb, beta)
    if np.abs(state.z1).min() < 1e-3:
        return None
    return a, x, enc, dec, cb, state


def _max_rel_error(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
    return float((np.abs(analytic - fd) / denom).max())


def _assert_slices_match_single_graphs(a, x, enc, dec, cb, state, grads):
    """Each slice of a stacked pass has the bytes of the pass on its graph alone."""
    for i in range(len(a)):
        one = forward(a[i], normalized_adjacency(a[i]), x[i], enc, dec, cb, state.loss.beta)
        mine = (state.h[i], state.sel.indices[i], state.a_rec[i], state.loss.total[i])
        for got, want in zip(mine, (one.h, one.sel.indices, one.a_rec, one.loss.total)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        single = backward(one, enc, dec)
        for name, got, want in (
            *((name, getattr(grads, name)[i], getattr(single, name)) for name in ("w1", "w2", "wd")),
            ("codebook", oracle.codebook_gradient(grads, cb.k)[i], oracle.codebook_gradient(single, cb.k)),
        ):
            assert got.tobytes() == want.tobytes(), name


def finite_difference_check(seed, beta=0.25, eps=1e-5, stack=None):
    """Central differences of the stop-gradient-respecting objective.

    The quantization indices, the quantized values feeding terms marked as
    constants, and the straight-through offset are frozen at the base
    point, which is exactly the function the analytic backward pass
    differentiates. With stack=b, the instance is a stack of b graphs: the
    objective is the sum over the stack, checked against the sum of the
    stacked gradients, and each slice of the stacked pass must equal the
    pass on its graph alone, bit for bit.
    """
    instance = _gradient_instance(seed, beta=beta, stack=stack)
    if instance is None:
        return None
    a, x, enc, dec, cb, state = instance
    grads = backward(state, enc, dec)
    if stack is not None:
        _assert_slices_match_single_graphs(a, x, enc, dec, cb, state, grads)
    h0 = state.h.copy()
    idx0 = state.sel.indices.copy()
    q0 = state.sel.quantized.copy()
    offset = q0 - h0
    anorm = state.anorm

    def objective():
        z1 = anorm @ x @ enc.w1
        h = anorm @ np.maximum(z1, 0.0) @ enc.w2
        xhat = (h + offset) @ dec.wd
        recon = ((a - xhat @ np.swapaxes(xhat, -1, -2)) ** 2).sum()
        update = ((h0 - cb.entries[idx0]) ** 2).sum()
        commit = ((h - q0) ** 2).sum()
        return recon + update + beta * commit

    def total(grad):
        return grad if stack is None else grad.sum(axis=0)

    worst = 0.0
    for param, grad in (
        (enc.w1, total(grads.w1)),
        (enc.w2, total(grads.w2)),
        (dec.wd, total(grads.wd)),
        (cb.entries, total(oracle.codebook_gradient(grads, cb.k))),
    ):
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = param[i]
            param[i] = orig + eps
            up = objective()
            param[i] = orig - eps
            down = objective()
            param[i] = orig
            fd[i] = (up - down) / (2 * eps)
            it.iternext()
        worst = max(worst, _max_rel_error(grad, fd))
    return worst


def test_backward_matches_finite_differences():
    errors = []
    seed = 0
    while len(errors) < 5:
        err = finite_difference_check(seed)
        seed += 1
        if err is not None:
            errors.append(err)
    assert max(errors) < 1e-4


def test_stacked_backward_matches_finite_differences_and_single_graphs():
    errors = []
    seed = 0
    while len(errors) < 5:
        err = finite_difference_check(seed, stack=3 + seed % 3)
        seed += 1
        if err is not None:
            errors.append(err)
    assert max(errors) < 1e-4


def test_stacked_warmup_backward_matches_single_graphs():
    rng = np.random.default_rng(19)
    a = np.stack([random_symmetric_adjacency(5, rng) for _ in range(4)])
    x = rng.normal(size=(4, 5, 6))
    enc, dec = init_params(6, 6, 4, 3, rng)
    state = forward(a, normalized_adjacency(a), x, enc, dec, None, 0.25)
    grads = backward(state, enc, dec)
    assert oracle.codebook_gradient(grads, 0) is None
    for i in range(4):
        one = forward(a[i], normalized_adjacency(a[i]), x[i], enc, dec, None, 0.25)
        assert state.loss.reconstruction[i] == one.loss.reconstruction
        single = backward(one, enc, dec)
        for name in ("w1", "w2", "wd"):
            assert getattr(grads, name)[i].tobytes() == getattr(single, name).tobytes()
        # a graph's dense row: its W1, W2 and Wd gradients end to end, as training's buffer lays them out
        assert grads.dense[i].tobytes() == b"".join(getattr(single, name).tobytes() for name in ("w1", "w2", "wd"))


def test_backward_warmup_pure_autoencoder():
    rng = np.random.default_rng(17)
    a = random_symmetric_adjacency(6, rng)
    x = rng.normal(size=(6, 8))
    enc, dec = init_params(8, 8, 4, 3, rng)
    state = forward(a, normalized_adjacency(a), x, enc, dec, None, 0.25)
    assert np.abs(state.z1).min() > 1e-3
    grads = backward(state, enc, dec)
    assert oracle.codebook_gradient(grads, 0) is None
    anorm = state.anorm
    eps = 1e-5

    def objective():
        z1 = anorm @ x @ enc.w1
        h = anorm @ np.maximum(z1, 0.0) @ enc.w2
        xhat = h @ dec.wd
        return ((a - xhat @ xhat.T) ** 2).sum()

    for param, grad in ((enc.w1, grads.w1), (enc.w2, grads.w2), (dec.wd, grads.wd)):
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = param[i]
            param[i] = orig + eps
            up = objective()
            param[i] = orig - eps
            down = objective()
            param[i] = orig
            fd[i] = (up - down) / (2 * eps)
            it.iternext()
        assert _max_rel_error(grad, fd) < 1e-6


def test_zero_loss_zero_gradients():
    # quantized rows decode to an exact reconstruction of an empty graph
    enc = EncoderParams(w1=np.zeros((2, 2)), w2=np.zeros((2, 2)))
    dec = DecoderParams(wd=np.zeros((2, 2)))
    cb = Codebook(entries=np.vstack([np.zeros(2), np.ones(2)]))
    a = np.zeros((3, 3))
    state = forward(a, normalized_adjacency(a), np.zeros((3, 2)), enc, dec, cb, 0.25)
    assert state.loss.total == 0.0
    grads = backward(state, enc, dec)
    assert not grads.w1.any() and not grads.w2.any() and not grads.wd.any()
    assert not oracle.codebook_gradient(grads, cb.k)[1].any()  # unselected entry: empty-sum gradient


def test_unselected_entry_zero_gradient():
    rng = np.random.default_rng(23)
    cb = Codebook(entries=np.vstack([rng.normal(size=(3, 4)), [[99.0] * 4]]))
    a = random_symmetric_adjacency(5, rng)
    x = rng.normal(size=(5, 6))
    enc, dec = init_params(6, 6, 4, 3, rng)
    state = forward(a, normalized_adjacency(a), x, enc, dec, cb, 0.25)
    assert 3 not in state.sel.indices
    grads = backward(state, enc, dec)
    assert not oracle.codebook_gradient(grads, cb.k)[3].any()


def test_adam_first_step_sign():
    adam = Adam(0.1)
    p = np.array([1.0, -1.0, 0.5])
    g = np.array([0.3, -0.2, 0.0])
    adam.step(p, g)
    # bias-corrected first step is ~ -lr * sign(g)
    assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert p[1] == pytest.approx(-1.0 + 0.1, abs=1e-6)
    assert p[2] == 0.5


def test_adam_zero_gradient_identity():
    adam = Adam(0.1)
    p = np.array([2.0, 3.0])
    adam.step(p, np.zeros(2))
    assert np.array_equal(p, [2.0, 3.0])


def test_adam_constant_gradient_monotone():
    adam = Adam(0.05)
    p = np.array([0.0])
    hist = []
    for _ in range(5):
        adam.step(p, np.array([1.0]))
        hist.append(p[0])
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_adam_lr_zero_identity():
    adam = Adam(0.0)
    p = np.array([1.5])
    adam.step(p, np.array([7.0]))
    assert p[0] == 1.5


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    enc, dec = init_params(8, 8, 4, 3, rng)
    model = TokenizerModel(
        enc=enc,
        dec=dec,
        codebook=Codebook(entries=rng.normal(size=(6, 4))),
        beta=0.3,
        strategy=ImportanceStrategy("pagerank", seed=2),
        seed=31,
        manifest={"note": "test"},
    )
    path = tmp_path / "model.sogtok"
    save_checkpoint(model, path)
    assert path.read_bytes()[:7] == b"SOGTOK1"
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.enc.w1, model.enc.w1)
    assert np.array_equal(loaded.enc.w2, model.enc.w2)
    assert np.array_equal(loaded.dec.wd, model.dec.wd)
    assert np.array_equal(loaded.codebook.entries, model.codebook.entries)
    assert loaded.beta == model.beta
    assert loaded.strategy == model.strategy
    assert loaded.manifest == {"note": "test"}
    # byte-identical re-save
    path2 = tmp_path / "model2.sogtok"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_write_failing_partway_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.sogtok"
    old = _small_checkpoint(tmp_path)
    path.write_bytes(old)
    rng = np.random.default_rng(13)
    enc, dec = init_params(3, 3, 3, 3, rng)
    model = TokenizerModel(enc=enc, dec=dec, codebook=Codebook(entries=rng.normal(size=(4, 3))),
                           beta=0.5, strategy=ImportanceStrategy("degree", seed=0), seed=13)
    real = np.ascontiguousarray
    calls = []

    def fail_on_third_array(arr, dtype=None):
        calls.append(1)  # header and two arrays are written by then
        if len(calls) == 3:
            raise OSError("disk full")
        return real(arr, dtype=dtype)

    monkeypatch.setattr(np, "ascontiguousarray", fail_on_third_array)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path)
    assert len(calls) == 3
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sogtok", "small.sogtok"]
    fresh = tmp_path / "fresh.sogtok"
    calls.clear()
    with pytest.raises(OSError):
        save_checkpoint(model, fresh)
    assert not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sogtok", "small.sogtok"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _small_checkpoint(tmp_path) -> bytes:
    rng = np.random.default_rng(12)
    enc, dec = init_params(2, 2, 2, 2, rng)
    model = TokenizerModel(
        enc=enc,
        dec=dec,
        codebook=Codebook(entries=rng.normal(size=(2, 2))),
        beta=0.25,
        strategy=ImportanceStrategy("degree", seed=0),
        seed=12,
    )
    path = tmp_path / "small.sogtok"
    save_checkpoint(model, path)
    return path.read_bytes()


def test_checkpoint_truncated_at_every_offset(tmp_path):
    blob = _small_checkpoint(tmp_path)
    cut = tmp_path / "cut.sogtok"
    for offset in range(len(blob)):
        cut.write_bytes(blob[:offset])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def _split_checkpoint(blob: bytes) -> tuple[dict, bytes]:
    """Header dict and the array payload that follows it."""
    start = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[start : start + 4])
    return json.loads(blob[start + 4 : start + 4 + hlen]), blob[start + 4 + hlen :]


def _with_header(raw: bytes, payload: bytes = b"") -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<I", len(raw)) + raw + payload


def test_checkpoint_unreadable_header(tmp_path):
    _, payload = _split_checkpoint(_small_checkpoint(tmp_path))
    path = tmp_path / "bad.sogtok"
    for raw in (b"\xff\xfe\x00", b"{not json", b"[1, 2]", b"null"):
        path.write_bytes(_with_header(raw, payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "key", ["version", "d_s", "d_h", "d", "d_r", "K", "beta", "strategy", "seed"]
)
def test_checkpoint_missing_header_key(tmp_path, key):
    header, payload = _split_checkpoint(_small_checkpoint(tmp_path))
    del header[key]
    path = tmp_path / "missing.sogtok"
    path.write_bytes(_with_header(json.dumps(header).encode(), payload))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_header_values(tmp_path):
    header, payload = _split_checkpoint(_small_checkpoint(tmp_path))
    path = tmp_path / "values.sogtok"
    for key, value in (("K", -1), ("d", "2"), ("strategy", {"kind": "degree"})):
        path.write_bytes(_with_header(json.dumps({**header, key: value}).encode(), payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_codebook_validation():
    with pytest.raises(ValidationError):
        Codebook(entries=np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Codebook(entries=np.array([[np.nan, 0.0], [0.0, 1.0]]))
