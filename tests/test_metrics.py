import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sogtok.errors import DegenerateLabels, LengthMismatch, ValidationError
from sogtok.metrics import (
    NEGATIVE_DEFAULT,
    POSITIVE_DEFAULT,
    UNKNOWN_CLASS,
    accuracy_and_f1,
    auc_roc,
    codebook_correlation,
    export_embeddings,
    format_csv_matrix,
    parse_answer,
    scaffold_consistency,
    score_from_parse,
)
from sogtok.model import Codebook


def test_parse_negative_precedence():
    assert parse_answer("The molecule is not approved.").value == "Negative"
    assert parse_answer("Not approved, though it looks active.").value == "Negative"
    assert parse_answer("Yes... but actually no.").value == "Negative"


def test_parse_positive():
    assert parse_answer("True").value == "Positive"
    assert parse_answer("2. False").value == "Negative"
    assert parse_answer("the molecule is ACTIVE").value == "Positive"


def test_parse_unknown():
    parsed = parse_answer("I cannot determine this.")
    assert parsed.value == "Unknown" and parsed.matched is None


def test_parse_word_boundaries():
    # "no" must not fire inside "cannot"/"node"/"known"
    assert parse_answer("the node is known, cannot say").value == "Unknown"
    assert parse_answer("no").value == "Negative"
    assert parse_answer("No.").value == "Negative"


def test_parse_adversarial_suite():
    cases = [
        ("approved and active", "Positive"),
        ("not approved", "Negative"),
        ("this is FALSE even though true appears", "Negative"),
        ("inactive although active-looking", "Negative"),
        ("rejected; yes rejected", "Negative"),
        ("yes", "Positive"),
        ("maybe", "Unknown"),
    ]
    for text, expected in cases:
        assert parse_answer(text).value == expected, text


def test_parse_custom_sets():
    parsed = parse_answer("verdict: harmless", ("harmless",), ("harmful",))
    assert parsed.value == "Positive" and parsed.matched == "harmless"
    with pytest.raises(ValidationError):
        parse_answer("x", (), ("no",))


def test_score_convention():
    assert score_from_parse(parse_answer("true")) == 1.0
    assert score_from_parse(parse_answer("false")) == 0.0
    assert score_from_parse(parse_answer("???")) == 0.5


def test_auc_perfect():
    assert auc_roc([0.9, 0.1], [1, 0]) == 1.0


def test_auc_worked_example():
    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_all_ties():
    assert auc_roc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)


def test_auc_degenerate():
    with pytest.raises(DegenerateLabels):
        auc_roc([0.1, 0.2], [1, 1])
    with pytest.raises(LengthMismatch):
        auc_roc([0.1], [1, 0])


def _pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


@given(st.integers(0, 10_000))
@settings(max_examples=100)
def test_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0], labels[-1] = 0, 1
    scores = np.round(rng.random(n), 2)  # rounding forces ties
    got = auc_roc(scores, labels)
    want = _pairwise_auc(scores.tolist(), labels.tolist())
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_f1_hand_counts():
    # TP=1, FP=1, FN=1, TN=1
    preds = [1, 1, 0, 0]
    labels = [1, 0, 1, 0]
    report = accuracy_and_f1(preds, labels, classes=(1,))
    counts = report.counts[1]
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
    assert report.micro_f1 == pytest.approx(0.5)
    assert report.accuracy == pytest.approx(0.5)


def test_f1_all_correct():
    report = accuracy_and_f1([1, 0, 1], [1, 0, 1], classes=(0, 1))
    assert report.accuracy == 1.0 and report.micro_f1 == 1.0


def test_f1_all_unknown():
    preds = [UNKNOWN_CLASS] * 4
    report = accuracy_and_f1(preds, [1, 0, 1, 0], classes=(1,))
    assert report.accuracy == 0.0
    assert report.micro_f1 == 0.0


def test_f1_empty_class_conventions():
    # no predicted positives: precision 0/0 -> 0
    report = accuracy_and_f1([0, 0], [1, 0], classes=(1,))
    assert report.micro_f1 == 0.0


def test_f1_counts_recompute_scalars():
    rng = np.random.default_rng(8)
    preds = rng.integers(0, 2, size=50).tolist()
    labels = rng.integers(0, 2, size=50).tolist()
    report = accuracy_and_f1(preds, labels, classes=(1,))
    c = report.counts[1]
    acc = (c.tp + c.tn) / 50
    prec = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    rec = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    assert report.accuracy == pytest.approx(acc)
    assert report.micro_f1 == pytest.approx(f1)


def test_f1_multiclass_micro():
    preds = ["a", "b", "c", "a"]
    labels = ["a", "b", "a", "c"]
    report = accuracy_and_f1(preds, labels, classes=("a", "b", "c"))
    # micro over all classes equals accuracy for single-label problems
    assert report.micro_f1 == pytest.approx(report.accuracy) == pytest.approx(0.5)


def test_scaffold_purity_single_bucket():
    rep = scaffold_consistency([3, 3, 3], [[0, 1, 2]], shuffles=10, seed=0)
    assert rep.mean_purity == 1.0


def test_scaffold_purity_mixed_bucket():
    rep = scaffold_consistency([3, 3, 5], [[0, 1, 2]], shuffles=10, seed=0)
    assert rep.mean_purity == pytest.approx(2 / 3)


def test_scaffold_baseline_below_one():
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 8, size=60).tolist()
    buckets = [list(range(i * 20, (i + 1) * 20)) for i in range(3)]
    rep = scaffold_consistency(tokens, buckets, shuffles=50, seed=1)
    assert rep.baseline_purity < 1.0
    assert rep.bucket_count == 3


def test_scaffold_purity_order_invariant():
    tokens = [1, 1, 2, 2, 2, 9]
    buckets = [[0, 1, 5], [2, 3, 4]]
    r1 = scaffold_consistency(tokens, buckets, shuffles=5, seed=3)
    r2 = scaffold_consistency(tokens, [list(reversed(b)) for b in reversed(buckets)], shuffles=5, seed=3)
    assert r1.mean_purity == r2.mean_purity


def test_mean_purity_is_one_value_whatever_the_order_of_the_groups():
    """Purities 1, 1/3, 1, 4/5 and 1/5: summed in list order and in reverse,
    they round differently, so the mean must not be a sum in group order."""
    groups = [[0] * 7, [0, 0, 1, 2, 3, 4], [0] * 5, [0, 0, 0, 0, 1], [0, 1, 2, 3, 4]]
    tokens = [t for group in groups for t in group]
    starts = np.cumsum([0] + [len(g) for g in groups])
    buckets = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    forward = scaffold_consistency(tokens, buckets, shuffles=1)
    backward = scaffold_consistency(tokens, buckets[::-1], shuffles=1)
    assert forward.mean_purity == backward.mean_purity == math.fsum([1, 1 / 3, 1, 4 / 5, 1 / 5]) / 5


def test_scaffold_requires_multi_member_bucket():
    with pytest.raises(ValidationError):
        scaffold_consistency([1, 2], [[0], [1]], shuffles=5, seed=0)


def test_correlation_identical_entries():
    cb = Codebook(entries=np.ones((3, 4)))
    sims, zero = codebook_correlation(cb, 3)
    assert np.allclose(sims, 1.0) and zero == []


def test_correlation_orthogonal():
    cb = Codebook(entries=np.eye(3))
    sims, _ = codebook_correlation(cb, 2)
    assert sims[0, 1] == 0.0 and sims[0, 0] == 1.0


def test_correlation_diagonal_exact_one():
    rng = np.random.default_rng(12)
    cb = Codebook(entries=rng.normal(size=(10, 5)))
    sims, _ = codebook_correlation(cb, 10)
    assert np.all(np.diag(sims) == 1.0)


def test_correlation_zero_norm_reported():
    cb = Codebook(entries=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    sims, zero = codebook_correlation(cb, 3)
    assert zero == [1]
    assert not sims[1].any()


def test_csv_matrix_formatting():
    text = format_csv_matrix(np.array([[1.0, 0.123456789123]]))
    assert text == "1,0.123456789\n"



def test_export_embeddings_formats_like_fstring(tmp_path):
    """One %-format per row writes the bytes of f"{x:.9g}" per value, for
    random rows and for signed zero, nan, the infinities and the extremes."""
    rng = np.random.default_rng(3)
    special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
               1e308, -1.7976931348623157e308, 1e-5, 123456789.5, 0.1]
    rows = [rng.normal(scale=10.0 ** rng.integers(-8, 9), size=6) for _ in range(200)]
    rows += [np.array(special[i : i + 6]) for i in range(0, len(special), 6)]
    path = tmp_path / "embeddings.csv"
    export_embeddings(((f"g{i}", i % 7, row) for i, row in enumerate(rows)), 6, path)
    expected = ["id,token,e0,e1,e2,e3,e4,e5"] + [
        f"g{i},{i % 7}," + ",".join(f"{x:.9g}" for x in row) for i, row in enumerate(rows)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
