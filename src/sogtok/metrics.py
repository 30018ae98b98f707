"""Answer parsing, classification metrics, and structural analyses.

Answer matching is word-boundary based on lowercased text, and negative
phrases always win over positive ones. AUC uses the tie-aware pairwise
(rank) formulation, exactly equivalent to counting concordant
positive-negative pairs with half credit for ties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import cosine_matrix
from .errors import DegenerateLabels, LengthMismatch, ValidationError
from .graph import Graph, permute
from .model import Codebook, TokenizerModel
from .train import graph_embedding, graph_token

POSITIVE_DEFAULT = ("yes", "true", "active", "approved")
NEGATIVE_DEFAULT = ("no", "false", "inactive", "rejected", "not approved")

UNKNOWN_CLASS = "<unknown>"


@dataclass(frozen=True)
class ParsedAnswer:
    value: str  # "Positive" | "Negative" | "Unknown"
    matched: str | None = None


def _phrase_pattern(phrase: str) -> re.Pattern:
    return re.compile(r"(?<!\w)" + re.escape(phrase.lower()) + r"(?!\w)")


def parse_answer(
    text: str,
    positives: tuple[str, ...] = POSITIVE_DEFAULT,
    negatives: tuple[str, ...] = NEGATIVE_DEFAULT,
) -> ParsedAnswer:
    """Negative phrases are evaluated first; positives only in their absence.

    Phrases match at word boundaries so that e.g. "cannot" does not trigger
    "no". Matching is case-insensitive.
    """
    if not positives or not negatives:
        raise ValidationError("phrase sets must be non-empty")
    lowered = text.lower()
    for phrase in negatives:
        if _phrase_pattern(phrase).search(lowered):
            return ParsedAnswer(value="Negative", matched=phrase)
    for phrase in positives:
        if _phrase_pattern(phrase).search(lowered):
            return ParsedAnswer(value="Positive", matched=phrase)
    return ParsedAnswer(value="Unknown")


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative,
    counting ties as half (midrank formulation)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LengthMismatch("scores and labels must have equal length")
    pos = labels == 1
    p, n = int(pos.sum()), int((~pos).sum())
    if p == 0 or n == 0:
        raise DegenerateLabels(f"need both classes; got {p} positives, {n} negatives")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * n))


@dataclass(frozen=True)
class ClassCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    micro_f1: float
    counts: dict = field(default_factory=dict)  # class -> ClassCounts
    auc: float | None = None


def accuracy_and_f1(predictions, labels, classes) -> MetricReport:
    """Accuracy over all samples and micro-F1 aggregated over `classes`.

    Unknown predictions count as a reserved class that never matches, so
    they depress both metrics; 0/0 precision or recall is defined as 0.
    """
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not classes:
        raise ValidationError("class list must be non-empty")
    n = len(labels)
    correct = sum(1 for pvalue, lvalue in zip(predictions, labels) if pvalue == lvalue)
    counts = {}
    tp_sum = fp_sum = fn_sum = 0
    for cls in classes:
        tp = sum(1 for pv, lv in zip(predictions, labels) if pv == cls and lv == cls)
        fp = sum(1 for pv, lv in zip(predictions, labels) if pv == cls and lv != cls)
        fn = sum(1 for pv, lv in zip(predictions, labels) if pv != cls and lv == cls)
        tn = n - tp - fp - fn
        counts[cls] = ClassCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        tp_sum += tp
        fp_sum += fp
        fn_sum += fn
    precision = tp_sum / (tp_sum + fp_sum) if (tp_sum + fp_sum) > 0 else 0.0
    recall = tp_sum / (tp_sum + fn_sum) if (tp_sum + fn_sum) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return MetricReport(accuracy=correct / n if n else 0.0, micro_f1=f1, counts=counts)


def score_from_parse(parsed: ParsedAnswer) -> float:
    """Score convention for text-only responses: 1 / 0 / 0.5."""
    return {"Positive": 1.0, "Negative": 0.0, "Unknown": 0.5}[parsed.value]


def permutation_consistency(
    model: TokenizerModel, graphs: list[Graph], trials: int, seed: int, embedder=None
) -> float:
    """Fraction of (graph, random relabeling) pairs whose token survives."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    def token(graph: Graph):
        return graph_token(graph_embedding(graph, model, embedder), model.codebook)

    hits = total = 0
    for g in graphs:
        base = token(g)
        for _ in range(trials):
            perm = rng.permutation(g.n).tolist()
            total += 1
            if token(permute(g, perm)) == base:
                hits += 1
    return hits / total


@dataclass(frozen=True)
class ScaffoldConsistencyReport:
    mean_purity: float
    baseline_purity: float
    bucket_count: int
    bucket_sizes: tuple[int, ...]


def _mean_purity(tokens: list[int], buckets: list[list[int]]) -> float:
    purities = []
    for members in buckets:
        if len(members) < 2:
            continue
        freq: dict[int, int] = {}
        for idx in members:
            freq[tokens[idx]] = freq.get(tokens[idx], 0) + 1
        purities.append(max(freq.values()) / len(members))
    if not purities:
        raise ValidationError("no scaffold bucket has two or more members")
    return float(np.mean(purities))


def scaffold_consistency(
    tokens: list[int],
    buckets: list[list[int]],
    shuffles: int = 100,
    seed: int = 0,
) -> ScaffoldConsistencyReport:
    """Mean dominant-token purity over scaffold buckets, with a
    shuffled-assignment baseline (seeded, mean over shuffles)."""
    mean_purity = _mean_purity(tokens, buckets)
    rng = np.random.default_rng(seed)
    arr = np.asarray(tokens)
    baseline = []
    for _ in range(shuffles):
        shuffled = arr[rng.permutation(len(arr))].tolist()
        baseline.append(_mean_purity(shuffled, buckets))
    relevant = tuple(len(b) for b in buckets if len(b) >= 2)
    return ScaffoldConsistencyReport(
        mean_purity=mean_purity,
        baseline_purity=float(np.mean(baseline)),
        bucket_count=len(relevant),
        bucket_sizes=relevant,
    )


def codebook_correlation(cb: Codebook, first_m: int) -> tuple[np.ndarray, list[int]]:
    """Cosine-similarity matrix of the first m entries plus zero-norm rows.

    Rows with zero norm get zero similarity everywhere (including their
    diagonal) and are reported by index.
    """
    if first_m < 1 or first_m > cb.k:
        raise ValidationError(f"first_m must be in [1, K]; got {first_m}")
    sims, zero_rows = cosine_matrix(cb.entries[:first_m])
    np.fill_diagonal(sims, 1.0)
    sims[zero_rows, :] = 0.0
    sims[:, zero_rows] = 0.0
    return sims, zero_rows


def format_csv_matrix(mat: np.ndarray) -> str:
    lines = [",".join(f"{x:.9g}" for x in row) for row in mat]
    return "\n".join(lines) + "\n"


def export_embeddings(rows: list[tuple[str, int, np.ndarray]], d: int, path) -> None:
    """embeddings.csv: id, graph token index and global-node row per graph."""
    lines = ["id,token," + ",".join(f"e{i}" for i in range(d))]
    for gid, token, vec in rows:
        lines.append(f"{gid},{token}," + ",".join(f"{x:.9g}" for x in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def aggregate_runs(values) -> tuple[float, float]:
    """Mean and sample standard deviation across repeated runs."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("no run values supplied")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def aggregate_tasks(means, stds) -> tuple[float, float]:
    """Multi-task convention: mean of means, sqrt of mean squared stds."""
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if means.shape != stds.shape or means.size == 0:
        raise ValidationError("means and stds must align and be non-empty")
    return float(means.mean()), float(np.sqrt((stds**2).mean()))
