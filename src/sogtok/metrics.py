"""Answer parsing, classification metrics, and structural analyses.

Answer matching is word-boundary based on lowercased text, and negative
phrases always win over positive ones. AUC uses the tie-aware pairwise
(rank) formulation, exactly equivalent to counting concordant
positive-negative pairs with half credit for ties.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import ingest
from .corpus import cosine_matrix
from .errors import DegenerateLabels, LengthMismatch, ValidationError
from .graph import Graph, permuted_adjacency, size_buckets
from .ingest import GraphBlock, graph_blocks
from .manifest import atomic_write
from .model import Codebook, TokenizerModel
from .train import GLOBAL_ROW, StackBlock, encoded_blocks

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


def permutation_hits(
    model: TokenizerModel,
    block: GraphBlock,
    base_tokens: list[int],
    trials: int,
    rng: np.random.Generator,
    embedder=None,
) -> int:
    """How many of `trials` random relabelings of each graph of a block keep
    its token (base_tokens, in block order). The permutations are drawn from
    rng graph by graph. A copy's adjacency is its graph's, indexed
    (graph.permuted_adjacency), and the copies are drawn, made and encoded
    READ_BLOCK at a time."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    owners = np.repeat(np.arange(len(block)), trials)

    def copies() -> Iterator[StackBlock]:
        for start in range(0, len(owners), ingest.READ_BLOCK):
            chunk = owners[start : start + ingest.READ_BLOCK]
            sizes = block.sizes[chunk]
            perms = [rng.permutation(n) for n in sizes.tolist()]
            yield StackBlock(sizes, [
                (run, permuted_adjacency(block.adjacency(chunk[run]), np.stack([perms[k] for k in run])))
                for run in size_buckets(sizes)
            ])

    tokens = chain.from_iterable(encoded_blocks(copies(), model, lambda b: b.tokens, embedder,
                                                take=GLOBAL_ROW))
    return int((np.fromiter(tokens, dtype=np.intp) == np.repeat(base_tokens, trials)).sum())


def permutation_consistency(
    model: TokenizerModel,
    graphs: list[Graph],
    trials: int,
    seed: int,
    embedder=None,
) -> float:
    """Fraction of (graph, random relabeling) pairs whose token survives."""
    rng = np.random.default_rng(seed)

    def block_hits(b) -> int:
        return permutation_hits(model, b.block, b.tokens, trials, rng, embedder)

    hits = sum(encoded_blocks(graph_blocks(graphs), model, block_hits, embedder, take=GLOBAL_ROW))
    return hits / (len(graphs) * trials)


@dataclass(frozen=True)
class ScaffoldConsistencyReport:
    mean_purity: float
    baseline_purity: float
    bucket_count: int


def scaffold_consistency(
    tokens: list[int],
    buckets: list[list[int]],
    shuffles: int = 100,
    seed: int = 0,
) -> ScaffoldConsistencyReport:
    """Mean dominant-token purity over the scaffold buckets of two or more
    members, with a shuffled-assignment baseline (seeded, mean over
    shuffles). A bucket's purity is the count of its most frequent token,
    the largest count of its (bucket, token) pairs, over its size; the mean
    is math.fsum's, correctly rounded whatever the order."""
    kept = [members for members in buckets if len(members) >= 2]
    if not kept:
        raise ValidationError("no scaffold bucket has two or more members")
    sizes = np.array([len(members) for members in kept])
    members = np.concatenate([np.asarray(m, dtype=np.intp) for m in kept])
    # the distinct tokens numbered 0 .. v - 1, so a (bucket, token) pair is one integer
    distinct, codes = np.unique(np.asarray(tokens), return_inverse=True)
    codes, v = codes.reshape(-1), len(distinct)
    bucket = np.repeat(np.arange(len(kept)), sizes) * v
    first_pairs = np.arange(len(kept)) * v

    def mean_purity(assigned: np.ndarray) -> float:
        # the pairs that occur, sorted, so each bucket's run starts at its first pair
        pairs, counts = np.unique(bucket + assigned[members], return_counts=True)
        purities = np.maximum.reduceat(counts, np.searchsorted(pairs, first_pairs)) / sizes
        return math.fsum(purities.tolist()) / len(kept)

    rng = np.random.default_rng(seed)
    baseline = [mean_purity(codes[rng.permutation(len(codes))]) for _ in range(shuffles)]
    return ScaffoldConsistencyReport(
        mean_purity=mean_purity(codes),
        baseline_purity=float(np.mean(baseline)),
        bucket_count=len(kept),
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


def export_embeddings(rows: Iterable[tuple[str, int, np.ndarray]], d: int, path) -> None:
    """embeddings.csv: id, graph token index and global-node row per graph.
    rows may be lazy; each is written as it arrives. One %-format per row
    gives the bytes of f"{x:.9g}" per value."""
    values = ",".join(["%.9g"] * d)
    with atomic_write(path) as fh:
        fh.write("id,token," + ",".join(f"e{i}" for i in range(d)) + "\n")
        for gid, token, vec in rows:
            fh.write(f"{gid},{token}," + values % tuple(vec.tolist()) + "\n")
