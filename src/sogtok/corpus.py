"""Hybrid structure question-answer corpus generation.

Three record kinds align structural tokens with text:
  * knn: nearest-token matching over codebook cosine similarity
  * simjudge: similar/dissimilar judgments from continuous global-node
    embeddings against positive/negative thresholds
  * descmatch: edge-list descriptions paired with the graph's token
"""

from __future__ import annotations

import json
import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .attributes import _Ranked
from .errors import (
    DegenerateCodebook,
    GraphTooLargeForDescription,
    ValidationError,
)
from .ingest import GraphBlock
from .manifest import atomic_write
from .model import Codebook
from .train import TOKEN_RE, token_text

KINDS = ("descmatch", "knn", "simjudge")

_NUMBER_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}

_TOKEN_LOOSE = re.compile(r"<SOG_[^>]*>")


@dataclass(frozen=True)
class SimilarityThresholds:
    tau_pos: float = 0.8
    tau_neg: float = 0.2

    def __post_init__(self):
        if not (-1.0 <= self.tau_neg < self.tau_pos <= 1.0):
            raise ValidationError(
                f"thresholds must satisfy -1 <= tau_neg < tau_pos <= 1, "
                f"got ({self.tau_neg}, {self.tau_pos})"
            )


@dataclass(frozen=True)
class QARecord:
    kind: str
    question: str
    answer: str
    provenance: str
    split: str = "train"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown corpus kind {self.kind!r}")
        if not self.question or not self.answer:
            raise ValidationError("question and answer must be non-empty")
        for surface in _TOKEN_LOOSE.findall(self.question + " " + self.answer):
            if not TOKEN_RE.fullmatch(surface):
                raise ValidationError(f"not a structural token: {surface!r}")


def _number_word(k: int) -> str:
    return _NUMBER_WORDS.get(k, str(k))


def _unit_rows(entries: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Rows scaled to unit norm (zero rows stay zero) and the zero-norm row
    indices."""
    norms = np.linalg.norm(entries, axis=1)
    zero_rows = [int(i) for i in np.flatnonzero(norms == 0.0)]
    safe = np.where(norms == 0.0, 1.0, norms)
    return entries / safe[:, None], zero_rows


def cosine_matrix(entries: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Pairwise cosine similarities; returns the zero-norm row indices too."""
    unit, zero_rows = _unit_rows(entries)
    return unit @ unit.T, zero_rows


def gen_knn_records(cb: Codebook, k: int = 5) -> list[QARecord]:
    """One record per usable codebook entry listing its k nearest tokens:
    highest cosine first, lowest index among equal cosines."""
    if k < 1 or k >= cb.k:
        raise ValidationError(f"k must be in [1, K); got k={k}, K={cb.k}")
    sims, zero_rows = cosine_matrix(cb.entries)
    if len(zero_rows) == cb.k:
        raise DegenerateCodebook("all codebook entries have zero norm")
    if zero_rows:
        warnings.warn(f"excluding {len(zero_rows)} zero-norm codebook entries from knn corpus")
    usable = np.delete(np.arange(cb.k), zero_rows)  # np.setdiff1d would import numpy.ma
    keys = -sims[np.ix_(usable, usable)]
    np.fill_diagonal(keys, np.inf)  # an entry is never its own neighbour
    # a stable sort keeps the lower index first among equal keys
    ranked = usable[np.argsort(keys, axis=1, kind="stable")[:, : min(k, len(usable) - 1)]]
    records = []
    for i, row in zip(usable.tolist(), ranked.tolist()):
        question = (
            f"Here is the target structural token {token_text(i)}, and its "
            f"{_number_word(k)} nearest graph structural tokens are:"
        )
        answer = ", ".join(map(token_text, row))
        records.append(
            QARecord(kind="knn", question=question, answer=answer, provenance=f"token:{i}")
        )
    return records


# Cosine cells in one row block of qualifying_pairs. Part of the output
# bytes, not only a memory bound: the block's GEMM shape sets the rounding
# of each cosine at the thresholds, and both reservoirs draw from one rng in
# block order. Changing it moves which pairs corpus.jsonl holds.
_SIMJUDGE_CELLS = 1 << 18


def qualifying_pairs(
    embeddings: np.ndarray, thresholds: SimilarityThresholds
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Scan the upper triangle of the rows' cosine matrix in row blocks and
    yield, per block, the flat indices i * n + j of its positive pairs
    (cosine > tau_pos) and of its negative pairs (cosine < tau_neg), i < j.

    Block [start, stop) multiplies only against the columns start:, so it
    holds at most _SIMJUDGE_CELLS cosines (one row if a row is longer). The
    blocks run in row order and each block's indices ascend: the order of a
    double loop over i < j.
    """
    normed, _ = _unit_rows(embeddings)
    n = len(normed)
    start = 0
    while start < n:
        width = n - start
        stop = start + max(1, _SIMJUDGE_CELLS // width)
        sims = normed[start:stop] @ normed[start:].T
        sims[np.tri(*sims.shape, dtype=bool)] = np.nan  # j <= i
        masks = (sims > thresholds.tau_pos, sims < thresholds.tau_neg)
        del sims
        flats = []
        for mask in masks:
            # local index r * width + c is the pair (start + r, start + c)
            flat = np.flatnonzero(mask)
            flat += (flat // width + n + 1) * start
            flats.append(flat)
        yield tuple(flats)
        start = stop


class _Reservoir:
    """A uniform sample of at most `size` items of a stream fed in batches:
    Li's Algorithm L (ACM TOMS 1994), O(size * (1 + log(N / size))) draws
    for a stream of N items."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.items = np.empty(size, dtype=np.intp)
        self.rng = rng
        self.seen = 0  # items fed so far
        self.next = size - 1  # stream position of the next item to keep
        self.w = 1.0  # Algorithm L's W: the largest random key among the kept items

    def _skip(self) -> None:
        size = len(self.items)
        self.w *= math.exp(math.log(1.0 - self.rng.random()) / size)
        self.next += math.floor(math.log(1.0 - self.rng.random()) / math.log1p(-self.w)) + 1

    def feed(self, batch: np.ndarray) -> None:
        size = len(self.items)
        stop = self.seen + len(batch)
        if self.seen < size:
            filled = min(size, stop)
            self.items[self.seen : filled] = batch[: filled - self.seen]
            if filled == size:
                self._skip()
        while size and self.next < stop:
            self.items[self.rng.integers(size)] = batch[self.next - self.seen]
            self._skip()
        self.seen = stop

    def sample(self) -> np.ndarray:
        """The kept items in a random order."""
        return self.rng.permutation(self.items[: self.seen])


def check_pair_budget(budget: int) -> None:
    """ValidationError unless a simjudge pair budget can hold a pair of each class."""
    if budget < 2:
        raise ValidationError("pair budget must be >= 2")


def gen_simjudge_records(
    ids: list[str],
    tokens: list[int],
    embeddings: np.ndarray,
    thresholds: SimilarityThresholds,
    budget: int,
    seed: int,
) -> list[QARecord]:
    """Similar/dissimilar pairs judged on pre-quantization global embeddings.

    One pass over the pairs i < j (qualifying_pairs) feeds each class into
    a uniform reservoir sized for its share of the budget; pairs inside the
    dead zone are skipped. Both classes are then cut to one count, the least
    of half the budget and the two classes' counts (the positives round a
    half pair with round()), so each class's picks are a uniform sample of it. Memory holds one row block and the reservoirs,
    never the qualifying pairs. Shortfall produces a warning and partial
    output, never an exception.
    """
    n = len(ids)
    if n != len(tokens) or n != embeddings.shape[0]:
        raise ValidationError("ids, tokens, and embeddings must align")
    check_pair_budget(budget)
    rng = np.random.default_rng(seed)
    share = budget / 2.0
    pairs = n * (n - 1) // 2  # no reservoir outgrows the pairs, whatever the budget
    pos = _Reservoir(min(round(share), pairs), rng)
    neg = _Reservoir(min(int(share), pairs), rng)
    for pos_flat, neg_flat in qualifying_pairs(embeddings, thresholds):
        pos.feed(pos_flat)
        neg.feed(neg_flat)
    unit = min(share, neg.seen, pos.seen)
    n_neg = int(unit)
    n_pos = int(round(unit))
    if n_pos + n_neg < budget - 1:
        warnings.warn(
            f"simjudge pair shortfall: wanted ~{budget} pairs, emitting {n_pos + n_neg} "
            f"(positives available: {pos.seen}, negatives: {neg.seen})"
        )
    pos_picks, neg_picks = pos.sample()[:n_pos], neg.sample()[:n_neg]
    records = []
    for label, picks in (("similar", pos_picks), ("dissimilar", neg_picks)):
        for i, j in (divmod(flat, n) for flat in picks.tolist()):
            question = (
                f"Here are two tokens {token_text(tokens[i])} and {token_text(tokens[j])}, "
                f"judge whether they represent similar structures or not."
            )
            records.append(
                QARecord(
                    kind="simjudge",
                    question=question,
                    answer=label,
                    provenance=f"pair:{ids[i]}|{ids[j]}",
                )
            )
    return records


def node_names(count: int) -> list[str]:
    """A..Z, then AA, AB, ... (bijective base 26)."""
    names = []
    for i in range(count):
        k = i
        name = ""
        while True:
            name = chr(ord("A") + k % 26) + name
            k = k // 26 - 1
            if k < 0:
                break
        names.append(name)
    return names

MAX_NAMED_NODES = 26 + 26 * 26


def describe_graph(gid: str, n: int, pairs: list[tuple[int, int]]) -> str:
    """The question of graph gid, of n nodes, whose edges join the nodes at
    the places pairs (a, b) of its naming order, a < b, ascending; the node
    at place q is named node_names()[q]."""
    if n > MAX_NAMED_NODES:
        raise GraphTooLargeForDescription(
            f"graph {gid!r} has {n} nodes; naming supports {MAX_NAMED_NODES}"
        )
    if not pairs:
        body = f"a graph of {n} {'node' if n == 1 else 'nodes'} with no edges"
    else:
        names = node_names(n)
        body = "; ".join(f"node {names[a]} and node {names[b]} is connected" for a, b in pairs)
    return f"Here is the target graph: {body}. The corresponding graph structural token is:"


def gen_descmatch_records(
    block: GraphBlock, tokens: list[int], ranked: list[_Ranked]
) -> list[QARecord]:
    """One record per graph of block: its description (describe_graph) and
    its token, tokens[k] for graph k. The naming order of a graph's nodes
    comes from ranked, the rankings of the block's stacks: the anchor, then
    hop by hop in rank order, unreachable nodes last."""
    if len(tokens) != len(block) or sum(len(r.positions) for r in ranked) != len(block):
        raise ValidationError(f"tokens and rankings must cover the block's {len(block)} graphs")
    starts = np.concatenate(([0], np.cumsum(block.sizes)))  # each graph's first node, flat
    place = np.empty(starts[-1], dtype=np.intp)  # each node's place in its graph's naming order
    for r in ranked:
        b, n = r.hop.shape
        hop = np.where(r.hop < 0, n, r.hop)  # unreachable nodes after the last hop
        named = np.lexsort((r.rank.ravel(), hop.ravel(), np.repeat(np.arange(b), n)))
        place[np.repeat(starts[r.positions], n) + named % n] = np.tile(np.arange(n), b)
    counts = np.diff(block.edge_starts)
    ends = place[block.edges + np.repeat(starts[:-1], counts)[:, None]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    order = np.lexsort((hi, lo, np.repeat(np.arange(len(block)), counts)))
    pairs = list(zip(lo[order].tolist(), hi[order].tolist()))
    edge_starts = block.edge_starts.tolist()
    return [
        QARecord(
            kind="descmatch",
            question=describe_graph(gid, n, pairs[edge_starts[k] : edge_starts[k + 1]]),
            answer=token_text(token),
            provenance=f"graph:{gid}",
        )
        for k, (gid, n, token) in enumerate(zip(block.ids, block.sizes.tolist(), tokens))
    ]


def corpus_lines(records: list[QARecord]) -> list[str]:
    """Deterministic serialization order: kind, then provenance."""
    ordered = sorted(records, key=lambda r: (r.kind, r.provenance, r.question))
    return [
        json.dumps(
            {
                "kind": r.kind,
                "question": r.question,
                "answer": r.answer,
                "provenance": r.provenance,
                "split": r.split,
            },
            sort_keys=True,
        )
        for r in ordered
    ]


def write_corpus(records: list[QARecord], path) -> None:
    with atomic_write(path) as fh:
        for line in corpus_lines(records):
            fh.write(line + "\n")
