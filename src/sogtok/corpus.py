"""Hybrid structure question-answer corpus generation.

Three record kinds align structural tokens with text:
  * knn: nearest-token matching over codebook cosine similarity
  * simjudge: similar/dissimilar judgments from continuous global-node
    embeddings against positive/negative thresholds
  * descmatch: edge-list descriptions paired with the graph's token
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .attributes import ImportanceStrategy, assign_attributes
from .errors import (
    DegenerateCodebook,
    GraphTooLargeForDescription,
    ValidationError,
)
from .graph import Graph
from .model import Codebook
from .train import StructuralToken, parse_token

KINDS = ("descmatch", "knn", "simjudge")

_NUMBER_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}

_TOKEN_LOOSE = re.compile(r"<SOG_[^>]*>")
_EDGE_CLAUSE = re.compile(r"node ([A-Z]+) and node ([A-Z]+) is connected")
_NODE_COUNT = re.compile(r"a graph of (\d+) nodes? with no edges")


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
            parse_token(surface)  # raises on malformed token text


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


_SIMJUDGE_ROWS = 256  # rows of the cosine matrix that gen_simjudge_records holds at once


def gen_knn_records(cb: Codebook, k: int = 5, split: str = "train") -> list[QARecord]:
    """One record per usable codebook entry listing its k nearest tokens."""
    if k < 1 or k >= cb.k:
        raise ValidationError(f"k must be in [1, K); got k={k}, K={cb.k}")
    sims, zero_rows = cosine_matrix(cb.entries)
    if len(zero_rows) == cb.k:
        raise DegenerateCodebook("all codebook entries have zero norm")
    if zero_rows:
        warnings.warn(f"excluding {len(zero_rows)} zero-norm codebook entries from knn corpus")
    excluded = set(zero_rows)
    usable = [i for i in range(cb.k) if i not in excluded]
    records = []
    for i in usable:
        ranked = sorted(
            (j for j in usable if j != i), key=lambda j: (-sims[i, j], j)
        )[:k]
        token = StructuralToken(i)
        question = (
            f"Here is the target structural token {token.surface}, and its "
            f"{_number_word(k)} nearest graph structural tokens are:"
        )
        answer = ", ".join(StructuralToken(j).surface for j in ranked)
        records.append(
            QARecord(
                kind="knn",
                question=question,
                answer=answer,
                provenance=f"token:{i}",
                split=split,
            )
        )
    return records


def gen_simjudge_records(
    ids: list[str],
    tokens: list[StructuralToken],
    embeddings: np.ndarray,
    thresholds: SimilarityThresholds,
    budget: int,
    seed: int,
    ratio: float = 1.0,
    split: str = "train",
) -> list[QARecord]:
    """Similar/dissimilar pairs judged on pre-quantization global embeddings.

    All candidate pairs are enumerated, pairs inside the dead zone are
    skipped, and the two classes are sampled to the requested ratio
    (positives per negative). Shortfall produces a warning and partial
    output, never an exception.
    """
    n = len(ids)
    if n != len(tokens) or n != embeddings.shape[0]:
        raise ValidationError("ids, tokens, and embeddings must align")
    if budget < 2:
        raise ValidationError("pair budget must be >= 2")
    if ratio <= 0:
        raise ValidationError("class ratio must be positive")
    # scan the upper triangle in row blocks; each pair i < j is the flat index
    # i * n + j, found in row-major order, the order of a double loop over i < j
    normed, _ = _unit_rows(embeddings)
    pos_blocks, neg_blocks = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for start in range(0, n, _SIMJUDGE_ROWS):
        sims = normed[start : start + _SIMJUDGE_ROWS] @ normed.T
        sims[np.arange(n) <= np.arange(start, start + len(sims))[:, None]] = np.nan  # j <= i
        pos_blocks.append(np.flatnonzero(sims > thresholds.tau_pos) + start * n)
        neg_blocks.append(np.flatnonzero(sims < thresholds.tau_neg) + start * n)
    pos_pairs, neg_pairs = np.concatenate(pos_blocks), np.concatenate(neg_blocks)
    rng = np.random.default_rng(seed)
    rng.shuffle(pos_pairs)
    rng.shuffle(neg_pairs)
    unit = min(budget / (1.0 + ratio), len(neg_pairs), len(pos_pairs) / ratio)
    n_neg = int(unit)
    n_pos = int(round(unit * ratio))
    if n_pos + n_neg < budget - 1:
        warnings.warn(
            f"simjudge pair shortfall: wanted ~{budget} pairs, emitting {n_pos + n_neg} "
            f"(positives available: {len(pos_pairs)}, negatives: {len(neg_pairs)})"
        )
    records = []
    for label, picks in (("similar", pos_pairs[:n_pos]), ("dissimilar", neg_pairs[:n_neg])):
        for i, j in (divmod(flat, n) for flat in picks.tolist()):
            question = (
                f"Here are two tokens {tokens[i].surface} and {tokens[j].surface}, "
                f"judge whether they represent similar structures or not."
            )
            records.append(
                QARecord(
                    kind="simjudge",
                    question=question,
                    answer=label,
                    provenance=f"pair:{ids[i]}|{ids[j]}",
                    split=split,
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


def naming_order(g: Graph, strategy: ImportanceStrategy) -> list[int]:
    """Nodes in attribute-rank order: anchor, then hop by hop in rank order,
    unreachable nodes last."""
    attrs = assign_attributes(g, strategy)
    inf = float("inf")
    return sorted(
        range(g.n),
        key=lambda v: (
            attrs.hop_of[v] if attrs.hop_of[v] is not None else inf,
            attrs.rank_of[v],
        ),
    )


def describe_graph(g: Graph, strategy: ImportanceStrategy) -> tuple[str, dict[str, int]]:
    """Edge-list description plus the name->original-index mapping."""
    if g.n > MAX_NAMED_NODES:
        raise GraphTooLargeForDescription(
            f"graph {g.id!r} has {g.n} nodes; naming supports {MAX_NAMED_NODES}"
        )
    order = naming_order(g, strategy)
    names = node_names(g.n)
    name_of = {node: names[pos] for pos, node in enumerate(order)}
    pos_of = {node: pos for pos, node in enumerate(order)}
    if not g.edges:
        noun = "node" if g.n == 1 else "nodes"
        body = f"a graph of {g.n} {noun} with no edges"
    else:
        ordered_edges = sorted(
            (
                (min(pos_of[i], pos_of[j]), max(pos_of[i], pos_of[j]))
                for i, j in g.edges
            )
        )
        clauses = [
            f"node {names[a]} and node {names[b]} is connected" for a, b in ordered_edges
        ]
        body = "; ".join(clauses)
    question = f"Here is the target graph: {body}. The corresponding graph structural token is:"
    return question, {name: node for node, name in name_of.items()}


def parse_description(question: str) -> tuple[int | None, list[tuple[str, str]]]:
    """Recover (node count, named edge list) from a descmatch question."""
    pairs = [(a, b) for a, b in _EDGE_CLAUSE.findall(question)]
    m = _NODE_COUNT.search(question)
    return (int(m.group(1)) if m else None), pairs


def gen_descmatch_records(
    graphs: list[Graph],
    tokens: dict[str, StructuralToken],
    strategy: ImportanceStrategy,
    split: str = "train",
) -> list[QARecord]:
    records = []
    for g in graphs:
        if g.id not in tokens:
            raise ValidationError(f"graph {g.id!r} has no graph token")
        question, _ = describe_graph(g, strategy)
        records.append(
            QARecord(
                kind="descmatch",
                question=question,
                answer=tokens[g.id].surface,
                provenance=f"graph:{g.id}",
                split=split,
            )
        )
    return records


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
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_lines(records):
            fh.write(line + "\n")


def read_corpus(path) -> list[QARecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            records.append(QARecord(**obj))
    return records
