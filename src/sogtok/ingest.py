"""Parsers for the external graph sources.

Two formats:
  * graph file: one JSON object per line with fields id, nodes, edges,
    optional label, optional smiles; the stages read it as GraphBlocks of
    READ_BLOCK graphs, flat arrays of node counts and edges (iter_graph_file).
    A block of SMILES records is scanned at once (smiles.scan_block); a block
    with a nodes+edges record or any fault is read record by record
    (parse_graph_record, whose SMILES records go through smiles.scan_smiles),
    which raises the error of its first faulty line
  * label CSV: ``id,label`` rows, whose labels replace the graphs' own by id
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import GraphFileSemanticError, GraphFileSyntaxError, SmilesError
from .graph import Graph, NodeRecord, size_buckets
from .manifest import DEFAULT_SIZE_CAP, atomic_write, decode_json, numbered_lines
from .smiles import node_records, scan_block, scan_smiles


def parse_graph_record(
    obj: dict, line_no: int, size_cap: int
) -> tuple[str, int | None, str | None, list[str | None], list[tuple[int, int]]]:
    """The id, label, SMILES text, node texts and edges of a decoded record,
    each edge (i, j) with i < j, ascending: the fields of its Graph, with
    every check of the Graph's construction, named by the record's line."""
    if not isinstance(obj, dict):
        raise GraphFileSemanticError(line_no, "record is not an object")
    gid = obj.get("id")
    if not isinstance(gid, str) or not gid:
        raise GraphFileSemanticError(line_no, "missing or empty 'id'")
    smiles = obj.get("smiles")
    fault = None  # a self-loop or repeated edge, reported after the record's other checks
    if "nodes" not in obj and isinstance(smiles, str):
        # molecule shorthand: topology comes from the SMILES string
        try:
            texts, _, bonds = scan_smiles(smiles)
        except SmilesError as exc:
            raise GraphFileSemanticError(line_no, f"bad smiles: {exc}") from exc
        edges = sorted(bonds)  # i < j, in range, each bond once
    else:
        nodes_raw = obj.get("nodes")
        if not isinstance(nodes_raw, list) or len(nodes_raw) == 0:
            raise GraphFileSemanticError(line_no, "'nodes' must be a non-empty array")
        texts = []
        for idx, nd in enumerate(nodes_raw):
            if not isinstance(nd, dict):
                raise GraphFileSemanticError(line_no, f"node {idx} is not an object")
            text = nd.get("text")
            if text is not None and not isinstance(text, str):
                raise GraphFileSemanticError(line_no, f"node {idx} 'text' is not a string")
            texts.append(text)
        edges_raw = obj.get("edges", [])
        if not isinstance(edges_raw, list):
            raise GraphFileSemanticError(line_no, "'edges' must be an array")
        edges = []
        for k, e in enumerate(edges_raw):
            # a decoded int is of type int, a JSON true or false of type bool
            if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise GraphFileSemanticError(line_no, f"edge {k} must be a two-int array")
            i, j = e
            if not (0 <= i < len(texts) and 0 <= j < len(texts)):
                raise GraphFileSemanticError(line_no, f"edge {k} index out of range: {e}")
            if i == j and fault is None:
                fault = f"self-loop at node {i}"
            edges.append((i, j) if i < j else (j, i))
        edges.sort()
        if fault is None and len(set(edges)) < len(edges):
            fault = "duplicate edges"
    if len(texts) > size_cap:
        raise GraphFileSemanticError(
            line_no, f"graph {gid!r} has {len(texts)} nodes, exceeding the size cap of {size_cap}"
        )
    label = obj.get("label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
        raise GraphFileSemanticError(line_no, "'label' must be an integer")
    if smiles is not None and not isinstance(smiles, str):
        raise GraphFileSemanticError(line_no, "'smiles' must be a string")
    if fault is not None:
        raise GraphFileSemanticError(line_no, f"graph {gid!r}: {fault}")
    return gid, label, smiles, texts, edges


# records parsed into one block; the read path prepares, encodes and searches a block at once
READ_BLOCK = 512


@dataclass(frozen=True, eq=False)
class GraphBlock:
    """Up to READ_BLOCK graphs as flat arrays, in file order: graph k has
    sizes[k] nodes and the edges edges[edge_starts[k] : edge_starts[k + 1]],
    each (i, j) with i < j, ascending, the edges of its Graph. Every stage
    reads a block's adjacency stacks (adjacency, buckets); node texts are not
    kept."""

    ids: list[str]
    labels: list[int | None]
    texts: list[str | None]  # each graph's SMILES text, if any
    sizes: np.ndarray  # (B,) node counts
    edges: np.ndarray  # (E, 2)
    edge_starts: np.ndarray  # (B + 1,)

    def __len__(self) -> int:
        return len(self.ids)

    def adjacency(self, positions: np.ndarray) -> np.ndarray:
        """(len(positions), n, n) boolean adjacency of the graphs at positions,
        which all have n nodes, from one fancy-index write; a position may
        repeat."""
        starts = self.edge_starts[positions]
        counts = self.edge_starts[positions + 1] - starts
        which = np.repeat(np.arange(len(positions)), counts)
        # each graph's edge rows: its start, then one more per edge
        rows = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        i, j = self.edges[rows].T
        n = int(self.sizes[positions[0]])
        a = np.zeros((len(positions), n, n), dtype=bool)
        a[which, i, j] = a[which, j, i] = True
        return a

    def buckets(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The positions and adjacency stack of each of graph.size_buckets()."""
        for positions in size_buckets(self.sizes):
            yield positions, self.adjacency(positions)

    @classmethod
    def of(cls, graphs: list[Graph]) -> GraphBlock:
        """The block of in-memory graphs."""
        rows = _Rows()
        for g in graphs:
            rows.add(g.id, g.label, g.graph_text, g.nodes, g.edges)
        return rows.block()


class _Rows:
    """The fields of a block's graphs as they are added, each edge's two ends
    in one flat list rather than a tuple per edge."""

    def __init__(self):
        self.ids, self.labels, self.texts, self.sizes = [], [], [], []
        self.ends: list[int] = []
        self.edge_starts = [0]

    def add(self, gid: str, label: int | None, text: str | None, nodes, edges) -> None:
        """One graph's fields, as parse_graph_record() returns them; only its nodes' count is kept."""
        self.ids.append(gid)
        self.labels.append(label)
        self.texts.append(text)
        self.sizes.append(len(nodes))
        self.ends.extend(chain.from_iterable(edges))
        self.edge_starts.append(len(self.ends) // 2)

    def block(self) -> GraphBlock:
        return GraphBlock(self.ids, self.labels, self.texts, np.array(self.sizes, dtype=np.intp),
                          np.array(self.ends, dtype=np.intp).reshape(-1, 2),
                          np.array(self.edge_starts, dtype=np.intp))


def graph_blocks(graphs: Iterable[Graph]) -> Iterator[GraphBlock]:
    """In-memory graphs as blocks of READ_BLOCK, made as they are read: the
    one adapter for callers that hold Graph objects."""
    it = iter(graphs)
    while chunk := list(islice(it, READ_BLOCK)):
        yield GraphBlock.of(chunk)


def _numbered_lines(data: bytes | str) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a graph file, with its number (numbered_lines).
    Reports the line and column of a byte that is not UTF-8."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")  # the decoded text is the one copy held
        except UnicodeDecodeError as exc:
            # the lines before the bad byte decode; the sentinel makes the
            # last one the bad byte's line, its length the bad byte's column
            *_, (line_no, line) = numbered_lines(data[: exc.start].decode("utf-8") + "?")
            raise GraphFileSyntaxError(line_no, len(line), "not UTF-8 text") from None
    yield from numbered_lines(data)


def _records(lines: Iterable[tuple[int, str]], seen_ids: set[str], size_cap: int) -> Iterator[tuple]:
    """The fields of the record of each numbered line (parse_graph_record),
    in file order. Each record is checked as its line is read, its id
    against seen_ids, which gains it. Reports line/column on JSON syntax
    faults, and the line on JSON that Python does not decode."""
    for line_no, line in lines:
        try:
            obj = decode_json(line)
        except json.JSONDecodeError as exc:
            raise GraphFileSyntaxError(line_no, exc.colno, exc.msg) from exc
        except ValueError as exc:
            raise GraphFileSemanticError(line_no, str(exc)) from None
        fields = parse_graph_record(obj, line_no, size_cap)
        if fields[0] in seen_ids:
            raise GraphFileSemanticError(line_no, f"duplicate graph id {fields[0]!r}")
        seen_ids.add(fields[0])
        yield fields


def _scanned_block(lines: list[tuple[int, str]], seen_ids: set[str], size_cap: int) -> GraphBlock | None:
    """The block of the numbered lines when all of them are SMILES records
    without a fault, their SMILES strings scanned at once (smiles.scan_block);
    their ids join seen_ids. None at any other record or any fault: _records
    then reads the lines and names the fault."""
    ids, labels, smiles = [], [], []
    try:
        for _, line in lines:
            obj = decode_json(line)
            if not (isinstance(obj, dict) and "nodes" not in obj and isinstance(obj.get("smiles"), str)):
                return None
            gid, label = obj.get("id"), obj.get("label")
            if not (isinstance(gid, str) and gid and (label is None or type(label) is int)):
                return None
            ids.append(gid)
            labels.append(label)
            smiles.append(obj["smiles"])
    except ValueError:
        return None
    if len(set(ids)) < len(ids) or not seen_ids.isdisjoint(ids):
        return None
    sizes, edges, starts, ok = scan_block(smiles)
    if not ok.all() or (sizes > size_cap).any():
        return None
    seen_ids.update(ids)
    return GraphBlock(ids, labels, smiles, sizes, edges, starts)


def iter_graph_file(data: bytes | str, size_cap: int = DEFAULT_SIZE_CAP) -> Iterator[GraphBlock]:
    """One GraphBlock per READ_BLOCK records, yielded as its last line is
    parsed, so a reader holds only the blocks it keeps. A block of SMILES
    records is read by _scanned_block; a block with a nodes+edges record or
    any fault is read by _records, record by record, which raises the first
    fault's error."""
    lines = _numbered_lines(data)
    del data  # lines holds the one copy
    seen_ids: set[str] = set()
    while chunk := list(islice(lines, READ_BLOCK)):
        block = _scanned_block(chunk, seen_ids, size_cap)
        if block is None:
            rows = _Rows()
            for fields in _records(chunk, seen_ids, size_cap):
                rows.add(*fields)
            block = rows.block()
        del chunk
        yield block


def parse_graph_file(data: bytes | str, size_cap: int = DEFAULT_SIZE_CAP) -> list[Graph]:
    """Every graph of a graph file at once, as Graphs (_records); nodes of
    equal text share one NodeRecord. No stage reads its data so."""
    records: dict[str | None, NodeRecord] = {}
    return [Graph(id=gid, nodes=node_records(texts, records), edges=tuple(edges), label=label,
                  graph_text=text)
            for gid, label, text, texts, edges in _records(_numbered_lines(data), set(), size_cap)]


def write_graph_file(graphs: list[Graph], path) -> None:
    with atomic_write(path) as fh:
        for g in graphs:
            obj = {
                "id": g.id,
                "nodes": [
                    {"text": nd.text} if nd.text is not None else {} for nd in g.nodes
                ],
                "edges": [[i, j] for i, j in g.edges],
            }
            if g.label is not None:
                obj["label"] = g.label
            if g.graph_text is not None:
                obj["smiles"] = g.graph_text
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def parse_label_csv(text: str, ids: Container[str]) -> dict[str, int]:
    """``id,label`` rows; a header row with those exact names is skipped.
    Each id must be one of ids and appear on one row only, and each label
    must be 0 or 1, because the prompt templates are binary."""
    out: dict[str, int] = {}
    row_of: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text))
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if row_no == 1 and [c.strip().lower() for c in row[:2]] == ["id", "label"]:
            continue
        if len(row) < 2:
            raise GraphFileSyntaxError(row_no, 1, "expected 'id,label'")
        if row[0] not in ids:
            raise GraphFileSemanticError(row_no, f"id {row[0]!r} names no graph")
        label = row[1].strip()
        if label not in ("0", "1"):
            raise GraphFileSemanticError(row_no, f"label {row[1]!r} is not 0 or 1")
        if row[0] in row_of:
            raise GraphFileSemanticError(row_no, f"id {row[0]!r} repeats line {row_of[row[0]]}")
        row_of[row[0]] = row_no
        out[row[0]] = int(label)
    return out
