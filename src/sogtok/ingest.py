"""Parsers for the external graph sources.

Two formats:
  * graph file: one JSON object per line with fields id, nodes, edges,
    optional label, optional smiles
  * label CSV: ``id,label`` rows joined onto graphs by id
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Container
from dataclasses import replace

from .errors import GraphFileSemanticError, GraphFileSyntaxError, SmilesError, ValidationError
from .graph import DEFAULT_SIZE_CAP, Graph, NodeRecord
from .manifest import atomic_write
from .smiles import node_records, scan_smiles


def parse_graph_record(
    obj: dict, line_no: int, size_cap: int, records: dict[str, NodeRecord]
) -> Graph:
    """One graph from a decoded record. A SMILES record's nodes come from
    `records`, one shared `NodeRecord` per atom symbol (see `node_records`)."""
    if not isinstance(obj, dict):
        raise GraphFileSemanticError(line_no, "record is not an object")
    gid = obj.get("id")
    if not isinstance(gid, str) or not gid:
        raise GraphFileSemanticError(line_no, "missing or empty 'id'")
    smiles = obj.get("smiles")
    if "nodes" not in obj and isinstance(smiles, str):
        # molecule shorthand: topology comes from the SMILES string
        try:
            symbols, _, bonds = scan_smiles(smiles)
        except SmilesError as exc:
            raise GraphFileSemanticError(line_no, f"bad smiles: {exc}") from exc
        nodes = node_records(symbols, records)
        edges = sorted(bonds)
    else:
        nodes_raw = obj.get("nodes")
        if not isinstance(nodes_raw, list) or len(nodes_raw) == 0:
            raise GraphFileSemanticError(line_no, "'nodes' must be a non-empty array")
        nodes = []
        for idx, nd in enumerate(nodes_raw):
            if not isinstance(nd, dict):
                raise GraphFileSemanticError(line_no, f"node {idx} is not an object")
            text = nd.get("text")
            if text is not None and not isinstance(text, str):
                raise GraphFileSemanticError(line_no, f"node {idx} 'text' is not a string")
            nodes.append(NodeRecord(text=text))
        edges_raw = obj.get("edges", [])
        if not isinstance(edges_raw, list):
            raise GraphFileSemanticError(line_no, "'edges' must be an array")
        edges = []
        for k, e in enumerate(edges_raw):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            ):
                raise GraphFileSemanticError(line_no, f"edge {k} must be a two-int array")
            if not (0 <= e[0] < len(nodes) and 0 <= e[1] < len(nodes)):
                raise GraphFileSemanticError(line_no, f"edge {k} index out of range: {e}")
            edges.append((e[0], e[1]))
    if len(nodes) > size_cap:
        raise GraphFileSemanticError(
            line_no, f"graph {gid!r} has {len(nodes)} nodes, exceeding the size cap of {size_cap}"
        )
    label = obj.get("label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
        raise GraphFileSemanticError(line_no, "'label' must be an integer")
    if smiles is not None and not isinstance(smiles, str):
        raise GraphFileSemanticError(line_no, "'smiles' must be a string")
    try:
        return Graph(id=gid, nodes=tuple(nodes), edges=tuple(edges), label=label, graph_text=smiles)
    except ValidationError as exc:
        raise GraphFileSemanticError(line_no, str(exc)) from exc


def parse_graph_file(data: bytes | str, size_cap: int = DEFAULT_SIZE_CAP) -> list[Graph]:
    """One graph per non-empty line; reports line/column on JSON failures and
    on bytes that are not UTF-8."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the lines before the bad byte decode; the sentinel makes the
            # last one the bad byte's line, its length the bad byte's column
            lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
            raise GraphFileSyntaxError(len(lines), len(lines[-1]), "not UTF-8 text") from None
    else:
        text = data
    graphs: list[Graph] = []
    seen_ids: set[str] = set()
    records: dict[str, NodeRecord] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFileSyntaxError(line_no, exc.colno, exc.msg) from exc
        g = parse_graph_record(obj, line_no, size_cap, records)
        if g.id in seen_ids:
            raise GraphFileSemanticError(line_no, f"duplicate graph id {g.id!r}")
        seen_ids.add(g.id)
        graphs.append(g)
    return graphs


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


def join_labels(graphs: list[Graph], labels: dict[str, int]) -> list[Graph]:
    """Return new graphs carrying labels from the mapping, keyed by id."""
    return [replace(g, label=labels[g.id]) if g.id in labels else g for g in graphs]
