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

from .errors import GraphFileSemanticError, GraphFileSyntaxError, SmilesError, ValidationError
from .graph import DEFAULT_SIZE_CAP, Graph, NodeRecord
from .smiles import parse_smiles, to_graph


def parse_graph_record(obj: dict, line_no: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if not isinstance(obj, dict):
        raise GraphFileSemanticError(line_no, "record is not an object")
    gid = obj.get("id")
    if not isinstance(gid, str) or not gid:
        raise GraphFileSemanticError(line_no, "missing or empty 'id'")
    if "nodes" not in obj and isinstance(obj.get("smiles"), str):
        # molecule shorthand: topology comes from the SMILES string
        try:
            g = to_graph(parse_smiles(obj["smiles"]), graph_id=gid)
        except SmilesError as exc:
            raise GraphFileSemanticError(line_no, f"bad smiles: {exc}") from exc
        label = obj.get("label")
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise GraphFileSemanticError(line_no, "'label' must be an integer")
        return Graph(
            id=gid, nodes=g.nodes, edges=g.edges, label=label,
            graph_text=obj["smiles"], size_cap=size_cap,
        )
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
        nodes.append(NodeRecord(index=idx, text=text, is_global=False))
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
    label = obj.get("label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
        raise GraphFileSemanticError(line_no, "'label' must be an integer")
    smiles = obj.get("smiles")
    if smiles is not None and not isinstance(smiles, str):
        raise GraphFileSemanticError(line_no, "'smiles' must be a string")
    try:
        return Graph(
            id=gid,
            nodes=tuple(nodes),
            edges=tuple(edges),
            label=label,
            graph_text=smiles,
            size_cap=size_cap,
        )
    except ValidationError as exc:
        raise GraphFileSemanticError(line_no, str(exc)) from exc


def parse_graph_file(data: bytes | str, size_cap: int = DEFAULT_SIZE_CAP) -> list[Graph]:
    """One graph per non-empty line; reports line/column on JSON failures."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    graphs: list[Graph] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFileSyntaxError(line_no, exc.colno, exc.msg) from exc
        g = parse_graph_record(obj, line_no, size_cap=size_cap)
        if g.id in seen_ids:
            raise GraphFileSemanticError(line_no, f"duplicate graph id {g.id!r}")
        seen_ids.add(g.id)
        graphs.append(g)
    return graphs


def write_graph_file(graphs: list[Graph], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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


def parse_label_csv(text: str) -> dict[str, int]:
    """``id,label`` rows; a header row with those exact names is skipped."""
    out: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text))
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if row_no == 1 and [c.strip().lower() for c in row[:2]] == ["id", "label"]:
            continue
        if len(row) < 2:
            raise GraphFileSyntaxError(row_no, 1, "expected 'id,label'")
        try:
            out[row[0]] = int(row[1])
        except ValueError as exc:
            raise GraphFileSemanticError(row_no, f"label {row[1]!r} is not an integer") from exc
    return out


def join_labels(graphs: list[Graph], labels: dict[str, int]) -> list[Graph]:
    """Return new graphs carrying labels from the mapping, keyed by id."""
    out = []
    for g in graphs:
        if g.id in labels:
            out.append(
                Graph(
                    id=g.id,
                    nodes=g.nodes,
                    edges=g.edges,
                    label=labels[g.id],
                    graph_text=g.graph_text,
                    size_cap=g.size_cap,
                )
            )
        else:
            out.append(g)
    return out
