"""Downstream prompt-file emission.

Task templates are data files with a small header (task id, answer words)
and a byte-exact body containing the {{SMILES}} and {{SOG}} slots. The
renderer never rewrites template text; alternative chat dialects are
additional template files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import MissingText, UnknownTask, ValidationError
from .manifest import atomic_write

BALANCE_POLICIES = ("none", "1:1", "1:5")
SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class TaskTemplate:
    task_id: str
    body: str
    positive: str
    negative: str

    def __post_init__(self):
        if self.body.count("{{SOG}}") != 1:
            raise ValidationError(f"template {self.task_id}: need exactly one {{{{SOG}}}} slot")
        if self.body.count("{{SMILES}}") > 1:
            raise ValidationError(f"template {self.task_id}: at most one {{{{SMILES}}}} slot")
        if self.body.count("[Answer]") != 1:
            raise ValidationError(f"template {self.task_id}: need exactly one [Answer] cue")


@dataclass(frozen=True)
class PromptRecord:
    prompt: str
    answer: str
    graph_id: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split {self.split!r}")


def parse_template(text: str, origin: str = "<memory>") -> TaskTemplate:
    """Header lines '#key: value' up to a '---' line, then the verbatim body."""
    head, sep, body = text.partition("\n---\n")
    if not sep:
        raise ValidationError(f"template {origin}: missing '---' header separator")
    meta = {}
    for line in head.splitlines():
        if not line.startswith("#") or ":" not in line:
            raise ValidationError(f"template {origin}: bad header line {line!r}")
        key, _, value = line[1:].partition(":")
        meta[key.strip()] = value.strip()
    if "task" not in meta:
        raise ValidationError(f"template {origin}: missing '#task:' header")
    return TaskTemplate(
        task_id=meta["task"],
        body=body,
        positive=meta.get("positive", ""),
        negative=meta.get("negative", ""),
    )


def _template_root():
    return resources.files("sogtok") / "templates"


def list_tasks() -> list[str]:
    return sorted(p.name[: -len(".txt")] for p in _template_root().iterdir() if p.name.endswith(".txt"))


def load_template(task_id: str) -> TaskTemplate:
    path = _template_root() / f"{task_id}.txt"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise UnknownTask(f"no template for task {task_id!r}; known: {list_tasks()}") from exc
    tmpl = parse_template(text, origin=task_id)
    if tmpl.task_id != task_id:
        raise ValidationError(f"template file {task_id}.txt declares task {tmpl.task_id!r}")
    return tmpl


def render_prompt(
    tmpl: TaskTemplate, graph_id: str, text: str | None, label: int | None, token: int,
    split: str = "train",
) -> PromptRecord:
    """Byte-exact slot substitution; the body text is otherwise untouched."""
    from .train import token_text  # here, so that eval, which reads templates, loads no model stack

    body = tmpl.body
    if "{{SMILES}}" in body:
        if text is None:
            raise MissingText(f"graph {graph_id!r} has no text for the molecule slot")
        body = body.replace("{{SMILES}}", text)
    body = body.replace("{{SOG}}", token_text(token))
    answer = "" if label is None else tmpl.positive if label == 1 else tmpl.negative
    return PromptRecord(prompt=body, answer=answer, graph_id=graph_id, split=split)


def balance_split(records: list[PromptRecord], policy: str, seed: int = 0) -> list[PromptRecord]:
    """Duplicate or resample minority-class records of the training split;
    records of the other splits follow unchanged.

    1:1 duplicates the minority cyclically (seeded order) up to the
    majority count; 1:5 adjusts the minority to one-fifth of the majority.
    """
    if policy not in BALANCE_POLICIES:
        raise ValidationError(f"unknown balance policy {policy!r}")
    if policy == "none":
        return list(records)
    pool = [r for r in records if r.split == "train"]
    rest = [r for r in records if r.split != "train"]
    by_answer: dict[str, list[PromptRecord]] = {}
    for r in pool:
        if not r.answer:
            raise ValidationError(f"record {r.graph_id!r} has no label for balancing")
        by_answer.setdefault(r.answer, []).append(r)
    if len(by_answer) != 2:
        raise ValidationError(
            f"balancing expects exactly two classes, found {sorted(by_answer)}"
        )
    (minority, min_records), (_, maj_records) = sorted(
        by_answer.items(), key=lambda kv: len(kv[1])
    )
    rng = np.random.default_rng(seed)
    target = len(maj_records) if policy == "1:1" else max(1, len(maj_records) // 5)
    out = list(pool)
    if len(min_records) < target:
        order = rng.permutation(len(min_records))
        extra = target - len(min_records)
        out.extend(min_records[order[i % len(min_records)]] for i in range(extra))
    elif len(min_records) > target:
        order = rng.permutation(len(min_records))
        kept_positions = set(order[:target].tolist())
        pos = -1
        out = []
        for r in pool:
            if r.answer == minority:
                pos += 1
                if pos not in kept_positions:
                    continue
            out.append(r)
    return out + rest


def prompt_lines(records: list[PromptRecord]) -> dict[str, list[str]]:
    """Serialize records into per-split JSONL lines, input order preserved."""
    lines: dict[str, list[str]] = {name: [] for name in SPLITS}
    for r in records:
        lines[r.split].append(
            json.dumps(
                {"prompt": r.prompt, "answer": r.answer, "id": r.graph_id, "split": r.split},
                sort_keys=True,
            )
        )
    return lines


def write_prompt_files(records: list[PromptRecord], outdir, manifest: dict) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for split, rows in prompt_lines(records).items():
        with atomic_write(outdir / f"{split}.jsonl") as fh:
            for row in rows:
                fh.write(row + "\n")
    payload = dict(manifest)
    payload["config_hash"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode("utf-8")
    ).hexdigest()
    with atomic_write(outdir / "prompts_manifest.json") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
