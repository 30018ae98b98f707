import json
from pathlib import Path

import pytest

from sogtok.errors import MissingText, UnknownTask, ValidationError
from sogtok.prompts import (
    PromptRecord,
    balance_split,
    list_tasks,
    load_template,
    parse_template,
    render_prompt,
    write_prompt_files,
)

from conftest import make_graph

GOLDEN_DIR = Path(__file__).parent / "golden"

MOLECULE_TASKS = [
    "BBBP_p_np",
    "Tox21_NR-AR",
    "Tox21_NR-AR-LBD",
    "Tox21_NR-AhR",
    "Tox21_NR-Aromatase",
    "Tox21_NR-ER",
    "Tox21_NR-ER-LBD",
    "Tox21_NR-PPAR-gamma",
    "Tox21_SR-ARE",
    "Tox21_SR-ATAD5",
    "Tox21_SR-HSE",
    "Tox21_SR-MMP",
    "Tox21_SR-p53",
    "ClinTox_FDA_APPROVED",
    "ClinTox_CT_TOX",
    "HIV_HIV_active",
    "BACE_Class",
]


def test_all_seventeen_templates_ship():
    tasks = list_tasks()
    for t in MOLECULE_TASKS:
        assert t in tasks


def test_unknown_task():
    with pytest.raises(UnknownTask):
        load_template("NoSuchTask")


def test_template_parse_rejects_missing_separator():
    with pytest.raises(ValidationError):
        parse_template("#task: X\nno separator {{SOG}}")


def test_template_slot_validation():
    with pytest.raises(ValidationError):
        parse_template("#task: X\n---\nno token slot [Answer]")


def test_render_bbbp():
    tmpl = load_template("BBBP_p_np")
    g = make_graph(3, [(0, 1), (1, 2)], gid="m1", label=1, text="CCO")
    rec = render_prompt(tmpl, g.id, g.graph_text, g.label, 3)
    assert "[Molecule] CCO" in rec.prompt
    assert "[Structure Token] <SOG_3>" in rec.prompt
    assert rec.prompt.endswith("<|end_header_id|>")
    assert rec.prompt.startswith("<|begin_of_text|>")
    assert rec.answer == "True"
    assert "{{" not in rec.prompt


def test_render_negative_label():
    tmpl = load_template("HIV_HIV_active")
    g = make_graph(2, [(0, 1)], gid="m2", label=0, text="CC")
    assert render_prompt(tmpl, g.id, g.graph_text, g.label, 0).answer == "False"


def test_render_missing_text():
    tmpl = load_template("BACE_Class")
    g = make_graph(2, [(0, 1)], gid="m3", label=1)
    with pytest.raises(MissingText):
        render_prompt(tmpl, g.id, g.graph_text, g.label, 0)


def test_render_deterministic():
    tmpl = load_template("Tox21_SR-p53")
    g = make_graph(2, [(0, 1)], gid="m4", label=0, text="C=C")
    r1 = render_prompt(tmpl, g.id, g.graph_text, g.label, 9)
    r2 = render_prompt(tmpl, g.id, g.graph_text, g.label, 9)
    assert r1 == r2


def test_node_template_renders_without_molecule_error():
    tmpl = load_template("NodePaper")
    g = make_graph(2, [(0, 1)], gid="n1", text="A paper about graphs")
    rec = render_prompt(tmpl, g.id, g.graph_text, g.label, 4)
    assert "[Paper] A paper about graphs" in rec.prompt


@pytest.mark.parametrize("task", MOLECULE_TASKS + ["NodePaper"])
def test_golden_prompts(task):
    tmpl = load_template(task)
    g = make_graph(3, [(0, 1), (1, 2)], gid="golden", label=1, text="CCO")
    rec = render_prompt(tmpl, g.id, g.graph_text, g.label, 3)
    golden = (GOLDEN_DIR / f"{task}.golden.txt").read_bytes()
    assert rec.prompt.encode("utf-8") == golden


def _records(pos, neg, split="train"):
    out = []
    for i in range(pos):
        out.append(PromptRecord(prompt="p", answer="True", graph_id=f"p{i}", split=split))
    for i in range(neg):
        out.append(PromptRecord(prompt="p", answer="False", graph_id=f"n{i}", split=split))
    return out


def test_balance_one_to_one():
    balanced = balance_split(_records(10, 90), "1:1", seed=0)
    answers = [r.answer for r in balanced]
    assert answers.count("True") == answers.count("False") == 90
    assert len(balanced) == 180
    # id multiset of distinct ids preserved
    assert {r.graph_id for r in balanced} == {r.graph_id for r in _records(10, 90)}


def test_balance_already_balanced():
    records = _records(5, 5)
    assert balance_split(records, "1:1", seed=0) == records


def test_balance_none_identity():
    records = _records(3, 8)
    assert balance_split(records, "none", seed=0) == records


def test_balance_one_to_five():
    balanced = balance_split(_records(2, 100), "1:5", seed=0)
    answers = [r.answer for r in balanced]
    assert answers.count("True") == 20
    assert answers.count("False") == 100


def test_balance_one_to_five_subsamples():
    balanced = balance_split(_records(50, 100), "1:5", seed=0)
    answers = [r.answer for r in balanced]
    assert answers.count("True") == 20


def test_balance_leaves_eval_splits_unchanged():
    held_out = _records(1, 4, split="valid") + _records(2, 3, split="test")
    balanced = balance_split(_records(2, 3) + held_out, "1:1", seed=0)
    assert [r.answer for r in balanced if r.split == "train"].count("True") == 3
    assert balanced[-len(held_out):] == held_out


def test_balance_requires_labels():
    records = [PromptRecord(prompt="p", answer="", graph_id="x", split="train")]
    with pytest.raises(ValidationError):
        balance_split(records, "1:1", seed=0)


def test_balance_deterministic():
    a = balance_split(_records(3, 10), "1:1", seed=4)
    b = balance_split(_records(3, 10), "1:1", seed=4)
    assert a == b


def test_write_prompt_files(tmp_path):
    records = (
        _records(2, 2)
        + _records(1, 1, split="valid")
        + _records(1, 2, split="test")
    )
    write_prompt_files(records, tmp_path, {"policy": "none", "seed": 0})
    train_rows = (tmp_path / "train.jsonl").read_text().splitlines()
    assert len(train_rows) == 4
    assert len((tmp_path / "valid.jsonl").read_text().splitlines()) == 2
    assert len((tmp_path / "test.jsonl").read_text().splitlines()) == 3
    row = json.loads(train_rows[0])
    assert set(row) == {"prompt", "answer", "id", "split"}
    manifest = json.loads((tmp_path / "prompts_manifest.json").read_text())
    assert "config_hash" in manifest and manifest["policy"] == "none"


def test_write_prompt_files_empty(tmp_path):
    write_prompt_files([], tmp_path, {"policy": "none"})
    for split in ("train", "valid", "test"):
        assert (tmp_path / f"{split}.jsonl").read_text() == ""
