"""Every code name that README.md gives as `module.name` or
`module.Class.attr` exists in sogtok, so a change that deletes or renames
a documented name fails here at once, not when a reader looks for it."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import sogtok

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(sogtok.__path__)}
# `manifest.json` and the like name files, not code
FILE_SUFFIXES = {"csv", "json", "jsonl", "py", "sogtok", "tsv", "txt"}


def _documented_names() -> list[str]:
    spans = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*){1,2})`",
                       README.read_text(encoding="utf-8"))
    return sorted({s for s in spans if s.split(".")[0] in MODULES and s.rsplit(".", 1)[1] not in FILE_SUFFIXES})


def _resolves(name: str) -> bool:
    """module.name, or module.Class.attr, where a dataclass field counts as
    an attribute of its class."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"sogtok.{module}")
    for part in path:
        if hasattr(owner, part):
            owner = getattr(owner, part)
        else:
            return dataclasses.is_dataclass(owner) and part in {f.name for f in dataclasses.fields(owner)}
    return True


def test_readme_code_names_resolve():
    names = _documented_names()
    assert {"model.forward", "train.EncodedBlock.ranked", "graph.hop_distances"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
