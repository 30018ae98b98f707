"""The benchmark's per-layer self times are read from spans that its tracer
opens around named sogtok functions, and its set-up imports sogtok names. A
name in BENCHMARK.json that no longer resolves fails only after a full
traced run, and a missing import only at benchmark set-up; these tests fail
at once."""

import ast
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PERFBENCH = BENCHMARK.parent / "perfbench"


def _resolves(name: str) -> bool:
    """module.function, a public function defined in sogtok.<module> itself,
    or module.Class.method."""
    module, *path = name.split(".")
    mod = importlib.import_module(f"sogtok.{module}")
    if len(path) == 1:
        fn = getattr(mod, path[0], None)
        return (not path[0].startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__)
    cls_name, method = path
    cls = getattr(mod, cls_name, None)
    return inspect.isclass(cls) and inspect.isfunction(getattr(cls, method, None))


def test_benchmark_traced_functions_are_defined():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    names = [m["name"].removesuffix(".self_s") for m in metrics if m["name"].endswith(".self_s")]
    assert names
    assert [name for name in names if not _resolves(name)] == []


def _perfbench_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of each `from sogtok.<module> import <name>`
    in perfbench/*.py, wherever it stands in the file."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sogtok."):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_perfbench_imports_resolve():
    imports = _perfbench_imports()
    assert ("workloads.py", "sogtok.smiles", "to_graph") in imports
    missing = [imp for imp in imports if not hasattr(importlib.import_module(imp[1]), imp[2])]
    assert missing == []
