"""The benchmark's per-layer self times are read from spans that its tracer
opens around named sogtok functions. A name in BENCHMARK.json that no longer
resolves fails only after a full traced run; this test fails at once."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
