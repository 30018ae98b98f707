"""Span recorder that wraps sogtok's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules, and
the methods in METHODS, with a wrapper that records one span per call: name,
start, end and parent span. The wrapper is bound in every namespace that
holds the original, including names imported into other modules and
dispatch tables, so no call escapes the trace. Spans stay in memory until
`write()`. A span's self time is its duration minus the time its child spans
cover. Probes read exact counts from call arguments and results; they never
time anything.
"""

from __future__ import annotations

import copy
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
import types
import warnings
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("ingest", "smiles", "graph", "attributes", "model", "train", "corpus",
           "prompts", "metrics", "scaffold", "manifest", "cli")
METHODS = (("model", "Adam", "step"), ("attributes", "HashingEmbedder", "embed"))
# Functions whose peak allocation is recorded. Their calls are replayed with
# the same arguments after the traced pass, under tracemalloc, because
# tracing every allocation would inflate the self times of the pass itself.
ALLOC_TRACED = ("train.kmeans", "corpus.gen_simjudge_records")


class SpanRecorder:
    """Spans in flat arrays: name id, parent index (-1 for a root), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def table(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        m = len(self.names)
        calls = np.bincount(name, minlength=m)
        total = np.bincount(name, weights=dur, minlength=m)
        self_s = np.bincount(name, weights=own, minlength=m)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _copy_generators(args):
    if isinstance(args, dict):
        return {k: copy.deepcopy(v) if isinstance(v, np.random.Generator) else v
                for k, v in args.items()}
    return tuple(copy.deepcopy(v) if isinstance(v, np.random.Generator) else v for v in args)


def _flat(values):
    for v in values:
        yield from (v if isinstance(v, tuple) else (v,))


class Tracer:
    def __init__(self):
        self.spans = SpanRecorder()
        self.counts: dict[str, float] = defaultdict(float)
        self._embed_seen: dict[int, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []
        self._replays: list[tuple] = []
        self._probes = {
            "model.quantize": self._probe_quantize,
            "train.kmeans": self._probe_kmeans,
            "train.train": self._probe_train,
            "ingest.parse_graph_file": self._probe_parse,
            "corpus.gen_simjudge_records": self._probe_simjudge,
            "attributes.HashingEmbedder.embed": self._probe_embed,
        }

    # probes: exact counts from arguments and results

    def _probe_quantize(self, sig, args, kwargs, result):
        a = _bound(sig, args, kwargs)
        rows = a["h"].shape[0]
        k, d = a["cb"].entries.shape
        self.counts["model.quantize.rows"] += rows
        self.counts["model.quantize.computed_bytes"] += rows * k * d * 8

    def _probe_kmeans(self, sig, args, kwargs, result):
        a = _bound(sig, args, kwargs)
        n, d = a["rows"].shape
        self.counts["train.kmeans.computed_bytes"] += n * a["k"] * d * 8 * a["iters"]

    def _probe_train(self, sig, args, kwargs, result):
        a = _bound(sig, args, kwargs)
        cfg = a["cfg"]
        self.counts["train.graph_epochs"] += len(a["dataset"]) * (cfg.warmup_epochs + cfg.joint_epochs)

    def _probe_parse(self, sig, args, kwargs, result):
        self.counts["ingest.graphs"] += len(result)

    def _probe_simjudge(self, sig, args, kwargs, result):
        n = len(_bound(sig, args, kwargs)["ids"])
        self.counts["corpus.simjudge.pairs_scanned"] += n * (n - 1) // 2
        self.counts["corpus.simjudge.pairs_emitted"] += len(result)

    def _probe_embed(self, sig, args, kwargs, result):
        embedder, text = args[0], args[1] if len(args) > 1 else kwargs["text"]
        seen = self._embed_seen[id(embedder)]
        self.counts["attributes.embed.calls"] += 1
        if text in seen:
            self.counts["attributes.embed.repeats"] += 1
        else:
            seen.add(text)

    # wrapping

    def _wrap(self, name: str, fn):
        rec = self.spans
        nid = rec.name_id(name)
        begin, finish = rec.begin, rec.finish
        probe = self._probes.get(name)
        alloc = name in ALLOC_TRACED

        if probe is None and not alloc:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(idx)
            return wrapper

        replays = self._replays
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if alloc:
                # generators are copied so the replay draws the same numbers
                replays.append((name, fn, _copy_generators(args), _copy_generators(kwargs)))
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if probe is not None:
                probe(sig, args, kwargs, result)
            return result
        return probed

    def replay_allocations(self) -> None:
        """Peak traced allocation of each recorded call, replayed untimed."""
        for name, fn, args, kwargs in self._replays:
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            key = f"{name}.peak_alloc_mb"
            self.counts[key] = max(self.counts[key], peak)
        self._replays.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"sogtok.{mod_name}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{mod_name}.{attr}", obj)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"sogtok.{mod_name}"), cls_name)
            self._set(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))

        def is_wrapped(value) -> bool:
            return isinstance(value, types.FunctionType) and value in wrapped

        def swap(value):
            return wrapped[value] if is_wrapped(value) else value

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sogtok" and not mod_name.startswith("sogtok."):
                continue
            for attr, obj in list(vars(mod).items()):
                if is_wrapped(obj):
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict) and any(map(is_wrapped, _flat(obj.values()))):
                    # dispatch tables, e.g. subcommand -> (handler, defaults, required)
                    self._set(mod, attr, {
                        k: tuple(map(swap, v)) if isinstance(v, tuple) else swap(v)
                        for k, v in obj.items()
                    })

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def span(self, name: str):
        idx = self.spans.begin(self.spans.name_id(name))
        try:
            yield
        finally:
            self.spans.finish(idx)

    def write(self, path: Path) -> None:
        self.spans.write(path)
        path.with_suffix(".counts.json").write_text(
            json.dumps(dict(self.counts), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
