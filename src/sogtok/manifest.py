"""Run manifests and the one artifact writer.

The manifest is the replay unit: full materialized config, seed and input
checksums; re-running a subcommand from a manifest reproduces every output
byte-for-byte. Timestamps live only here, never in output artifacts.
Every artifact, the manifest included, is written through `atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from .errors import ValidationError

TOOL_VERSION = "0.1.0"


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_write(path, binary: bool = False):
    """A handle on a temporary file beside path, renamed over path when the
    block ends. On any exception the temporary file is removed and path is
    left as it was, so no reader ever sees a partial artifact. Text is UTF-8."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_manifest(command: str, config: dict, seed: int | None, inputs: dict) -> dict:
    """inputs maps a setting name to the file it names; each file is
    checksummed under that name, so the record does not depend on paths."""
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "input_checksums": {name: file_checksum(path) for name, path in sorted(inputs.items())},
        "tool_version": TOOL_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, path) -> None:
    with atomic_write(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path) -> dict:
    """A manifest object with a string `command` and an object `config`."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"manifest {path}: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {path}: not a JSON object")
    if not isinstance(manifest.get("command"), str):
        raise ValidationError(f"manifest {path}: missing or non-string 'command'")
    if not isinstance(manifest.get("config"), dict):
        raise ValidationError(f"manifest {path}: missing or non-object 'config'")
    return manifest
