"""Run manifests: full materialized config, seed, input checksums.

The manifest is the replay unit: re-running a subcommand from a manifest
reproduces every output byte-for-byte. Timestamps live only here, never in
output artifacts.
"""

from __future__ import annotations

import hashlib
import json
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


def build_manifest(command: str, config: dict, seed: int | None, inputs: list) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "input_checksums": {str(p): file_checksum(p) for p in sorted(map(str, inputs))},
        "tool_version": TOOL_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
