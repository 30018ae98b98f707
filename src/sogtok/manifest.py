"""Run manifests and the one artifact writer.

The manifest is the replay unit: full materialized config, seed and input
checksums; re-running a subcommand from a manifest reproduces every output
byte-for-byte. Timestamps live only here, never in output artifacts.
Every artifact, the manifest included, is written through `atomic_write`,
every JSON text read goes through `decode_json`, and every line-based input
is read by `numbered_lines`. The default size cap of a graph file's records
is declared here too, so that the CLI reads it without loading NumPy.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from .errors import ValidationError

TOOL_VERSION = "0.1.0"
DEFAULT_SIZE_CAP = 512  # most nodes a graph file's record may have, unless --size-cap says otherwise


def decode_json(text: str):
    """json.loads(text), raising ValueError for every text it does not
    decode: json.JSONDecodeError at a syntax fault, a plain ValueError when
    the nesting is too deep for the decoder or an integer has more digits
    than int() converts (sys.get_int_max_str_digits)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ValueError("an integer has too many digits to decode") from None


# a line and the break that ends it: str.splitlines()'s breaks but U+0085, U+2028 and U+2029
_LINE = re.compile(r"([^\n\r\v\f\x1c-\x1e]*)(?:\r\n|[\n\r\v\f\x1c-\x1e]|\Z)")


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each non-blank line of text and its number: the lines of str.splitlines(),
    but U+0085, U+2028 and U+2029, which a JSON string may hold raw (RFC 8259
    forbids every other break there), do not end a line."""
    return ((k, m[1]) for k, m in enumerate(_LINE.finditer(text), start=1) if m[1].strip())


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
    """inputs maps a setting name to the bytes read from the file it names;
    they are checksummed under that name, so the record does not depend on
    paths."""
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "input_checksums": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(inputs.items())},
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
        manifest = decode_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"manifest {path}: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {path}: not a JSON object")
    if not isinstance(manifest.get("command"), str):
        raise ValidationError(f"manifest {path}: missing or non-string 'command'")
    if not isinstance(manifest.get("config"), dict):
        raise ValidationError(f"manifest {path}: missing or non-object 'config'")
    return manifest
