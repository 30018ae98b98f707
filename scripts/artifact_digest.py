#!/usr/bin/env python3
"""Print the sha256 of every artifact under OUT except manifest.json files.

    python3 scripts/artifact_digest.py OUT > digests.txt

One line per file, `<sha256>  <path relative to OUT>`, sorted by path. The
manifests are left out because they record run-varying data (created_at,
stage durations, peak RSS). To check that a change keeps every artifact
byte-identical, run scripts/end_to_end.sh on both versions, into the same
OUT or two different ones, list each run with this script, and diff the two
listings.
"""

import hashlib
import sys
from pathlib import Path


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digest.py OUT", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 1
    for line in digests(root):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
