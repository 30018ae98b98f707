#!/usr/bin/env bash
# Full pipeline demo: synthesize data, train, tokenize, generate corpora
# and prompts, evaluate a mock response file, and export analyses.
# Runs from a checkout: the package is imported from <repo>/src.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}"
sogtok() { python3 -m sogtok.cli "$@"; }

OUT="${1:-/tmp/sogtok-demo}"
SEED=7

python3 "$REPO/scripts/make_synthetic_data.py" --out "$OUT/data" --seed $SEED

sogtok train --data "$OUT/data/molecules.jsonl" --out "$OUT/model" \
    --k 16 --seed $SEED --warmup-epochs 15 --epochs 20 \
    --lr-gcn 0.0002 --lr-codebook 0.005 --batch-size 10 --global-share 0.5

sogtok tokenize --data "$OUT/data/molecules.jsonl" \
    --checkpoint "$OUT/model/model.sogtok" --out "$OUT/tokens"

sogtok tokenize --data "$OUT/data/families.jsonl" \
    --checkpoint "$OUT/model/model.sogtok" --out "$OUT/node-tokens" \
    --node-level --hops 2

# similarity thresholds matched to this corpus's embedding geometry
# (decorated ring systems sit closer together than unrelated graphs)
sogtok gen-corpus --data "$OUT/data/molecules.jsonl" \
    --checkpoint "$OUT/model/model.sogtok" --out "$OUT/corpus" --seed $SEED \
    --tau-pos 0.98 --tau-neg 0.85

sogtok gen-prompts --data "$OUT/data/molecules.jsonl" \
    --checkpoint "$OUT/model/model.sogtok" --out "$OUT/prompts" \
    --seed $SEED --task BBBP_p_np --balance 1:1

# mock generation output: echo the target answers with some noise
python3 - "$OUT" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
rows = []
for line in (out / "prompts" / "test.jsonl").read_text().splitlines():
    rec = json.loads(line)
    rows.append(json.dumps({"id": rec["id"], "text": rec["answer"] or "True"}))
(out / "responses.jsonl").write_text("\n".join(rows) + "\n")
EOF

sogtok eval --responses "$OUT/responses.jsonl" \
    --data "$OUT/data/molecules.jsonl" --task BBBP_p_np --out "$OUT/eval"

sogtok stats --data "$OUT/data/molecules.jsonl" \
    --checkpoint "$OUT/model/model.sogtok" --out "$OUT/stats" \
    --seed $SEED --corr-first 16

echo "artifacts under $OUT"
