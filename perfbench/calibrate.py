"""A fixed reference kernel that gauges how fast this machine runs right now.

Shared machines drift: the same stage can take 20 % more CPU time for minutes
at a time, and again less after. The kernel does the same kinds of work as
sogtok (small-graph Python bookkeeping, JSON and hashing, small dense
products and the broadcast nearest-entry search of `quantize` and `kmeans`)
on fixed inputs, without importing sogtok, so a change to the package cannot
change it. The harness runs it in a fresh process before the first timed
stage and after every stage, and scales the CPU seconds of a stage by
REFERENCE_S / (median kernel time around it). That expresses them in seconds
of a CPU on which the kernel takes REFERENCE_S.

    python3 perfbench/calibrate.py 3   # prints the CPU seconds of 3 calls
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

# about the median CPU seconds of one kernel call on the machine the baseline
# was measured on (2 vCPU Intel Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread)
REFERENCE_S = 0.45
GRAPHS, K, D, ROWS, ROUNDS = 500, 256, 64, 300, 2


def kernel() -> int:
    rng = np.random.default_rng(12345)
    codebook = rng.normal(size=(K, D))
    w1 = rng.normal(size=(D, D)) * 0.1
    w2 = rng.normal(size=(D, D)) * 0.1
    checksum = 0
    for g in range(GRAPHS):
        n = 8 + g % 11
        neighbours: dict[int, set[int]] = {i: set() for i in range(n)}
        for i in range(n):
            j = (i + 1 + g % 3) % n
            neighbours[i].add(j)
            neighbours[j].add(i)
        a = np.zeros((n, n))
        for i, nbs in neighbours.items():
            for j in sorted(nbs):
                a[i, j] = 1.0
        a_hat = a + np.eye(n)
        inv = 1.0 / np.sqrt(a_hat.sum(axis=1))
        anorm = a_hat * inv[:, None] * inv[None, :]
        x = rng.normal(size=(n, D))
        h = anorm @ np.maximum(anorm @ x @ w1, 0.0) @ w2
        d2 = ((h[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
        tokens = d2.argmin(axis=1)
        text = json.dumps({"id": f"g{g}", "tokens": [int(t) for t in tokens]})
        checksum ^= int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)
    rows = rng.normal(size=(ROWS, D))
    centers = codebook.copy()
    for _ in range(ROUNDS):
        assign = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for j in range(K):
            members = rows[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return checksum ^ int(assign.sum())


def measure() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


if __name__ == "__main__":
    import sys

    kernel()  # warm-up: first-call costs are not the machine's speed
    print(json.dumps([measure() for _ in range(int(sys.argv[1]))]))
