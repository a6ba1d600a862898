"""A fixed task whose time says how fast the box runs at the moment.

Usage: python3 perfbench/reference.py

run.py starts it in a fresh interpreter a few times in every pass, the way it
starts jobs, and scales the pass's times by REF_S over this task's time (see
DESIGN.md).  It does a little of what the jobs do: interpreter start, the
numpy import, integer, dict and Fraction work in Python, and small numpy
array work.  It uses nothing of liecomm, so a change to liecomm cannot move
it.  It prints one checksum line; run.py checks it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def main() -> int:
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) % 1_000_003
    counts: dict[tuple[int, int], int] = {}
    for i in range(100_000):
        key = (i % 977, i % 13)
        counts[key] = counts.get(key, 0) + 1
    f = sum(Fraction(i, i + 1) for i in range(1, 2_000))
    a = np.arange(160_000, dtype=np.int64).reshape(20_000, 8) % 11 - 5
    rows = 0
    for _ in range(2):
        rows += len(np.unique(a[:, :4] * 3 + a[:, 4:], axis=0))
        a = np.sort(a, axis=0)[::-1].copy()
    print(x, len(counts), f.numerator % 1_000_003, rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
