"""A fixed block of interpreter work that measures how fast this machine runs now.

On a shared VM the interpreter's speed drifts by 10-35% over tens of seconds,
and over such spans the workloads' commands drift with this block.  A run times
the block many times, spread over the run in proportion to the time spent in
tsl commands, and scales its wall times by
``REFERENCE_S / typical_block(times)``.  The block mixes
the three kinds of work the workloads do: tuple composition into a set and a
dict (closure), Fraction Gauss-Jordan elimination (exact solves) and 64-bit
integer mixing through method calls (the SplitMix64 draw loop).  It does not
import tsl, so no change to the library changes the block.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# About the typical block time on 2 vCPUs of an Intel Xeon (Sapphire Rapids,
# 2.1 GHz) with Python 3.11.7, when the benchmark was defined.  A scaled time
# is the wall time the same work would have taken at that speed.
REFERENCE_S = 0.035

_MASK = (1 << 64) - 1
_rng = random.Random(20261017)
_MAPS = [tuple(_rng.randrange(5) for _ in range(5)) for _ in range(160)]
_MATRIX = [[Fraction(_rng.randrange(1, 9), _rng.randrange(1, 9)) for _ in range(12)]
           for _ in range(11)]


class _Mixer:
    def __init__(self, state: int):
        self.state = state

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


def _compose() -> int:
    index: dict[tuple, int] = {}
    fresh = set()
    for a in _MAPS:
        for b in _MAPS[:90]:
            p = tuple(a[v] for v in b)
            if p not in index:
                fresh.add(p)
                index[p] = len(index)
    return len(sorted(fresh))


def _solve() -> Fraction:
    rows = [row[:] for row in _MATRIX]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return sum(row[-1] for row in rows)


def _draw() -> int:
    mixer, hits = _Mixer(1), 0
    for _ in range(16000):
        if mixer.next() >> 63:
            hits += 1
    return hits


def block() -> tuple:
    """One block of work; the result is the same on every call."""
    return _compose(), _solve(), _draw()


EXPECTED = block()


def time_block() -> float:
    """Wall seconds for one block; raises if the block computed a wrong result."""
    started = time.perf_counter()
    result = block()
    seconds = time.perf_counter() - started
    if result != EXPECTED:
        raise RuntimeError("calibration block gave a different result")
    return seconds


def typical_block(times: list[float]) -> float:
    """Mean block time without the fastest and slowest tenth: a block that a
    preemption or a collection cut into is dropped, the drift is kept."""
    ordered = sorted(times)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])
