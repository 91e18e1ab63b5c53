"""A fixed pure-Python loop that measures how fast the machine runs now.

The loop does what the solvers do most: tuple keys in dicts, heap pushes
and pops, small-integer arithmetic.  It does not touch dyncong, so no change
to the program can move it.  Each query child runs it right before and right
after its query; the benchmark scales the query's time by ``REFERENCE_S``
over the mean of the two loop times, which cancels the drift of a shared machine's speed.  The table stays
small, so the loop does not raise a child's peak memory.
"""

from __future__ import annotations

import heapq
import time

ROUNDS = 100_000
# The loop time that defines the scale: a scaled time is what the query
# would take on a machine that runs the loop in REFERENCE_S seconds.
REFERENCE_S = 0.1


def _work(rounds: int) -> int:
    table: dict = {}
    heap: list = []
    total = 0
    for i in range(rounds):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i & 15)
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 256:
            total += heapq.heappop(heap)
    return total + sum(table.values())


def seconds() -> float:
    started = time.perf_counter()
    _work(ROUNDS)
    return time.perf_counter() - started
