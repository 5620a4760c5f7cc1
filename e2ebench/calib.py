"""Host reference kernel: a fixed pure-Python workload timed around every
measured phase, so host time can be expressed in units of the machine's
current speed (``wall_norm``).

The mix (dict stores, attribute updates, method calls, ``heapq``) is the
same kind of work the simulator's inner loop does; it allocates little
and touches a small working set, so its time tracks the CPU speed the
simulator sees rather than memory pressure.
"""

from __future__ import annotations

import heapq
import time

#: iterations of the kernel loop: ~50 ms on a 2-vCPU Xeon cloud VM
N_STEPS = 40_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0

    def bump(self, delta: int) -> int:
        self.value = (self.value + delta) & 0xFFFF
        return self.value


def kernel(n_steps: int = N_STEPS) -> int:
    """Run the fixed workload; returns a checksum so nothing is elided."""
    cells = [_Cell(k) for k in range(64)]
    table = {}
    heap = []
    acc = 0
    for i in range(n_steps):
        cell = cells[i & 63]
        v = cell.bump(i)
        table[v & 1023] = cell.key
        heapq.heappush(heap, (v, i))
        if len(heap) > 128:
            acc += heapq.heappop(heap)[0]
    return acc + len(table)


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
