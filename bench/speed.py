"""Machine speed, measured next to every timed operation.

On the 2-core machine the benchmark was built on, the time of a fixed
pure-Python loop swings by up to a factor of two within seconds (2-second
medians from 17.5 to 32.7 ms over one minute), and potnum's own operations
swing with it. Each timed operation is therefore scaled by the speed
measured just before and after it, with a fixed slice of pure-Python work
that no change to potnum can alter: a time reported by the benchmark is the
time the operation would have taken with the slice at ``REFERENCE_MS``.
"""

import statistics
import time

REFERENCE_MS = 2.0


def _slice() -> int:
    table = {}
    acc = 0
    for i in range(2500):
        key = (i, i * 7 % 13, i & 255)
        table[key] = table.get(key[1:], 0) + 1
        acc += sum(key) % 7
    return acc


def slice_ms(repeats: int = 1) -> float:
    """Time of the fixed slice, in ms; the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _slice()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


class Scaled:
    """Operation times, scaled block by block: after every ``block``
    operations the slice is timed again, and the block's times are scaled
    by REFERENCE_MS over the mean of the slice times around it."""

    def __init__(self, block: int = 1, repeats: int = 1):
        self.block, self.repeats = block, repeats
        self.before = slice_ms(repeats)
        self.pending = []
        self.raw_ms = []
        self.ms = []

    def add(self, ns: int) -> None:
        self.pending.append(ns / 1e6)
        if len(self.pending) >= self.block:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = slice_ms(self.repeats)
        factor = 2 * REFERENCE_MS / (self.before + after)
        self.raw_ms += self.pending
        self.ms += [ms * factor for ms in self.pending]
        self.before, self.pending = after, []
