"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of per cent
over tens of seconds, in CPU time as much as in wall time.  A RefClock runs
this kernel right before and right after each measured operation and
rescales the operation's CPU time to a host on which the kernel takes
REF_S seconds.  The kernel is part of the benchmark, not of lusinkit, so a
change to lusinkit leaves it alone: half interpreter work, half a numpy
sort, like lusinkit's own mix.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

REF_S = 0.1
_LOOP = 500_000
_SORTS = 30
_ARRAY = np.random.default_rng(0).standard_normal(200_000)


def reference_cpu_s() -> float:
    """CPU seconds this process takes for one run of the kernel."""
    c0 = time.process_time()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for _ in range(_SORTS):
        np.sort(_ARRAY)
    return time.process_time() - c0


class RefClock:
    """Times operations in CPU seconds, raw and at reference speed.

    `cpu_s` is the CPU clock of the processes that do the work: this one's,
    or that of its waited-for children.  The kernel runs before the first
    operation and after each one, and an operation is rescaled by the mean
    of the kernel times on either side of it.
    """

    def __init__(self, cpu_s):
        self.cpu_s = cpu_s
        self.ref = [reference_cpu_s()]
        self.cpu: list[float] = []
        self.at_ref: list[float] = []

    @contextlib.contextmanager
    def op(self):
        c0 = self.cpu_s()
        yield
        spent = self.cpu_s() - c0
        self.ref.append(reference_cpu_s())
        self.cpu.append(spent)
        self.at_ref.append(spent * REF_S / ((self.ref[-2] + self.ref[-1]) / 2.0))

    def pass_times(self) -> dict:
        return {"ops_s": self.at_ref, "pass_cpu_s": sum(self.cpu), "ref_cpu_s": self.ref}


def pass_s(passes) -> float:
    """Sum over a pass's operations of each one's median over the passes."""
    return sum(map(statistics.median, zip(*(p["ops_s"] for p in passes))))
