"""A fixed pure-Python kernel that measures how fast the host is right now.

On a shared host, other tenants slow every run by up to half for tens of
seconds at a time, so raw host times drift between invocations far more
than any change worth measuring.  The kernel below has the simulator's
instruction mix -- a heap-ordered event loop, dict lookups, slotted
objects and bound-method calls -- so a busy phase slows it by about the
same factor.  Timing it right after each simulation run and scaling the
run by the ratio cancels most of that drift.

The kernel is part of the benchmark, not of the simulator: a change to
``src/repro`` cannot move it.
"""

from __future__ import annotations

import heapq
import time

# Median calibration time on the host the benchmark was tuned on (a
# 2-vCPU x86-64 VM at 2.1 GHz, CPython 3.11).  Calibrated host times are
# expressed as if measured on that host.
REFERENCE_S = 0.20

_EVENTS = 120_000
_LINES = 4099
_CAPACITY = 512


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class _Kernel:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.now = 0
        self.lines: dict = {}

    def schedule(self, delay: int, callback, arg: int) -> None:
        heapq.heappush(self.queue, (self.now + delay, self.seq, callback, arg))
        self.seq += 1

    def access(self, addr: int) -> None:
        line = self.lines.get(addr)
        if line is None:
            if len(self.lines) >= _CAPACITY:
                self.lines.pop(next(iter(self.lines)))
            self.lines[addr] = _Line(addr)
            self.schedule(30, self.done, addr)
        else:
            line.dirty = not line.dirty
            self.schedule(3, self.done, addr)

    def done(self, addr: int) -> None:
        if addr % 3:
            self.access(addr * 2654435761 % _LINES)

    def run(self) -> None:
        for addr in range(8):
            self.access(addr)
        queue = self.queue
        for step in range(_EVENTS):
            if not queue:
                self.access(step % _LINES)
            self.now, _seq, callback, arg = heapq.heappop(queue)
            callback(arg)


def calibration_s() -> float:
    """Host seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _Kernel().run()
    return time.perf_counter() - start
