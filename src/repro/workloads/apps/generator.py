"""Trace generation from an :class:`AppProfile`.

Each thread interleaves compute with memory operations drawn from two
regions:

* a per-thread private region with a hot/cold split (``hot_bias`` of
  accesses hit the ``hot_lines`` hottest lines), and
* a global shared pool.  To model read-write sharing realistically, a
  shared *store* publishes the line to a small recently-written window;
  shared *loads* preferentially consume lines from that window, which is
  exactly the access pattern that creates inter-thread persist
  dependencies (a consumer reading a producer's unpersisted epoch).

Under BSP the hardware inserts the epoch boundaries, so the generated
streams contain no explicit barriers -- the benchmarks run unmodified,
as in the paper.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.workloads.apps.profiles import APP_PROFILES, AppProfile
from repro.workloads.base import Op, OpKind

_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE

_PRIVATE_BASE = 0x4000_0000
_PRIVATE_STRIDE = 0x0200_0000
_SHARED_BASE = 0x2000_0000


class _SharedPool:
    """Shared-region state coordinating the threads of one workload."""

    def __init__(self, lines: int, line_size: int, window: int = 64) -> None:
        self.lines = lines
        self.line_size = line_size
        self.recently_written: Deque[int] = deque(maxlen=window)


class AppWorkload:
    """One thread of a synthetic application.

    The op stream is generated lazily, one op per ``next``: the shared
    pool's recently-written window couples the threads through the
    order in which the simulated cores pull their ops, so no thread's
    stream can be drawn ahead of the run.
    """

    def __init__(
        self,
        profile: AppProfile,
        thread_id: int,
        pool: _SharedPool,
        seed: int = 0,
        line_size: int = 64,
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        self.pool = pool
        self.rng = random.Random((seed << 16) ^ (thread_id << 4) ^ 0x5BD1)
        self.line_size = line_size
        self._private_base = _PRIVATE_BASE + thread_id * _PRIVATE_STRIDE

    # ------------------------------------------------------------------
    def ops(self, num_mem_ops: int) -> Iterator[Op]:
        # Every ``rng.randrange(n)`` and ``rng.choice(seq)`` of the loop
        # is inlined as the rejection loop CPython's ``Random._randbelow``
        # runs (``r = getrandbits(n.bit_length())`` until ``r < n``): the
        # same numbers and generator state at one C call per pass instead
        # of three Python frames per draw.  The profile's fields are
        # hoisted too.
        p = self.profile
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        # Geometric-ish compute spacing around the mean, cheaply: a
        # uniform draw below ``spacings``.  A compute op carries nothing
        # but its cycles, so the thread shares one per spacing.
        spacings = 2 * p.compute_per_op + 1 if p.compute_per_op else 0
        spacing_bits = spacings.bit_length()
        spacing_ops = [Op(_COMPUTE, cycles=c) for c in range(spacings)]
        shared_fraction = p.shared_fraction
        shared_write_fraction = p.shared_write_fraction
        store_fraction = p.store_fraction
        hot_bias = p.hot_bias
        hot_lines = p.hot_lines
        hot_bits = hot_lines.bit_length()
        working_set = p.working_set_lines
        working_set_bits = working_set.bit_length()
        pool = self.pool
        recent = pool.recently_written
        shared_lines = pool.lines
        shared_bits = shared_lines.bit_length()
        shared_line_size = pool.line_size
        private_base = self._private_base
        line_size = self.line_size
        # Every store of this thread carries the same value.
        value = ("w", self.thread_id)
        for _ in range(num_mem_ops):
            if spacings:
                r = getrandbits(spacing_bits)
                while r >= spacings:
                    r = getrandbits(spacing_bits)
                yield spacing_ops[r]
            if random() < shared_fraction:
                is_store = random() < shared_write_fraction
                if not is_store and recent and random() < 0.5:
                    # Consumers read recently produced lines half of
                    # the time.
                    n = len(recent)
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    index = recent[r]
                else:
                    index = getrandbits(shared_bits)
                    while index >= shared_lines:
                        index = getrandbits(shared_bits)
                    if is_store:
                        recent.append(index)
                addr = _SHARED_BASE + index * shared_line_size
            else:
                is_store = random() < store_fraction
                if random() < hot_bias:
                    index = getrandbits(hot_bits)
                    while index >= hot_lines:
                        index = getrandbits(hot_bits)
                else:
                    index = getrandbits(working_set_bits)
                    while index >= working_set:
                        index = getrandbits(working_set_bits)
                addr = private_base + index * line_size
            if is_store:
                yield Op(_STORE, addr, 8, value)
            else:
                yield Op(_LOAD, addr, 8)


def app_programs(
    name: str,
    num_threads: int,
    mem_ops_per_thread: int,
    seed: int = 0,
    line_size: int = 64,
    profile: Optional[AppProfile] = None,
) -> List[Iterator[Op]]:
    """Build one op stream per thread for the named benchmark."""
    if profile is None:
        profile = APP_PROFILES.get(name)
        if profile is None:
            raise KeyError(
                f"unknown app workload {name!r}; "
                f"choose from {sorted(APP_PROFILES)}"
            )
    pool = _SharedPool(profile.shared_lines, line_size)
    return [
        AppWorkload(profile, tid, pool, seed=seed, line_size=line_size).ops(
            mem_ops_per_thread
        )
        for tid in range(num_threads)
    ]
