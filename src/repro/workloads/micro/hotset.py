"""Hotset: a cache-resident read-mostly loop with periodic barriers.

Unlike the Table 2 structures, this workload is a *simulator* benchmark
rather than a paper benchmark: it concentrates its accesses on a hot set
of lines that fits comfortably in the L1, so nearly every operation is a
conflict-free L1 hit.  That is exactly the per-access path the engine
fast paths target, which makes ``hotset`` the headline workload for the
host-throughput benchmark (``perfbench/``) -- a run is
dominated by the request hot path instead of by miss handling and epoch
flush machinery, so fast-vs-reference timing isolates the engine.

Shape of one transaction (defaults)::

    64 x  load  of a random line in an 8-line hot set
     4 x  store of a random line in the 4-line write subset
           (one store after every 16th load)
    every 8th transaction: persist barrier

The write subset is part of the hot set, so stores hit lines the loads
keep resident; the barrier cadence keeps epochs small enough that dirty
lines persist promptly and evictions never drag persist ordering into
the run.  Think time and the shared-statistics update are disabled by
default -- the point is a dense, hit-dominated op stream.

Loads carry no value and only name hot lines, so the workload builds one
load ``Op`` per hot line, yields those from ``setup``, and picks among
them with ``rng.choice`` in every transaction.  On perfbench's hotset
input (2-CPU Linux container) a fresh op per load took 0.32 s of set-up
and 41 MB of peak RSS; shared ops take 0.12 s and 26 MB.
``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``, the draw
``rng.randrange(len(seq))`` makes, so the op stream is the one
``tests/test_perfbench_pins.py`` pins.

``hotset`` is registered with the factory (``make_benchmark``) but is
deliberately *not* part of ``BEP_BENCHMARKS``: the paper's figure sweeps
cover the Table 2 structures only.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import Op, OpKind, barrier
from repro.workloads.micro.common import MicroBenchmark, register

# Field-free, so every transaction that ends in a barrier shares it.
_BARRIER = barrier()


@register
class HotSetWorkload(MicroBenchmark):
    name = "hotset"

    def __init__(
        self,
        *args,
        hot_lines: int = 8,
        store_lines: int = 4,
        loads_per_txn: int = 64,
        store_every: int = 16,
        barrier_every: int = 8,
        think_cycles: int = 0,
        shared_update_every: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(
            *args,
            think_cycles=think_cycles,
            shared_update_every=shared_update_every,
            **kwargs,
        )
        if not 0 < store_lines <= hot_lines:
            raise ValueError("store_lines must be within the hot set")
        self.loads_per_txn = loads_per_txn
        self.store_every = store_every
        self.barrier_every = barrier_every
        base = self.heap.alloc(hot_lines * self.line_size)
        hot = [base + i * self.line_size for i in range(hot_lines)]
        self._hot_loads = [Op(OpKind.LOAD, addr, 8) for addr in hot]
        self._store_set = hot[:store_lines]

    # ------------------------------------------------------------------
    def setup(self) -> Iterator[Op]:
        # Warm the hot set so the measured transactions start from a
        # resident working set (the fills happen once, up front).
        yield from self._hot_loads

    def transaction(self) -> Iterator[Op]:
        choice = self.rng.choice
        hot_loads = self._hot_loads
        store_set = self._store_set
        for i in range(1, self.loads_per_txn + 1):
            yield choice(hot_loads)
            if self.store_every and i % self.store_every == 0:
                yield Op(OpKind.STORE, choice(store_set), 8,
                         ("hot", self.thread_id, self._txn_counter, i))
        if (
            self.barrier_every
            and (self._txn_counter + 1) % self.barrier_every == 0
        ):
            yield _BARRIER
