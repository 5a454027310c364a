"""Shared infrastructure for the Table 2 microbenchmarks.

A microbenchmark instance drives one thread.  Threads operate on
*private* structure instances (the NVHeaps benchmarks shard their data
per thread), which is why the paper finds these workloads dominated by
intra-thread conflicts; a light-weight shared-statistics update every
``shared_update_every`` transactions provides the small inter-thread
component (the source of LB+IDT's ~3% on Figure 11).

Benchmarks are generators: each transaction yields the loads/stores that
a real implementation would execute, with persist barriers placed as in
Figure 10, followed by a TXN_MARK and ``think_cycles`` of compute.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.workloads.base import (
    Op,
    OpKind,
    barrier,
    compute,
    span_ops,
    txn_mark,
)
from repro.workloads.heap import PersistentHeap

# The paper: "The size of data entry (table entries, tree nodes, queue
# entries etc.) for each micro-benchmark is 512 bytes."
ENTRY_SIZE = 512

# Address-space layout: a private heap per thread plus one shared
# statistics region all threads update occasionally.
_THREAD_HEAP_BASE = 0x1000_0000
_THREAD_HEAP_STRIDE = 0x0100_0000
_SHARED_REGION_BASE = 0x0800_0000

# Marker ops carry no per-instance fields; the transaction loop shares
# one of each rather than constructing millions on the lazy-generation
# path.
_BARRIER_OP = barrier()
_TXN_MARK_OP = txn_mark()

# Every op these helpers build reads its kind from a module global: on
# CPython 3.11 that costs a tenth of an ``OpKind.STORE`` read through
# the enum class.
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE


class MicroBenchmark:
    """Base class: heap management, op helpers, the transaction loop."""

    name = "micro"

    def __init__(
        self,
        thread_id: int = 0,
        seed: int = 0,
        line_size: int = 64,
        think_cycles: int = 100,
        shared_update_every: int = 4,
    ) -> None:
        self.thread_id = thread_id
        self.rng = random.Random((seed << 8) ^ thread_id)
        self.line_size = line_size
        self.think_cycles = think_cycles
        self.shared_update_every = shared_update_every
        base = _THREAD_HEAP_BASE + thread_id * _THREAD_HEAP_STRIDE
        self.heap = PersistentHeap(base, _THREAD_HEAP_STRIDE, line_size)
        self._txn_counter = 0

    # ------------------------------------------------------------------
    # Op emission helpers
    # ------------------------------------------------------------------
    # These helpers sit on the million-transaction lazy-generation path,
    # so they build ``Op`` directly instead of going through the
    # ``base.store``/``base.load`` convenience wrappers (one call frame
    # per op adds up at tens of millions of ops).  A line-aligned span
    # of whole lines (every 512-byte entry) is one list comprehension;
    # any other span takes the per-chunk loop of ``span_ops``.
    def store_obj(self, addr: int, size: int,
                  value: Optional[object] = None) -> Iterable[Op]:
        """Stores covering ``size`` bytes starting at ``addr``."""
        line_size = self.line_size
        if (addr | size) & (line_size - 1):
            return span_ops(_STORE, addr, size, line_size, value)
        return [Op(_STORE, line, line_size, value)
                for line in range(addr, addr + size, line_size)]

    def load_obj(self, addr: int, size: int) -> Iterable[Op]:
        line_size = self.line_size
        if (addr | size) & (line_size - 1):
            return span_ops(_LOAD, addr, size, line_size)
        return [Op(_LOAD, line, line_size)
                for line in range(addr, addr + size, line_size)]

    def store_field(self, addr: int,
                    value: Optional[object] = None) -> Op:
        """A single 8-byte field store (pointer / counter update)."""
        return Op(_STORE, addr, 8, value)

    def load_field(self, addr: int) -> Op:
        return Op(_LOAD, addr, 8)

    # ------------------------------------------------------------------
    # Transaction plumbing
    # ------------------------------------------------------------------
    def shared_counter_line(self) -> int:
        """A statistics line shared by all threads of this benchmark."""
        slot = self.rng.randrange(4)
        return _SHARED_REGION_BASE + slot * self.line_size

    def transaction(self) -> Iterator[Op]:
        """One search/insert/delete transaction.  Subclasses override."""
        raise NotImplementedError

    def setup(self) -> Iterator[Op]:
        """Initial population of the structure (part of the run)."""
        return iter(())

    def ops(self, transactions: int) -> Iterator[Op]:
        """The full op stream for this thread."""
        yield from self.setup()
        yield _BARRIER_OP
        for _ in range(transactions):
            yield from self.transaction()
            self._txn_counter += 1
            if (
                self.shared_update_every
                and self._txn_counter % self.shared_update_every == 0
            ):
                # Shared statistics update: read-modify-write of a line
                # other threads also touch -- the inter-thread component.
                line = self.shared_counter_line()
                yield self.load_field(line)
                yield self.store_field(
                    line, ("stat", self.thread_id, self._txn_counter)
                )
                yield _BARRIER_OP
            yield _TXN_MARK_OP
            if self.think_cycles:
                yield compute(self.think_cycles)


def make_benchmark(name: str, thread_id: int = 0, seed: int = 0,
                   **kwargs) -> MicroBenchmark:
    """Factory over the Table 2 benchmark names."""
    cls = MICROBENCHMARKS.get(name)
    if cls is None:
        raise KeyError(
            f"unknown microbenchmark {name!r}; "
            f"choose from {sorted(MICROBENCHMARKS)}"
        )
    return cls(thread_id=thread_id, seed=seed, **kwargs)


# Populated at the bottom of this package's modules to avoid import
# cycles; see micro/__init__.py for the canonical list.
MICROBENCHMARKS: Dict[str, Callable[..., MicroBenchmark]] = {}


def register(cls):
    """Class decorator adding a benchmark to the registry."""
    MICROBENCHMARKS[cls.name] = cls
    return cls
