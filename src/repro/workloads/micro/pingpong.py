"""Pingpong: contended producer/consumer pairs for the multicore path.

The Table 2 benchmarks shard their data per thread, so inter-thread
conflicts are rare by construction (a shared statistics line every few
transactions).  ``pingpong`` is the opposite extreme, built to exercise
the machinery the paper's *inter-thread* contribution is about: IDT
edges (section 3.1), deadlock-avoiding epoch splits (section 3.3), and
the coherence directory's invalidation/forwarding paths.

Threads form pairs (thread ``t`` with ``t ^ 1``).  Each pair owns a
small shared *mailbox* of line-granular slots; every transaction, under
one persist barrier,

* with probability ``conflict_rate`` (default: always) reads the
  partner's last message from a random mailbox slot and overwrites it
  with an ack -- the contended step, placed *first* so it lands while
  the partner's previous epoch is still flushing or even ongoing;
* then assembles the next message: an entry-sized payload copy
  (``ENTRY_SIZE`` bytes, eight line stores -- the Figure 10 entry copy)
  into the thread's private buffer, and
* stores a sequence token to the thread's private line (so every
  epoch -- including the completed prefix of a split -- carries at
  least one line of its own).

Both sides of a pair mutate the same mailbox lines, and because the ack
leads the transaction while the payload copy stretches the epoch, a
mailbox store routinely hits a line dirty under the partner's
unpersisted -- often still *ongoing* -- epoch: with IDT the dependence
is recorded (splitting the partner's epoch first), without it the
partner's chain is flushed online.  ``conflict_rate`` and ``num_slots``
tune how often and how concentrated the collisions are;
``payload_lines`` scales the per-message copy.

Mailboxes live in a dedicated region between the shared-statistics page
and the per-thread heaps, one stride per pair, so pairs never collide
with each other.  With an odd thread count the last thread keeps a
mailbox to itself and simply measures the uncontended loop.

``pingpong`` is registered with the factory (``make_benchmark``) but,
like hotset and flushbound, is deliberately *not* part of
``BEP_BENCHMARKS``: it is a simulator benchmark for the multicore
fast path, not a Table 2 structure.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import Op, OpKind, barrier
from repro.workloads.micro.common import ENTRY_SIZE, MicroBenchmark, register

# Barrier ops are field-free, so the million-transaction generation path
# shares one instance per program stream instead of allocating one per
# transaction.
_BARRIER = barrier()

# Op kinds as module globals: the transaction body builds every op with
# one, and a global read is a tenth of an enum-class attribute read.
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE

# One mailbox stride per thread pair; far below the per-thread heaps
# (0x1000_0000 + tid * 0x0100_0000) and above the shared-statistics
# region (0x0800_0000), so no region ever aliases another.
_MAILBOX_BASE = 0x0C00_0000
_MAILBOX_STRIDE = 0x0002_0000


@register
class PingPongWorkload(MicroBenchmark):
    name = "pingpong"

    def __init__(
        self,
        *args,
        num_slots: int = 4,
        conflict_rate: float = 1.0,
        payload_lines: int = 0,
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
        if num_slots < 1:
            raise ValueError("pingpong needs at least one mailbox slot")
        if not 0.0 <= conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be in [0, 1]")
        if payload_lines < 0:
            raise ValueError("payload_lines must be non-negative")
        self.num_slots = num_slots
        self.conflict_rate = conflict_rate
        # Default payload: one 512-byte entry, like the Table 2
        # structures ("the size of data entry ... is 512 bytes").
        self.payload_lines = payload_lines or ENTRY_SIZE // self.line_size
        self.pair_id = self.thread_id // 2
        self._mailbox = _MAILBOX_BASE + self.pair_id * _MAILBOX_STRIDE
        if num_slots * self.line_size > _MAILBOX_STRIDE:
            raise ValueError("mailbox slots exceed the pair stride")
        self._private = self.heap.alloc(self.line_size)
        self._payload = self.heap.alloc(self.line_size * self.payload_lines)
        self._sent = 0

    def slot_addr(self, slot: int) -> int:
        return self._mailbox + slot * self.line_size

    # ------------------------------------------------------------------
    def setup(self) -> Iterator[Op]:
        yield self.store_field(self._private, ("init", self.thread_id))
        if self.thread_id % 2 == 0:
            # The even side of the pair initializes the shared mailbox;
            # the odd side would only recreate the contention the
            # transactions are about to measure anyway.
            for slot in range(self.num_slots):
                yield self.store_field(
                    self.slot_addr(slot), ("init", self.pair_id, slot)
                )
        yield barrier()

    def transaction(self) -> Iterator[Op]:
        # Ops are built directly (not via the store_field/load_field
        # helpers): this generator body runs a million times inside the
        # timed region of the scale benchmark, where a call frame per op
        # is measurable.
        self._sent += 1
        sent = self._sent
        tid = self.thread_id
        rng = self.rng
        if rng.random() < self.conflict_rate:
            # rng.randrange(num_slots), inlined: CPython's rejection
            # loop on getrandbits, one C call per pass instead of three
            # Python frames per draw, with the same result and
            # generator state.
            slots = self.num_slots
            bits = slots.bit_length()
            slot = rng.getrandbits(bits)
            while slot >= slots:
                slot = rng.getrandbits(bits)
            addr = self._mailbox + slot * self.line_size
            # Read the partner's last message, then overwrite it with
            # an ack: the load can raise an inter-thread conflict on
            # its own, and the store collides with whichever
            # unpersisted -- frequently still ongoing -- epoch last
            # wrote the slot.  Leading with the contended access is
            # what makes the collisions land mid-epoch on the partner
            # side (the payload copy below stretches every epoch's
            # lifetime).
            yield Op(_LOAD, addr, 8)
            yield Op(_STORE, addr, 8, ("msg", tid, sent))
        # Assemble the next message: an entry-sized private copy, the
        # Figure 10 pattern (eight line stores per 512-byte entry).
        base = self._payload
        line_size = self.line_size
        for i in range(self.payload_lines):
            yield Op(_STORE, base + i * line_size, 8,
                     ("pay", tid, sent, i))
        # The private token keeps every epoch non-empty even when a
        # split hands the mailbox store to the remainder epoch.
        yield Op(_STORE, self._private, 8, ("seq", tid, sent))
        yield _BARRIER
