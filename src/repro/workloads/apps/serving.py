"""Serving: a zipfian key-value store front-end at scale.

The ROADMAP's north-star scenario -- "heavy traffic from millions of
users" hitting a persistent store -- needs a workload whose *statistics*
look like a serving tier rather than a data-structure stress loop:

* **Zipfian key popularity** (``s`` ~ 0.99, the YCSB default): a few hot
  keys dominate while the tail is effectively unbounded.  The keyspace
  (``num_keys`` x 512-byte entries, 2 MB at the default 4096 keys) is
  chosen to dwarf the LLC, so tail traffic misses all the way out while
  hot keys stay cache-resident -- both paths matter.
* **Bursty arrivals**: requests come in bursts of ``burst_length``
  transactions separated by ``burst_gap_cycles`` of idle compute, the
  arrival shape of a batched RPC front-end.  The gaps let in-flight
  epoch flushes complete, so the drain of the next burst begins against
  a quiet persist pipeline -- precisely the window the fast-forward
  engine targets.
* **Mixed read/write with per-transaction durability**: a PUT rewrites
  the whole 512-byte entry, publishes it with an 8-byte index-slot
  store, and closes with a persist barrier (the standard
  persist-then-publish idiom); a GET reads the index slot and then the
  entry.  ``put_fraction`` defaults to 30% writes.

The op stream is generated lazily (``ops`` is a generator all the way
down), so million-transaction programs run in constant memory.

Registered with the micro factory as ``serving`` so the bench / crash
sweep plumbing can name it like any Table 2 benchmark, but it lives in
``workloads.apps`` because it models an application tier, not a data
structure.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List

from repro.workloads.base import Op, barrier, compute
from repro.workloads.micro.common import ENTRY_SIZE, MicroBenchmark, register

# Field-free, so every PUT shares it.
_BARRIER = barrier()


@register
class ServingWorkload(MicroBenchmark):
    name = "serving"

    def __init__(
        self,
        *args,
        num_keys: int = 4096,
        zipf_s: float = 0.99,
        put_fraction: float = 0.3,
        burst_length: int = 64,
        burst_gap_cycles: int = 2000,
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
        if num_keys < 1:
            raise ValueError("num_keys must be positive")
        if not 0.0 <= put_fraction <= 1.0:
            raise ValueError("put_fraction must be within [0, 1]")
        self.num_keys = num_keys
        self.zipf_s = zipf_s
        self.put_fraction = put_fraction
        self.burst_length = burst_length
        self.burst_gap_cycles = burst_gap_cycles

        # Zipf(s) over ranks 1..num_keys as a cumulative table; a draw
        # is one uniform variate and a bisect.  Popularity rank is
        # decoupled from storage position by a one-time shuffle so hot
        # keys scatter across the keyspace instead of clustering at the
        # low addresses.
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, num_keys + 1):
            total += 1.0 / rank ** zipf_s
            cdf.append(total)
        self._cdf = cdf
        self._cdf_total = total
        slots = list(range(num_keys))
        self.rng.shuffle(slots)
        self._rank_to_slot = slots

        self._entries = self.heap.alloc(num_keys * ENTRY_SIZE)
        self._index = self.heap.alloc(num_keys * 8)

    # ------------------------------------------------------------------
    def _draw_key(self) -> int:
        """One zipfian draw: storage slot of the chosen key."""
        u = self.rng.random() * self._cdf_total
        rank = bisect_left(self._cdf, u)
        if rank >= self.num_keys:
            rank = self.num_keys - 1
        return self._rank_to_slot[rank]

    # ------------------------------------------------------------------
    def setup(self) -> Iterator[Op]:
        # No warm-up population: a GET of a never-written key legally
        # reads the zeroed NVRAM image, and pre-touching a 2 MB keyspace
        # would dominate short runs.
        return iter(())

    def transaction(self) -> Iterator[Op]:
        if self.burst_length and self._txn_counter and (
            self._txn_counter % self.burst_length == 0
        ):
            # Inter-burst gap: the front-end waits for the next batch.
            yield compute(self.burst_gap_cycles)
        slot = self._draw_key()
        entry_addr = self._entries + slot * ENTRY_SIZE
        index_addr = self._index + slot * 8
        if self.rng.random() < self.put_fraction:
            # PUT: write the entry body, then publish it through the
            # index slot, then make the pair durable.
            yield from self.store_obj(
                entry_addr, ENTRY_SIZE,
                ("put", self.thread_id, self._txn_counter, slot),
            )
            yield self.store_field(
                index_addr, ("idx", self.thread_id, self._txn_counter, slot)
            )
            yield _BARRIER
        else:
            # GET: follow the index slot to the entry body.
            yield self.load_field(index_addr)
            yield from self.load_obj(entry_addr, ENTRY_SIZE)
