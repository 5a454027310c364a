"""2D-mesh on-chip interconnect latency model.

The paper models the NoC with Garnet (Table 1: 2D mesh, 4 rows, 16B
flits).  The evaluation never isolates NoC microarchitecture, so we model
message latency analytically: Manhattan-distance hop count times
per-hop latency plus router traversals.  Tiles hold a core and its
co-located LLC bank; memory controllers sit on the chip corners, as in
Figure 2.

Latency tables are *lazy*: a 64-core machine has 64x64 core/bank/core
pairs per table, but any one run touches only the rows of the cores that
actually flush, so each per-endpoint row materializes on first use and
is cached as an immutable tuple.  Hot paths index ``mesh.c2b[core][bank]``
exactly as they did when the tables were eager lists-of-lists.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.sim.config import MachineConfig


class _LazyRows(dict):
    """List-of-rows lookalike whose rows materialize on first index.

    ``build(i)`` produces row ``i`` (any indexable value) for ``0 <= i <
    count``; the result is cached forever, so indexing a built row is a
    plain dict lookup in C and only a first index runs Python
    (``__missing__``).  Length and iteration cover all ``count`` rows,
    materializing them, so cold paths that genuinely want the full
    table (tests, debug dumps) still work.
    """

    __slots__ = ("_count", "_build")

    def __init__(self, count: int, build: Callable[[int], object]) -> None:
        super().__init__()
        self._count = count
        self._build = build

    def __missing__(self, index: int):
        if not 0 <= index < self._count:
            raise IndexError(
                f"row {index} out of range 0..{self._count - 1}")
        row = self[index] = self._build(index)
        return row

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        for i in range(self._count):
            yield self[i]


class Mesh:
    """Hop-latency model of the on-chip 2D mesh."""

    def __init__(self, config: MachineConfig) -> None:
        self.rows = config.mesh_rows
        self.cols = max(1, (config.num_cores + self.rows - 1) // self.rows)
        self._hop = config.hop_latency
        self._router = config.router_latency
        self._mc_tiles = self._corner_tiles(config.num_memory_controllers)
        cores = config.num_cores
        banks = config.llc_banks
        mcs = config.num_memory_controllers
        # Endpoint-indexed latency rows, lazily materialized (see module
        # docstring).  Rows are tuples: indexable, immutable, compact.
        self.c2b = _LazyRows(cores, lambda c: tuple(
            self._core_to_bank(c, b) for b in range(banks)))
        self.b2mc = _LazyRows(banks, lambda b: tuple(
            self._bank_to_mc(b, m) for m in range(mcs)))
        self.c2mc = _LazyRows(cores, lambda c: tuple(
            self._core_to_mc(c, m) for m in range(mcs)))
        self.c2c = _LazyRows(cores, lambda a: tuple(
            self._core_to_core(a, b) for b in range(cores)))
        # Worst-case core->bank latency per core: the broadcast cost of
        # the flush handshake's FlushEpoch/PersistCMP legs, asked for
        # once per epoch flush.
        self._bcast = _LazyRows(cores, lambda c: max(self.c2b[c]))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def tile_of_core(self, core_id: int) -> int:
        return core_id % (self.rows * self.cols)

    def tile_of_bank(self, bank_id: int) -> int:
        # Banks are co-located with cores on tiles; with fewer banks than
        # tiles the banks spread evenly across them.
        return bank_id % (self.rows * self.cols)

    def tile_of_mc(self, mc_id: int) -> int:
        return self._mc_tiles[mc_id % len(self._mc_tiles)]

    def _coords(self, tile: int) -> tuple[int, int]:
        return tile // self.cols, tile % self.cols

    def _corner_tiles(self, count: int) -> list[int]:
        """Tiles for the memory controllers: the four chip corners."""
        corners = [
            0,
            self.cols - 1,
            (self.rows - 1) * self.cols,
            self.rows * self.cols - 1,
        ]
        # Deduplicate (tiny meshes) while preserving order.
        seen: list[int] = []
        for c in corners:
            if c not in seen:
                seen.append(c)
        return [seen[i % len(seen)] for i in range(count)]

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def latency(self, tile_a: int, tile_b: int) -> int:
        """One-way message latency between two tiles."""
        ra, ca = self._coords(tile_a)
        rb, cb = self._coords(tile_b)
        hops = abs(ra - rb) + abs(ca - cb)
        return hops * self._hop + (hops + 1) * self._router

    def _core_to_bank(self, core_id: int, bank_id: int) -> int:
        return self.latency(self.tile_of_core(core_id), self.tile_of_bank(bank_id))

    def _bank_to_mc(self, bank_id: int, mc_id: int) -> int:
        return self.latency(self.tile_of_bank(bank_id), self.tile_of_mc(mc_id))

    def _core_to_mc(self, core_id: int, mc_id: int) -> int:
        return self.latency(self.tile_of_core(core_id), self.tile_of_mc(mc_id))

    def _core_to_core(self, core_a: int, core_b: int) -> int:
        return self.latency(self.tile_of_core(core_a), self.tile_of_core(core_b))

    # Public single-pair lookups route through the cached rows so a
    # mixed caller population still shares one materialization.
    def core_to_bank(self, core_id: int, bank_id: int) -> int:
        return self.c2b[core_id][bank_id]

    def core_to_mc(self, core_id: int, mc_id: int) -> int:
        return self.c2mc[core_id][mc_id]

    def core_to_core(self, core_a: int, core_b: int) -> int:
        return self.c2c[core_a][core_b]

    def detour_latency(self, extra_hops: int) -> int:
        """Latency added by rerouting a message ``extra_hops`` extra
        mesh hops (each hop adds its link and router traversal).

        Used by the fault injector's delayed-BankAck path
        (:mod:`repro.sim.faults`): a rerouted ack pays the nominal
        route plus this detour.
        """
        return extra_hops * (self._hop + self._router)

    def broadcast_from_core(self, core_id: int) -> int:
        """Latency for a broadcast from a core's tile to reach all banks.

        Used by the epoch arbiter for FlushEpoch and PersistCMP messages
        (steps 1 and 4 of the Figure 8 handshake).
        """
        return self._bcast[core_id]
