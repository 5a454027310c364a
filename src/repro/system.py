"""The multicore machine: wiring and the memory-request state machine.

:class:`Multicore` assembles the substrate (cores, L1s, banked LLC,
directory, mesh, memory controllers, NVRAM image) with the persistence
machinery (epoch managers, arbiters, IDT, undo logs, checkpoint engines)
and implements the per-request flow where the paper's conflicts are
detected and resolved:

* **intra-thread conflict** -- a store hits a line dirty under an older,
  unpersisted epoch of the same core: the request stalls while epochs up
  to and including the source are flushed online (section 3.2).
* **inter-thread conflict** -- a load or store hits a line dirty under
  another core's unpersisted epoch: with IDT the dependence is recorded
  (splitting the source epoch first if it is ongoing, section 3.3) and
  the request completes; without IDT, or on IDT register overflow, the
  source epoch chain is flushed online (section 3.1).
* **eviction conflict** -- replacing a dirty unpersisted LLC line, or
  writing an L1 victim back onto a different unpersisted LLC version,
  requires the ordering-predecessor epochs to persist first.

State transitions are atomic at well-defined event times; latency is
accounted by scheduling the completion callback.  A request that hits a
conflict is parked and re-executed from scratch when the blocking epochs
persist -- re-classification keeps the decision consistent with whatever
changed while it waited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.arbiter import Arbiter
from repro.core.checkpoint import CheckpointEngine
from repro.core.epoch import BY_KEY, Epoch, EpochManager
from repro.core.idt import IDTracker
from repro.core.undo_log import UndoLog
from repro.cpu.processor import Core
from repro.mem.address import AddressMap
from repro.mem.cache import CacheEntry, SetAssociativeCache
from repro.mem.coherence import Directory, ReferenceDirectory
from repro.mem.interconnect import Mesh, _LazyRows
from repro.mem.nvram import MemoryController, NVRAMImage
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.config import MachineConfig, PersistencyModel
from repro.sim.engine import Engine
from repro.sim.stats import HandshakeStats, Stats
from repro.sim.trace import Tracer

_MAX_REQUEST_RETRIES = 1000

# Negative returns of Multicore.try_clean_store: the store must take the
# general classifier, or (stores from Multicore.store only) the fused
# full-miss path.
_REFUSED = -1
_FULL_MISS = -2


class SimulationError(RuntimeError):
    """An internal invariant was violated (a simulator bug, not a model
    property)."""


class _Request:
    """One in-flight memory request."""

    __slots__ = (
        "core_id", "line", "is_store", "values", "epoch", "on_done",
        "persist_sync", "wt_async", "on_persist_ack", "retries",
        "issue_time",
    )

    def __init__(self, core_id: int, line: int, is_store: bool,
                 values: Optional[Dict[int, object]],
                 epoch: Optional[Epoch],
                 on_done: Callable[[int], None]) -> None:
        self.core_id = core_id
        self.line = line
        self.is_store = is_store
        self.values = values
        self.epoch = epoch
        self.on_done = on_done
        self.persist_sync = False
        self.wt_async = False
        self.on_persist_ack: Optional[Callable[[int], None]] = None
        self.retries = 0
        self.issue_time = 0


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    cycles_visible: Optional[int]
    cycles_durable: Optional[int]
    stats: Stats
    config: MachineConfig
    finished: bool

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        return self.stats.total("txns")

    @property
    def throughput(self) -> float:
        """Transactions per kilo-cycle (Figure 11's metric before
        normalization)."""
        if not self.cycles_visible:
            return 0.0
        return 1000.0 * self.transactions / self.cycles_visible

    @property
    def total_epochs(self) -> int:
        return self.stats.total("epochs_persisted")

    @property
    def conflict_epoch_pct(self) -> float:
        """Percentage of epochs flushed because of a conflict (Figure 12)."""
        total = self.total_epochs
        if not total:
            return 0.0
        return 100.0 * self.stats.total("epochs_conflict_flushed") / total

    @property
    def intra_conflicts(self) -> int:
        return self.stats.domain("conflicts").get("intra_thread")

    @property
    def inter_conflicts(self) -> int:
        return self.stats.domain("conflicts").get("inter_thread")

    @property
    def nvram_writes(self) -> int:
        return self.stats.total("writes")


class Multicore:
    """The simulated machine of Figure 2."""

    def __init__(
        self,
        config: MachineConfig,
        *,
        track_values: bool = False,
        track_persist_order: bool = False,
        keep_epoch_log: bool = False,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.engine = Engine()
        # Reference mode (REPRO_SLOW_ENGINE=1, see repro.sim.engine)
        # classifies every request with the general classifier below
        # instead of the fused paths, and builds the reference forms of
        # the directory and the IDT tracker.  Counting, latency tables
        # and epoch tags are the same in both modes.
        self._fast = self.engine.fast
        self.stats = Stats()
        self.track_values = track_values
        self.amap = AddressMap(config)
        self.mesh = Mesh(config)
        # Fault injection must exist before the components that consult
        # it (memory controllers, flush operations) are built.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None else None
        )
        self.image = NVRAMImage(
            track_order=track_persist_order,
            reorder_window=(faults.reorder_window if faults is not None
                            else 0),
        )

        mc_stats = self.stats.domain("nvram")
        self.mcs: List[MemoryController] = [
            MemoryController(i, config, self.engine, self.image, mc_stats,
                             faults=self.faults)
            for i in range(config.num_memory_controllers)
        ]
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(
                f"L1.{i}", config.l1_sets, config.l1_assoc,
                config.line_size, self.stats.domain(f"l1.{i}"),
            )
            for i in range(config.num_cores)
        ]
        llc_stats = self.stats.domain("llc")
        self.llc_banks: List[SetAssociativeCache] = [
            SetAssociativeCache(
                f"LLC.B{b}", config.llc_bank_sets, config.llc_assoc,
                config.line_size, llc_stats,
            )
            for b in range(config.llc_banks)
        ]
        # Fast mode uses the flat owner/sharer-bitmask directory; the
        # reference mode keeps the seed's per-line-entry form as the
        # executable specification (see mem/coherence.py).
        self.directory = (
            Directory() if self._fast else ReferenceDirectory()
        )

        self.managers: List[EpochManager] = []
        self.arbiters: List[Arbiter] = []
        self.undo_logs: List[UndoLog] = []
        self.checkpoints: List[CheckpointEngine] = []
        self.idt = IDTracker(
            config.idt_registers_per_epoch, self.stats.domain("idt"),
            fast=self._fast,
        )
        # Per-core handshake message accounting -- digest-invisible by
        # construction (plain attributes, never a StatDomain; see
        # sim/stats.py).  Built before the arbiters so the pooled flush
        # operations can capture the list.
        self.handshake: List[HandshakeStats] = [
            HandshakeStats() for _ in range(config.num_cores)
        ]
        for core_id in range(config.num_cores):
            mgr = EpochManager(
                core_id, self.engine, self.stats.domain(f"core{core_id}"),
                config.max_inflight_epochs,
            )
            mgr.keep_retired = keep_epoch_log
            mgr.persist_check = self.maybe_persist
            mgr.handshake = self.handshake[core_id]
            self.managers.append(mgr)
            self.arbiters.append(Arbiter(core_id, self, mgr))
            self.undo_logs.append(UndoLog(core_id, self))
            self.checkpoints.append(CheckpointEngine(core_id, self))

        if config.barrier_design.uses_pf and config.persistency.buffered:
            for mgr in self.managers:
                mgr.completion_hook = self._proactive_flush

        self._logging_on = (
            config.undo_logging
            and config.persistency is PersistencyModel.BSP
        )
        self.cores: List[Core] = []
        self._active_cores = 0
        self._finish_time: Optional[int] = None
        self._conflict_stats = self.stats.domain("conflicts")
        # Hot-path caches: stat domains resolved once instead of via an
        # f-string dict lookup per request, and the core->bank leg of the
        # request latency precomputed per (core, bank) pair.
        self._core_domains = [
            self.stats.domain(f"core{i}") for i in range(config.num_cores)
        ]
        self._l1_domains = [
            self.stats.domain(f"l1.{i}") for i in range(config.num_cores)
        ]
        self._llc_domain = llc_stats
        # Lazily-materialized per-core rows (like the mesh's own
        # tables): only the cores that actually issue requests pay for
        # their row, which matters at 64 cores x 64 banks.
        round_trip = config.l1_latency + config.llc_latency
        self._base_lat = _LazyRows(config.num_cores, lambda core: tuple(
            round_trip + 2 * lat for lat in self.mesh.c2b[core]
        ))
        # One-way L1->bank travel leg of a memory fill, per (core, bank);
        # the bank->MC leg is added from the mesh's b2mc table per line.
        self._fill_travel = _LazyRows(config.num_cores, lambda core: tuple(
            round_trip + lat for lat in self.mesh.c2b[core]
        ))
        # Per-line epoch tags: line -> the epoch holding the *newest*
        # unpersisted dirty version of the line, maintained on store
        # (_tag_line, try_clean_store) and persist (_untag_line).
        # Membership alone answers "does any window epoch hold an
        # unpersisted version of this line?" in one dict probe -- the
        # conflict guard of the fused store path.  At most two
        # unpersisted versions of a line can coexist (the IDT case: the
        # older one written back to the LLC, the newer in the
        # requester's L1), and the older version always leaves the
        # dirty domain first, so a single newest-pointer plus a sparse
        # depth count is exact; audit() cross-checks the map against
        # the window line sets.
        self._epoch_tags: Dict[int, Epoch] = {}
        self._tag_depth: Dict[int, int] = {}
        # Per-request accounting hoists: L1 hit counts, LLC access
        # counts, flush counts and memory-latency samples accumulate in
        # plain attributes and merge into the stat domains once, at run
        # end (_flush_hot_stats).
        self._l1_lat = config.l1_latency
        # Bank resolution inlined in the fused paths: one shift and one
        # modulo instead of an AddressMap method call per access.
        self._bank_shift = config.offset_bits
        self._n_banks = config.llc_banks
        n = config.num_cores
        self._l1_hit_counts = [0] * n
        self._lat_sums = [0] * n
        self._lat_counts = [0] * n
        self._lat_maxes = [0] * n
        self._n_llc_hits = 0
        self._n_llc_misses = 0
        self._n_llc_forwards = 0
        self._n_llc_fill_races = 0
        self._n_llc_dirty_evictions = 0
        self._flush_domain = self.stats.domain("flush")
        self._n_epoch_flushes = 0
        self._fel_sum = 0
        self._fel_count = 0
        self._fel_max = 0

    # ------------------------------------------------------------------
    # Public request API (called by cores)
    # ------------------------------------------------------------------
    # The fused fast paths below collapse the conflict-free L1-hit case
    # of load/store into the entry call: no _Request allocation, no
    # dispatcher hops, and the completion through Engine.finish.  Every
    # state transition and every count matches the general path bit for
    # bit -- the determinism-digest tests compare against the reference
    # mode, which always takes the general path.

    def load(self, core_id: int, line: int,
             on_done: Callable[[int], None]) -> None:
        if self._fast:
            l1 = self.l1s[core_id]
            entry = l1.lookup(line)
            if entry is not None:
                l1._tick = tick = l1._tick + 1
                entry._lru = tick
                self._l1_hit_counts[core_id] += 1
                lat = self._l1_lat
                self._lat_sums[core_id] += lat
                self._lat_counts[core_id] += 1
                if lat > self._lat_maxes[core_id]:
                    self._lat_maxes[core_id] = lat
                self.engine.finish(lat, on_done)
                return
            # Fused L1-miss/LLC-hit path: a conflict-free fill from the
            # LLC completes without a request object, mirroring the hit
            # fast path above.  Conflict-free means: no foreign M owner,
            # the LLC copy (if dirty) is not another core's unpersisted
            # version, and the L1 victim (if any) is clean.  Anything
            # else falls through to the general classifier.
            bank = (line >> self._bank_shift) % self._n_banks
            owner = self.directory.owner_of(line)
            if owner is None or owner == core_id:
                bank_cache = self.llc_banks[bank]
                llc_entry = bank_cache.lookup(line)
                if llc_entry is not None and not (
                    llc_entry.dirty
                    and llc_entry.epoch is not None
                    and llc_entry.epoch.core_id != core_id
                    and not llc_entry.epoch.persisted
                ):
                    filled = l1.clean_fill(line)
                    if filled is not None:
                        # Same end state as the general path: LLC
                        # touched, victim out, fill in, sharer added.
                        entry, victim_line = filled
                        bank_cache._tick = btick = bank_cache._tick + 1
                        llc_entry._lru = btick
                        if self.track_values:
                            if llc_entry.values is not None:
                                entry.values = dict(llc_entry.values)
                            else:
                                stored = self.image.values.get(line)
                                entry.values = dict(stored) if stored else {}
                        self.directory.refill_sharer(line, victim_line,
                                                     core_id)
                        self._n_llc_hits += 1
                        lat = self._base_lat[core_id][bank]
                        self._lat_sums[core_id] += lat
                        self._lat_counts[core_id] += 1
                        if lat > self._lat_maxes[core_id]:
                            self._lat_maxes[core_id] = lat
                        self.engine.finish(lat, on_done)
                        return
                if llc_entry is None and owner is None:
                    self._n_llc_misses += 1
                    self._fused_miss(core_id, line, bank, on_done, None,
                                     None)
                    return
        req = _Request(core_id, line, False, None, None, on_done)
        req.issue_time = self.engine.now
        self._try_access(req)

    def store(
        self,
        core_id: int,
        line: int,
        values: Optional[Dict[int, object]],
        epoch: Optional[Epoch],
        on_done: Callable[[int], None],
        persist_sync: bool = False,
        wt_async: bool = False,
        on_persist_ack: Optional[Callable[[int], None]] = None,
    ) -> None:
        if (
            self._fast
            and epoch is not None
            and not persist_sync
            and not wt_async
        ):
            resolved = epoch.resolve()
            lat = self.try_clean_store(core_id, line, values, resolved)
            if lat >= 0:
                self.engine.finish(lat, on_done)
                return
            if lat == _FULL_MISS:
                # Write-allocate.  Stores do not bump the LLC miss
                # counter (the general classifier does not either).
                self._fused_miss(core_id, line,
                                 (line >> self._bank_shift) % self._n_banks,
                                 on_done, values, resolved)
                return
        req = _Request(core_id, line, True, values, epoch, on_done)
        req.persist_sync = persist_sync
        req.wt_async = wt_async
        req.on_persist_ack = on_persist_ack
        req.issue_time = self.engine.now
        self._try_access(req)

    def try_clean_store(self, core_id: int, line: int,
                        values: Optional[Dict[int, object]],
                        resolved: Epoch) -> int:
        """Apply one epoch-tagged store if it is conflict-free and
        return its latency; otherwise return :data:`_REFUSED` or
        :data:`_FULL_MISS` with no observable side effect.

        The one conflict-free store path, shared by the fused
        :meth:`store` and the core's fast-forward drain.  It applies
        three shapes, state change for state change and count for count
        as the general classifier would: the same-epoch dirty hit, the
        re-dirty of a line whose previous version already persisted,
        and the clean miss/upgrade filled from a conflict-free LLC copy.
        It records the latency sample but never schedules the
        completion; the caller does.  ``_FULL_MISS`` marks an untagged
        line that no other core holds and neither this L1 nor the LLC
        caches; :meth:`store` fills it on the fused full-miss path.  The
        epoch-tag probe doubles as the flush-in-window guard: a line
        whose previous version belongs to any unpersisted epoch (closed,
        flushing, or foreign) is still in the tag map, so the store is
        refused and the general classifier re-derives the conflict from
        the cache entries.  ``resolved`` must be the core's ongoing
        epoch, already resolved.
        """
        l1 = self.l1s[core_id]
        entry = l1.lookup(line)
        if entry is not None and entry.dirty and entry.epoch is resolved:
            # Same-epoch store to an owned M-state line: no logging (the
            # line is already dirty under this epoch), no conflict
            # checks, ownership already held.
            self.directory.set_owner(line, core_id)
            resolved.lines.add(line)
            lat = self._l1_lat
        else:
            # Undo logging, or any unpersisted version of the line, is
            # the general classifier's business.  A line absent from
            # the tag map has no unpersisted dirty version anywhere (one
            # in a foreign L1 would also fail exclusive_ok below).
            if self._logging_on or line in self._epoch_tags:
                return _REFUSED
            if entry is not None and entry.dirty:
                if entry.epoch is not None and not entry.epoch.persisted:
                    return _REFUSED
                # Re-dirtying a line whose previous version already
                # persisted: the old version left the dirty domain and
                # the line is still M-state in this L1.  The first store
                # of every transaction in re-touch workloads (pingpong
                # mailboxes, zipfian hot keys).
                self.directory.set_owner(line, core_id)
                lat = self._l1_lat
            elif not self.directory.exclusive_ok(line, core_id):
                return _REFUSED
            else:
                # An S-state L1 hit upgraded in place, or an L1 miss
                # filled from the LLC (same end state as _try_store ->
                # _fill_l1 for a clean-victim fill).
                bank = (line >> self._bank_shift) % self._n_banks
                if entry is not None:
                    self.directory.set_owner(line, core_id)
                else:
                    llc_entry = self.llc_banks[bank].lookup(line)
                    if llc_entry is None:
                        return _FULL_MISS
                    filled = l1.clean_fill(line)
                    if filled is None:
                        return _REFUSED
                    entry, victim_line = filled
                    if self.track_values:
                        if llc_entry.values is not None:
                            entry.values = dict(llc_entry.values)
                        else:
                            stored = self.image.values.get(line)
                            entry.values = dict(stored) if stored else {}
                    self.directory.refill_owner(line, victim_line, core_id)
                lat = self._base_lat[core_id][bank]
            entry.dirty = True
            entry.epoch = resolved
            # The guard proved no prior unpersisted version, so the tag
            # is a plain insert (no depth).
            resolved.lines.add(line)
            self._epoch_tags[line] = resolved
        resolved.all_lines.add(line)
        if self.track_values and values:
            if entry.values is None:
                entry.values = {}
            entry.values.update(values)
        l1._tick = tick = l1._tick + 1
        entry._lru = tick
        self._lat_sums[core_id] += lat
        self._lat_counts[core_id] += 1
        if lat > self._lat_maxes[core_id]:
            self._lat_maxes[core_id] = lat
        return lat

    # ------------------------------------------------------------------
    # Fused full-miss path
    # ------------------------------------------------------------------
    def _fused_miss(self, core_id: int, line: int, bank: int,
                    on_done: Callable[[int], None],
                    values: Optional[Dict[int, object]],
                    epoch: Optional[Epoch]) -> None:
        """Fill an unowned, uncached line from NVRAM without a request
        object (``epoch`` set for stores, None for loads).  All
        fill-time hazards (races, dirty victims) are re-checked at
        completion by :meth:`_fused_miss_done`, which falls back to the
        request machinery there."""
        mc_id = self.amap.mc_of(line)
        bank_mc = self.mesh.b2mc[bank][mc_id]
        eng = self.engine
        eng.schedule(
            self._fill_travel[core_id][bank] + bank_mc,
            self._fused_miss_at_mc, mc_id, core_id, line, bank,
            bank_mc + self.mesh.c2b[core_id][bank], on_done, eng.now,
            values, epoch,
        )

    def _fused_miss_at_mc(self, mc_id: int, core_id: int, line: int,
                          bank: int, delivery: int,
                          on_done: Callable[[int], None], issue_time: int,
                          values: Optional[Dict[int, object]],
                          epoch: Optional[Epoch]) -> None:
        # Same controller interaction as _mem_at_mc: the read consults
        # and mutates MC state at the simulated arrival time.
        self.mcs[mc_id].read(line, self._fused_miss_done, core_id, line,
                             bank, delivery, on_done, issue_time, values,
                             epoch)

    def _fused_miss_done(self, core_id: int, line: int, bank: int,
                         delivery: int, on_done: Callable[[int], None],
                         issue_time: int,
                         values: Optional[Dict[int, object]],
                         epoch: Optional[Epoch], time: int) -> None:
        """Completion of a fused full-miss fill (``epoch`` set for
        stores, None for loads).

        Mirrors :meth:`_mem_fill_done` plus the simple-victim tails of
        ``_make_room_llc`` / ``_fill_l1`` / ``_finish_store`` /
        ``_complete``.  Any fill-time hazard -- a race with another
        core, a dirty LLC victim, a dirty L1 victim -- builds the
        request object the scheduled path would have carried and
        delegates to :meth:`_mem_fill_done`, which re-derives everything
        from live state (``retries = 1`` matches the one classifier pass
        the scheduled path took at issue)."""
        bank_cache = self.llc_banks[bank]
        raced = bank_cache.lookup(line)
        l1 = self.l1s[core_id]
        llc_victim = None
        l1_entry = None
        l1_victim = None
        simple = (
            self.directory.owner_of(line) is None
            and (raced is None or not raced.unpersisted)
        )
        if simple and raced is None:
            llc_victim = bank_cache.victim_for(line)
            if llc_victim is not None and llc_victim.dirty:
                simple = False
        if simple:
            l1_entry = l1.lookup(line)
            if l1_entry is None:
                l1_victim = l1.victim_for(line)
                if l1_victim is not None and l1_victim.dirty:
                    simple = False
        if not simple:
            req = _Request(core_id, line, epoch is not None, values,
                           epoch, on_done)
            req.issue_time = issue_time
            req.retries = 1
            self._mem_fill_done(req, bank, delivery, time)
            return
        if raced is None:
            if llc_victim is not None:
                bank_cache.remove(llc_victim.line)
            llc_entry = bank_cache.insert(line)
            if self.track_values:
                stored = self.image.values.get(line)
                llc_entry.values = dict(stored) if stored else {}
        else:
            llc_entry = raced
        if l1_entry is None:
            if l1_victim is not None:
                l1_entry = l1.swap_in(line, l1_victim)
                self.directory.drop_core(l1_victim.line, core_id)
            else:
                l1_entry = l1.swap_in(line)
            if self.track_values:
                if llc_entry.values is not None:
                    l1_entry.values = dict(llc_entry.values)
                else:
                    stored = self.image.values.get(line)
                    l1_entry.values = dict(stored) if stored else {}
        if epoch is not None:
            self.directory.set_owner(line, core_id)
            resolved = epoch.resolve()
            l1_entry.dirty = True
            l1_entry.epoch = resolved
            self._tag_line(resolved, line)
            resolved.all_lines.add(line)
            if self.track_values and values:
                if l1_entry.values is None:
                    l1_entry.values = {}
                l1_entry.values.update(values)
            l1.touch(l1_entry)
        else:
            self.directory.add_sharer(line, core_id)
        sample = self.engine.now + delivery - issue_time
        self._lat_sums[core_id] += sample
        self._lat_counts[core_id] += 1
        if sample > self._lat_maxes[core_id]:
            self._lat_maxes[core_id] = sample
        self.engine.finish(delivery, on_done)

    # ------------------------------------------------------------------
    # Request state machine
    # ------------------------------------------------------------------
    def _try_access(self, req: _Request) -> None:
        req.retries += 1
        if req.retries > _MAX_REQUEST_RETRIES:
            raise SimulationError(
                f"request for 0x{req.line:x} by core {req.core_id} "
                f"retried {req.retries} times; likely a livelock bug"
            )
        if req.is_store:
            if req.epoch is not None:
                # A split may have moved this in-flight store into the
                # remainder epoch (section 3.3).
                req.epoch = req.epoch.resolve()
            self._try_store(req)
        else:
            self._try_load(req)

    def _complete(self, req: _Request, latency: int) -> None:
        sample = self.engine.now + latency - req.issue_time
        core_id = req.core_id
        self._lat_sums[core_id] += sample
        self._lat_counts[core_id] += 1
        if sample > self._lat_maxes[core_id]:
            self._lat_maxes[core_id] = sample
        # Inline when this completion is the very next event anyway
        # (Engine.finish; it always schedules in reference mode).
        self.engine.finish(latency, req.on_done)

    # -- loads -----------------------------------------------------------
    def _try_load(self, req: _Request) -> None:
        core_id, line = req.core_id, req.line
        l1 = self.l1s[core_id]
        entry = l1.lookup(line)
        if entry is not None:
            l1.touch(entry)
            self._l1_hit_counts[core_id] += 1
            self._complete(req, self._l1_lat)
            return

        bank = self.amap.bank_of(line)
        base_lat = self._base_lat[core_id][bank]
        owner = self.directory.owner_of(line)
        if owner is not None and owner != core_id:
            o_entry = self.l1s[owner].lookup(line)
            if o_entry is not None and o_entry.dirty:
                if o_entry.unpersisted and not self._clear_remote_dependence(
                    req, o_entry.epoch
                ):
                    return
                if not self._writeback_to_llc(owner, o_entry, req,
                                              invalidate=False):
                    return
                self.directory.clear_owner(line)
                if not self._fill_l1(core_id, line, req):
                    return
                self.directory.add_sharer(line, core_id)
                self._n_llc_forwards += 1
                self._complete(req,
                               base_lat + 2 * self.mesh.c2c[owner][core_id])
                return
            # Stale ownership record (the dirty copy was cleaned/evicted).
            self.directory.clear_owner(line)

        llc_entry = self.llc_banks[bank].lookup(line)
        if llc_entry is not None:
            if (
                llc_entry.unpersisted
                and llc_entry.epoch.core_id != core_id
                and not self._clear_remote_dependence(req, llc_entry.epoch)
            ):
                return
            self.llc_banks[bank].touch(llc_entry)
            if not self._fill_l1(core_id, line, req, source=llc_entry):
                return
            self.directory.add_sharer(line, core_id)
            self._n_llc_hits += 1
            self._complete(req, base_lat)
            return

        self._n_llc_misses += 1
        self._mem_read_fill(req, bank)

    # -- stores ----------------------------------------------------------
    def _try_store(self, req: _Request) -> None:
        core_id, line = req.core_id, req.line
        l1 = self.l1s[core_id]
        entry = l1.lookup(line)

        if entry is not None and entry.dirty:
            # Fast path: this core already owns the line in M state.
            if entry.unpersisted and entry.epoch is not req.epoch:
                self._conflict_stats.bump("intra_thread")
                if self.tracer:
                    self.tracer.record(
                        self.engine.now, "conflict", core_id,
                        type="intra", line=hex(line),
                        source=str(entry.epoch),
                    )
                self._stall_for_flush(req, entry.epoch)
                return
            self._finish_store(req, entry, self._l1_lat)
            return

        bank = self.amap.bank_of(line)
        base_lat = self._base_lat[core_id][bank]
        owner = self.directory.owner_of(line)
        extra_lat = 0
        if owner is not None and owner != core_id:
            o_entry = self.l1s[owner].lookup(line)
            if o_entry is not None and o_entry.dirty:
                if o_entry.unpersisted and not self._clear_remote_dependence(
                    req, o_entry.epoch
                ):
                    return
                # The remote version is written back to the LLC (where it
                # can still persist with its own epoch) and the remote
                # copy is invalidated.
                if not self._writeback_to_llc(owner, o_entry, req,
                                              invalidate=True):
                    return
                extra_lat = 2 * self.mesh.c2c[owner][core_id]
            else:
                if o_entry is not None:
                    self.l1s[owner].remove(line)
                self.directory.drop_core(line, owner)

        llc_entry = self.llc_banks[bank].lookup(line)
        if llc_entry is not None and llc_entry.unpersisted:
            src = llc_entry.epoch
            if src.core_id != core_id:
                if not self._clear_remote_dependence(req, src):
                    return
                # With IDT the old version stays dirty in the LLC and will
                # persist with its own epoch; the new version lives in the
                # requester's L1 under the requester's epoch.
            elif src is not req.epoch:
                self._conflict_stats.bump("intra_thread")
                if self.tracer:
                    self.tracer.record(
                        self.engine.now, "conflict", core_id,
                        type="intra", line=hex(line), source=str(src),
                    )
                self._stall_for_flush(req, src)
                return
            else:
                # Our own current epoch's version fell back to the LLC
                # (L1 replacement); pull the dirty state back up so the
                # line persists from exactly one place.
                llc_entry.dirty = False
                llc_entry.epoch = None

        # Invalidate other sharers and take ownership.
        for sharer in self.directory.sharers_of(line):
            if sharer != core_id:
                self.l1s[sharer].remove(line)

        if entry is None:
            if llc_entry is not None:
                if not self._fill_l1(core_id, line, req, source=llc_entry):
                    return
                entry = l1.lookup(line)
                self.directory.set_owner(line, core_id)
                self._finish_store(req, entry, base_lat + extra_lat)
                return
            # Miss all the way to memory (write-allocate).
            self._mem_read_fill(req, bank, extra_lat=extra_lat)
            return

        # Shared hit upgraded to M.
        self.directory.set_owner(line, core_id)
        self._finish_store(req, entry, base_lat + extra_lat)

    def _finish_store(self, req: _Request, entry: CacheEntry,
                      latency: int) -> None:
        epoch = req.epoch
        if epoch is not None:
            # The epoch may have been split while this store was away at
            # the memory controller; an uncompleted store always lands in
            # the live remainder epoch.
            epoch = req.epoch = epoch.resolve()
        line = req.line
        core_id = req.core_id
        if (
            self._logging_on
            and epoch is not None
            and (not entry.dirty or entry.epoch is not epoch)
        ):
            # First modification of this line in this epoch: undo-log the
            # old value (section 5.2.1).
            old = dict(entry.values) if entry.values is not None else None
            self.undo_logs[core_id].record(epoch, line, old)

        self.directory.set_owner(line, core_id)
        if epoch is not None:
            entry.dirty = True
            entry.epoch = epoch
            self._tag_line(epoch, line)
            epoch.all_lines.add(line)
        elif req.persist_sync or req.wt_async:
            # SP / write-through BSP: the value goes straight to NVRAM;
            # the cached copy is clean.
            entry.dirty = False
            entry.epoch = None
        else:
            entry.dirty = True
            entry.epoch = None
        if self.track_values and req.values:
            if entry.values is None:
                entry.values = {}
            entry.values.update(req.values)
        self.l1s[core_id].touch(entry)

        if req.persist_sync:
            self._persist_through(req, entry, latency, sync=True)
        elif req.wt_async:
            self._persist_through(req, entry, latency, sync=False)
        else:
            self._complete(req, latency)

    def _persist_through(self, req: _Request, entry: CacheEntry,
                         latency: int, sync: bool) -> None:
        line = req.line
        values = dict(entry.values) if entry.values is not None else None
        mc_id = self.amap.mc_of(line)
        mc = self.mcs[mc_id]
        travel = self.mesh.core_to_mc(req.core_id, mc_id)

        if sync:
            self.engine.schedule(
                latency + travel, self._issue_write_through,
                mc, line, req.core_id, values, req.on_done,
            )
        else:
            self.engine.schedule(
                latency + travel, self._issue_write_through,
                mc, line, req.core_id, values, req.on_persist_ack,
            )
            self._complete(req, latency)

    @staticmethod
    def _issue_write_through(
        mc: MemoryController,
        line: int,
        core_id: int,
        values: Optional[Dict[int, object]],
        callback: Optional[Callable[[int], None]],
    ) -> None:
        mc.write(line, core_id, -1, "data", values, callback=callback)

    # ------------------------------------------------------------------
    # Conflict resolution
    # ------------------------------------------------------------------
    def _clear_remote_dependence(self, req: _Request,
                                 source: Epoch) -> bool:
        """Handle an inter-thread conflict against ``source``.

        Returns True when the request may proceed now (IDT recorded the
        dependence), False when it was parked behind an online flush.
        """
        self._conflict_stats.bump("inter_thread")
        if self.tracer:
            self.tracer.record(
                self.engine.now, "conflict", req.core_id,
                type="inter", line=hex(req.line), source=str(source),
            )
        design = self.config.barrier_design
        src_mgr = self.managers[source.core_id]
        if design.uses_idt:
            if source.ongoing:
                # Deadlock avoidance (section 3.3): split the ongoing
                # source so the dependence lands on a completed prefix.
                self._traced_split(src_mgr, source)

            dependent = self.managers[req.core_id].current_or_new()
            if source.persisted:
                return True
            if self.idt.try_record(source, dependent):
                self._conflict_stats.bump("idt_tracked")
                if self.tracer:
                    self.tracer.record(
                        self.engine.now, "idt_edge", req.core_id,
                        source=str(source), dependent=str(dependent),
                    )
                return True
        if source.ongoing:
            # Without IDT (or on register overflow) the source chain must
            # flush online; split first so the flush can actually finish.
            self._traced_split(src_mgr, source)
        self._stall_for_flush(req, source)
        return False

    def _traced_split(self, src_mgr, source: Epoch) -> None:
        src_mgr.split_epoch(source)
        if self.tracer:
            self.tracer.record(
                self.engine.now, "epoch_split", source.core_id,
                epoch=str(source),
            )

    def _stall_for_flush(self, req: _Request, target: Epoch) -> None:
        """Park ``req`` until ``target`` (and its predecessors) persist."""
        self._conflict_stats.bump("online_flush_stalls")
        start = self.engine.now
        if self.tracer:
            self.tracer.record(
                start, "stall", req.core_id,
                line=hex(req.line), target=str(target),
            )

        def resume() -> None:
            self._conflict_stats.record(
                "online_stall_cycles", self.engine.now - start
            )
            self._try_access(req)

        target.on_persist(resume)
        self.arbiters[target.core_id].request_flush_upto(target, online=True)

    def _retry_after_all(self, req: _Request, blockers: List[Epoch]) -> None:
        remaining = [len(blockers)]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._try_access(req)

        for epoch in blockers:
            epoch.on_persist(one_done)

    def _eviction_allowed(self, victim_epoch: Epoch,
                          req: _Request) -> bool:
        """Check whether a line of ``victim_epoch`` may persist now.

        Replacement of a dirty unpersisted line is an *offline persist* --
        but only if every happens-before predecessor of the line's epoch
        has already persisted; otherwise the line would reach NVRAM ahead
        of older epochs (the Figure 7 violation).  When blocked, the
        predecessors are flushed online and ``req`` retried.
        """
        mgr = self.managers[victim_epoch.core_id]
        blockers: List[Epoch] = []
        prev = mgr.predecessor_of(victim_epoch)
        if prev is not None:
            blockers.append(prev)
        blockers.extend(
            src for src in sorted(victim_epoch.idt_sources, key=BY_KEY)
            if not src.persisted
        )
        if not blockers:
            return True
        self._conflict_stats.bump("eviction_conflicts")
        for blocker in blockers:
            self.arbiters[blocker.core_id].request_flush_upto(
                blocker, online=True
            )
        self._retry_after_all(req, blockers)
        return False

    # ------------------------------------------------------------------
    # Movement helpers
    # ------------------------------------------------------------------
    def _writeback_to_llc(self, owner: int, o_entry: CacheEntry,
                          req: _Request, invalidate: bool) -> bool:
        """Write a dirty L1 line back into the LLC, keeping its epoch tag.

        Returns False when the writeback hit a persist-ordering conflict
        and ``req`` was parked.
        """
        line = o_entry.line
        bank_cache = self.llc_banks[self.amap.bank_of(line)]
        llc_entry = bank_cache.lookup(line)
        if llc_entry is None:
            if not self._make_room_llc(bank_cache, line, req):
                return False
            llc_entry = bank_cache.insert(line)
        elif (
            llc_entry.unpersisted
            and llc_entry.epoch is not o_entry.epoch
        ):
            # Two-version collision: the LLC's older version must persist
            # before it can be overwritten.
            self._conflict_stats.bump("version_collisions")
            self._stall_for_flush(req, llc_entry.epoch)
            return False

        if o_entry.values is not None:
            if llc_entry.values is None:
                llc_entry.values = {}
            llc_entry.values.update(o_entry.values)
        llc_entry.dirty = o_entry.dirty
        llc_entry.epoch = o_entry.epoch
        bank_cache.touch(llc_entry)
        if invalidate:
            self.l1s[owner].remove(line)
            self.directory.drop_core(line, owner)
        else:
            o_entry.dirty = False
            o_entry.epoch = None
        return True

    def _make_room_llc(self, bank_cache: SetAssociativeCache, line: int,
                       req: _Request) -> bool:
        victim = bank_cache.victim_for(line)
        if victim is None:
            return True
        if victim.dirty:
            if victim.unpersisted:
                if not self._eviction_allowed(victim.epoch, req):
                    return False
                self._n_llc_dirty_evictions += 1
                self.persist_line(victim, victim.epoch, kind="eviction")
                return True
            self._n_llc_dirty_evictions += 1
            self.persist_line(victim, None, kind="eviction",
                              evictor_core=req.core_id)
            return True
        bank_cache.remove(victim.line)
        return True

    def _fill_l1(self, core_id: int, line: int, req: _Request,
                 source: Optional[CacheEntry] = None) -> bool:
        l1 = self.l1s[core_id]
        if l1.lookup(line) is not None:
            return True
        victim = l1.victim_for(line)
        if victim is not None and victim.dirty:
            if not self._writeback_to_llc(core_id, victim, req,
                                          invalidate=True):
                return False
            victim = None  # the writeback already removed it
        if victim is not None:
            entry = l1.swap_in(line, victim)
            self.directory.drop_core(victim.line, core_id)
        else:
            entry = l1.swap_in(line)
        if self.track_values:
            if source is not None and source.values is not None:
                entry.values = dict(source.values)
            else:
                stored = self.image.values.get(line)
                entry.values = dict(stored) if stored else {}
        return True

    def _mem_read_fill(self, req: _Request, bank: int,
                       extra_lat: int = 0) -> None:
        line = req.line
        mc_id = self.amap.mc_of(line)
        bank_mc = self.mesh.b2mc[bank][mc_id]
        travel = self._fill_travel[req.core_id][bank] + bank_mc
        delivery = bank_mc + self.mesh.c2b[req.core_id][bank] + extra_lat
        self.engine.schedule(travel, self._mem_at_mc,
                                  mc_id, req, bank, delivery)

    def _mem_at_mc(self, mc_id: int, req: _Request, bank: int,
                   delivery: int) -> None:
        self.mcs[mc_id].read(req.line, self._mem_fill_done,
                             req, bank, delivery)

    def _mem_fill_done(self, req: _Request, bank: int, delivery: int,
                       _time: int) -> None:
        line = req.line
        bank_cache = self.llc_banks[bank]
        raced_entry = bank_cache.lookup(line)
        if self.directory.owner_of(line) is not None or (
            raced_entry is not None and raced_entry.unpersisted
        ):
            # Another core's store completed (or wrote back a dirty
            # version) while our read was at the memory controller;
            # reclassify from scratch so ownership and conflict
            # checks see the new state.
            self._n_llc_fill_races += 1
            self._try_access(req)
            return
        if raced_entry is None:
            if not self._make_room_llc(bank_cache, line, req):
                return
            llc_entry = bank_cache.insert(line)
            if self.track_values:
                stored = self.image.values.get(line)
                llc_entry.values = dict(stored) if stored else {}
        else:
            llc_entry = bank_cache.lookup(line)
        if not self._fill_l1(req.core_id, line, req, source=llc_entry):
            return
        if req.is_store:
            self.directory.set_owner(line, req.core_id)
            entry = self.l1s[req.core_id].lookup(line)
            self._finish_store(req, entry, delivery)
        else:
            self.directory.add_sharer(line, req.core_id)
            self._complete(req, delivery)

    # ------------------------------------------------------------------
    # Per-line epoch tags
    # ------------------------------------------------------------------
    def _tag_line(self, epoch: Epoch, line: int) -> None:
        """Add ``line`` to ``epoch``'s unpersisted set, tagging the line.

        Every mutation of an ``Epoch.lines`` set goes through here,
        :meth:`_untag_line` or :meth:`try_clean_store`, so the tag map
        stays exact.  A
        line already tagged by another epoch gains a depth count: the
        IDT case where the older version was written back to the LLC
        while the newer lives in the requester's L1.  The tag always
        points at the newest version's epoch.
        """
        lines = epoch.lines
        if line in lines:
            return
        lines.add(line)
        tags = self._epoch_tags
        if line in tags:
            self._tag_depth[line] = self._tag_depth.get(line, 1) + 1
        tags[line] = epoch

    def _untag_line(self, epoch: Epoch, line: int) -> bool:
        """Remove ``line`` from ``epoch``'s unpersisted set.

        Returns False (leaving the tag map untouched) when the epoch no
        longer tracked the line -- the flush walker's "already in
        flight" case.  With stacked versions only the depth drops: the
        older version always leaves the dirty domain first (its flush is
        what the newer version's IDT edge waits for; evictions and
        writeback collisions are gated the same way), so the tag keeps
        pointing at the newest epoch and never needs a rescan.
        """
        lines = epoch.lines
        if line not in lines:
            return False
        lines.remove(line)
        depth = self._tag_depth.get(line)
        if depth is None:
            del self._epoch_tags[line]
        elif depth == 2:
            del self._tag_depth[line]
        else:
            self._tag_depth[line] = depth - 1
        return True

    # ------------------------------------------------------------------
    # Persistence primitives
    # ------------------------------------------------------------------
    def locate_epoch_line(
        self, epoch: Epoch, line: int
    ) -> Tuple[Optional[CacheEntry], Optional[int]]:
        """Find the cache entry holding ``epoch``'s version of ``line``.

        Returns ``(entry, l1_core)`` -- ``l1_core`` is None for
        LLC-resident lines -- or ``(None, None)`` if the version already
        left the caches (its NVRAM write is in flight).
        """
        entry = self.l1s[epoch.core_id].lookup(line)
        if entry is not None and entry.dirty and entry.epoch is epoch:
            return entry, epoch.core_id
        entry = self.llc_banks[self.amap.bank_of(line)].lookup(line)
        if entry is not None and entry.dirty and entry.epoch is epoch:
            return entry, None
        return None, None

    def flush_line_transition(
        self,
        entry: CacheEntry,
        line: int,
        invalidate: bool,
        from_l1_core: Optional[int],
    ) -> Optional[Dict[int, object]]:
        """Cache-side transition of a line leaving the dirty domain.

        Returns the value snapshot to commit (ownership passes to the
        NVRAM image).  Shared between the flush engine's issue walker and
        :meth:`persist_line`.
        """
        values = dict(entry.values) if entry.values is not None else None
        if invalidate:
            # clflush semantics: every cached copy is invalidated.
            if from_l1_core is not None:
                self.l1s[from_l1_core].remove(line)
            self.llc_banks[self.amap.bank_of(line)].remove(line)
            for sharer in self.directory.sharers_of(line):
                self.l1s[sharer].remove(line)
            owner = self.directory.owner_of(line)
            if owner is not None:
                self.l1s[owner].remove(line)
            self.directory.drop_line(line)
        else:
            # clwb semantics: the copy stays cached, now clean.
            entry.dirty = False
            entry.epoch = None
            if from_l1_core is not None:
                self.directory.clear_owner(line)
                if values is not None:
                    llc_entry = self.llc_banks[
                        self.amap.bank_of(line)].lookup(line)
                    if llc_entry is not None:
                        llc_entry.values = dict(values)
        return values

    def persist_line(
        self,
        entry: CacheEntry,
        epoch: Optional[Epoch],
        kind: str,
        extra_delay: int = 0,
        on_ack: Optional[Callable[[int], None]] = None,
        invalidate: bool = False,
        from_l1_core: Optional[int] = None,
        evictor_core: int = -1,
    ) -> None:
        """Issue a durable write of ``entry``'s current value.

        The cache-side transition happens now (the version leaves the
        dirty domain); the NVRAM image commit and ``on_ack`` fire when the
        memory controller acknowledges the write.  Used by the eviction
        paths; epoch flushes go through the batch machinery in
        :mod:`repro.core.flush` instead.
        """
        line = entry.line
        if epoch is not None:
            self._untag_line(epoch, line)
            epoch.inflight_writes += 1
            core_id, seq = epoch.core_id, epoch.seq
        else:
            core_id, seq = evictor_core, -1

        if kind == "eviction":
            # LLC replacement: only the LLC copy disappears.
            values = dict(entry.values) if entry.values is not None else None
            self.llc_banks[self.amap.bank_of(line)].remove(line)
        else:
            values = self.flush_line_transition(
                entry, line, invalidate, from_l1_core
            )

        mc = self.mcs[self.amap.mc_of(line)]
        if extra_delay:
            self.engine.schedule(
                extra_delay, self._issue_persist,
                mc, line, core_id, seq, kind, values, epoch, on_ack,
            )
        else:
            self._issue_persist(
                mc, line, core_id, seq, kind, values, epoch, on_ack
            )

    def _issue_persist(
        self,
        mc: MemoryController,
        line: int,
        core_id: int,
        seq: int,
        kind: str,
        values: Optional[Dict[int, object]],
        epoch: Optional[Epoch],
        on_ack: Optional[Callable[[int], None]],
    ) -> None:
        if epoch is None and on_ack is None:
            mc.write(line, core_id, seq, kind, values)
        else:
            mc.write(line, core_id, seq, kind, values,
                     callback=self._persist_acked, cb_args=(epoch, on_ack))

    def _persist_acked(self, epoch: Optional[Epoch],
                       on_ack: Optional[Callable[[int], None]],
                       time: int) -> None:
        if epoch is not None:
            epoch.inflight_writes -= 1
            self.maybe_persist(epoch)
        if on_ack is not None:
            on_ack(time)

    def maybe_persist(self, epoch: Epoch) -> None:
        """Declare ``epoch`` persisted if every condition now holds."""
        if epoch.persisted or epoch.flush_active:
            return
        if not epoch.complete or not epoch.empty:
            return
        mgr = self.managers[epoch.core_id]
        if not mgr.deps_persisted(epoch):
            return
        mgr.mark_persisted(epoch)
        if self.tracer:
            self.tracer.record(
                self.engine.now, "epoch_persist", epoch.core_id,
                epoch=str(epoch), conflict=epoch.conflict_flush,
            )
        self.arbiters[epoch.core_id].pump()

    def _proactive_flush(self, epoch: Epoch) -> None:
        """PF (section 3.2): flush an epoch as soon as it completes."""
        self.arbiters[epoch.core_id].request_flush_upto(
            epoch, online=False, mark_conflict=False
        )

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def core_finished(self, core_id: int) -> None:
        self._active_cores -= 1
        if self._active_cores == 0:
            self._finish_time = self.engine.now

    def run(
        self,
        programs: List,
        max_cycles: Optional[int] = None,
        drain: bool = True,
    ) -> RunResult:
        """Execute one program per core and return the results.

        ``programs`` is a list of per-thread op iterables, at most one per
        core.  With ``drain`` (the default) all remaining epochs are
        flushed after the last core finishes, yielding the durable
        completion time alongside the visible one.
        """
        if len(programs) > self.config.num_cores:
            raise ValueError(
                f"{len(programs)} programs for {self.config.num_cores} cores"
            )
        if self.cores:
            raise RuntimeError("machine already ran; build a fresh Multicore")
        self.cores = [
            Core(core_id, self, ops) for core_id, ops in enumerate(programs)
        ]
        self._active_cores = len(self.cores)
        for core in self.cores:
            core.start()
        self.engine.run(until=max_cycles)
        for core in self.cores:
            core.flush_hot_stats()

        finished = self._finish_time is not None
        cycles_visible = self._finish_time
        cycles_durable: Optional[int] = None
        if finished and drain:
            for arbiter in self.arbiters:
                arbiter.drain_all()
            self.engine.run(until=max_cycles)
            # A trailing ongoing epoch that never received a store (it
            # exists only because a load recorded an IDT dependence) has
            # nothing to persist and does not count against durability.
            drained = all(
                epoch.ongoing and epoch.num_stores == 0
                and epoch.pending_stores == 0 and epoch.empty
                for mgr in self.managers
                for epoch in mgr.window
            )
            if drained:
                cycles_durable = self.engine.now
        if finished and drain and self.faults is not None:
            # The unsound reorder fault may hold a partial batch of
            # deferred persists; a completed (non-crash) run flushes
            # them so the final image is whole.  Crash captures run with
            # drain=False and deliberately lose them ("in flight").
            self.image.flush_reorder_buffer()
        self._flush_hot_stats()
        return RunResult(
            cycles_visible=cycles_visible,
            cycles_durable=cycles_durable,
            stats=self.stats,
            config=self.config,
            finished=finished,
        )

    def _note_epoch_flush(self, num_lines: int) -> None:
        """Account one epoch flush (called by FlushOperation.start)."""
        self._n_epoch_flushes += 1
        self._fel_sum += num_lines
        self._fel_count += 1
        if num_lines > self._fel_max:
            self._fel_max = num_lines

    def _flush_hot_stats(self) -> None:
        """Merge all attribute-held hot counters into the stat domains.

        Covers the machine's own hoists (L1 hit counts, LLC access and
        flush counts, memory-latency samples), the cache arrays' fill
        counts and the memory controllers'; the cores flush their own
        right after the visible phase.  Idempotent, like the component
        flushes it delegates to.
        """
        for core_id in range(self.config.num_cores):
            hits = self._l1_hit_counts[core_id]
            if hits:
                self._l1_domains[core_id].bump("hits", hits)
                self._l1_hit_counts[core_id] = 0
            count = self._lat_counts[core_id]
            if count:
                self._core_domains[core_id].merge_samples(
                    "mem_latency", self._lat_sums[core_id], count,
                    self._lat_maxes[core_id],
                )
                self._lat_sums[core_id] = 0
                self._lat_counts[core_id] = 0
                self._lat_maxes[core_id] = 0
        llc = self._llc_domain
        for key, value in (
            ("hits", self._n_llc_hits),
            ("misses", self._n_llc_misses),
            ("forwards", self._n_llc_forwards),
            ("fill_races", self._n_llc_fill_races),
            ("dirty_evictions", self._n_llc_dirty_evictions),
        ):
            if value:
                llc.bump(key, value)
        self._n_llc_hits = self._n_llc_misses = 0
        self._n_llc_forwards = self._n_llc_fill_races = 0
        self._n_llc_dirty_evictions = 0
        if self._n_epoch_flushes:
            self._flush_domain.bump("epoch_flushes", self._n_epoch_flushes)
            self._n_epoch_flushes = 0
        if self._fel_count:
            self._flush_domain.merge_samples(
                "flush_epoch_lines", self._fel_sum, self._fel_count,
                self._fel_max,
            )
            self._fel_sum = self._fel_count = self._fel_max = 0
        for cache in self.l1s:
            cache.flush_hot_stats()
        for cache in self.llc_banks:
            cache.flush_hot_stats()
        for mc in self.mcs:
            mc.flush_hot_stats()

    def handshake_counters(self) -> dict:
        """Machine-wide handshake message totals (digest-invisible).

        The aggregate of every core's :class:`HandshakeStats`, plus the
        per-core breakdown -- the payload the bench harness records for
        the messages-per-flush scaling curves and compares fast vs
        reference (the counters are bumped identically in both engine
        modes; this accessor is the parity probe).
        """
        total = HandshakeStats()
        for hs in self.handshake:
            total.merge(hs)
        out = total.as_dict()
        out["per_core"] = [hs.as_dict() for hs in self.handshake]
        return out

    # ------------------------------------------------------------------
    # Invariant auditing (used by the test suite)
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Check cross-structure invariants; raises AssertionError."""
        for mgr in self.managers:
            mgr.audit()
            for epoch in mgr.window:
                for line in epoch.lines:
                    entry, _ = self.locate_epoch_line(epoch, line)
                    if entry is None:
                        raise AssertionError(
                            f"{epoch} tracks 0x{line:x} but no cache holds it"
                        )
                if epoch.inflight_writes < 0 or epoch.pending_stores < 0:
                    raise AssertionError(f"negative accounting on {epoch}")
        for core_id, l1 in enumerate(self.l1s):
            for entry in l1.dirty_entries():
                if entry.epoch is not None:
                    if entry.epoch.core_id != core_id:
                        raise AssertionError(
                            f"L1.{core_id} holds foreign-epoch dirty line "
                            f"0x{entry.line:x}"
                        )
                    if entry.line not in entry.epoch.lines:
                        raise AssertionError(
                            f"dirty 0x{entry.line:x} missing from "
                            f"{entry.epoch}"
                        )
        for bank in self.llc_banks:
            for entry in bank.dirty_entries():
                if entry.epoch is not None and not entry.epoch.persisted:
                    if entry.line not in entry.epoch.lines:
                        raise AssertionError(
                            f"LLC dirty 0x{entry.line:x} missing from "
                            f"{entry.epoch}"
                        )
        # The epoch-tag map must be exactly the union of the window
        # epochs' line sets, with the depth dict matching every line's
        # version multiplicity and each tag naming an epoch that
        # actually holds the line.
        counts: Dict[int, int] = {}
        holders: Dict[int, List[Epoch]] = {}
        for mgr in self.managers:
            for epoch in mgr.window:
                for line in epoch.lines:
                    counts[line] = counts.get(line, 0) + 1
                    holders.setdefault(line, []).append(epoch)
        if counts.keys() != self._epoch_tags.keys():
            stale = self._epoch_tags.keys() - counts.keys()
            missing = counts.keys() - self._epoch_tags.keys()
            raise AssertionError(
                f"epoch-tag map out of sync: stale="
                f"{[hex(l) for l in stale]} missing="
                f"{[hex(l) for l in missing]}"
            )
        for line, n in counts.items():
            if self._epoch_tags[line] not in holders[line]:
                raise AssertionError(
                    f"tag for 0x{line:x} names an epoch not holding it"
                )
            depth = self._tag_depth.get(line)
            if (depth or 1) != n:
                raise AssertionError(
                    f"0x{line:x} has {n} versions but depth {depth}"
                )
        for line in self._tag_depth:
            if line not in counts:
                raise AssertionError(f"stale depth entry for 0x{line:x}")
