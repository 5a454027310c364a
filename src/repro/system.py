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
from repro.cpu.processor import _FULL_MISS, _REFUSED, Core
from repro.mem.address import AddressMap
from repro.mem.cache import CacheEntry, SetAssociativeCache
from repro.mem.coherence import Directory
from repro.mem.interconnect import Mesh, _LazyRows
from repro.mem.nvram import MemoryController, NVRAMImage
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.config import MachineConfig, PersistencyModel
from repro.sim.engine import Engine
from repro.sim.stats import HandshakeStats, Stats
from repro.sim.trace import Tracer

_MAX_REQUEST_RETRIES = 1000


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
        # instead of the fused paths.  Counting, latency tables, the
        # directory and the epochs' line sets are the same in both modes.
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
        # A memory fill's arrival event calls its controller's read.
        self._mc_reads = [mc.read for mc in self.mcs]
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
        self.directory = Directory()

        self.managers: List[EpochManager] = []
        self.arbiters: List[Arbiter] = []
        self.undo_logs: List[UndoLog] = []
        self.checkpoints: List[CheckpointEngine] = []
        self.idt = IDTracker(
            config.idt_registers_per_epoch, self.stats.domain("idt"),
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
        # Per-request accounting hoists: L1 hit counts, LLC access
        # counts, flush counts and memory-latency samples accumulate in
        # plain attributes and merge into the stat domains once, at run
        # end (_flush_hot_stats).
        self._l1_lat = config.l1_latency
        # Bank resolution inlined in the fused paths: one shift and one
        # modulo instead of an AddressMap method call per access.
        self._bank_shift = config.offset_bits
        self._n_banks = config.llc_banks
        self._n_mcs = config.num_memory_controllers
        # The directory's line -> entry map, probed inline by the fused
        # paths (the directory never replaces it).
        self._dir_entries = self.directory._entries
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
    # The fused fast paths below collapse the conflict-free cases of
    # load/store into the entry call: no _Request allocation, no
    # dispatcher hops, and no scheduled completion: a fused load or
    # store returns its latency to the core, which completes it.  (An L1
    # load hit and a store to a line the core's ongoing epoch already
    # dirtied never get here in fast mode: the core serves them from its
    # own L1 and hands their counts over at run end, merge_l1_hits.)
    # Every state transition and every count matches the general path
    # bit for bit -- the determinism-digest tests compare against the
    # reference mode, which always takes the general path.

    def load(self, core_id: int, line: int,
             on_done: Callable[[int], None]) -> int:
        """Load ``line`` for ``core_id``.

        In fast mode the core calls this only when its own L1 missed.
        A conflict-free LLC fill is applied at once and its latency
        returned; nothing is scheduled, and the caller continues at
        ``now + latency`` (claiming the clock or scheduling its own
        continuation).  Any other load returns -1 and calls
        ``on_done(time)`` when its data arrives -- the full miss, the
        general classifier, and every load in reference mode, where the
        core sends hits here too.
        """
        if self._fast:
            # Fused L1-miss/LLC-hit path: a conflict-free fill from the
            # LLC completes without a request object.  Conflict-free
            # means: no foreign M owner, the LLC copy (if dirty) is not
            # another core's unpersisted version, and the L1 victim (if
            # any) is clean.  Anything else falls through to the general
            # classifier.
            bank = (line >> self._bank_shift) % self._n_banks
            ent = self._dir_entries.get(line)
            owner = None if ent is None else ent.owner
            if owner is None or owner == core_id:
                bank_cache = self.llc_banks[bank]
                index = (line >> bank_cache._offset_bits) \
                    & bank_cache._set_mask
                bank_set = bank_cache._sets[index]
                llc_entry = bank_set.get(line)
                if llc_entry is not None and not (
                    llc_entry.dirty
                    and llc_entry.epoch is not None
                    and llc_entry.epoch.core_id != core_id
                    and not llc_entry.epoch.persisted
                ):
                    filled = self.l1s[core_id].clean_fill(line)
                    if filled is not None:
                        # Same end state as the general path: LLC
                        # touched, victim out, fill in, sharer added.
                        entry, victim_line = filled
                        if bank_cache._mru[index] != line:
                            # Cache.touch, inlined.
                            del bank_set[line]
                            bank_set[line] = llc_entry
                            bank_cache._mru[index] = line
                        if self.track_values:
                            entry.values = self._fill_values(line,
                                                             llc_entry)
                        directory = self.directory
                        if victim_line >= 0:
                            directory.drop_core(victim_line, core_id)
                        directory.add_sharer(line, core_id)
                        self._n_llc_hits += 1
                        lat = self._base_lat[core_id][bank]
                        self._lat_sums[core_id] += lat
                        self._lat_counts[core_id] += 1
                        if lat > self._lat_maxes[core_id]:
                            self._lat_maxes[core_id] = lat
                        return lat
                if llc_entry is None and owner is None:
                    self._n_llc_misses += 1
                    self._fused_miss(core_id, line, bank, on_done, None,
                                     None)
                    return -1
        req = _Request(core_id, line, False, None, None, on_done)
        req.issue_time = self.engine.now
        self._try_access(req)
        return -1

    def store(
        self,
        core_id: int,
        line: int,
        values: Optional[Dict[int, object]],
        epoch: Optional[Epoch],
        on_done: Callable[[int], None],
        refusal: int = _REFUSED,
        persist_sync: bool = False,
        wt_async: bool = False,
        on_persist_ack: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Issue a store; ``on_done(time)`` fires when it completes.

        The core sends every store here in reference mode, and in fast
        mode the untagged ones and the epoch-tagged ones
        :meth:`try_clean_store` refused, with its code as ``refusal``:
        :data:`_FULL_MISS` takes the fused full-miss path (a store bumps
        no LLC miss count, as in the general classifier), anything else
        the general classifier.
        """
        if refusal == _FULL_MISS:
            self._fused_miss(core_id, line,
                             (line >> self._bank_shift) % self._n_banks,
                             on_done, values, epoch)
            return
        req = _Request(core_id, line, True, values, epoch, on_done)
        req.persist_sync = persist_sync
        req.wt_async = wt_async
        req.on_persist_ack = on_persist_ack
        req.issue_time = self.engine.now
        self._try_access(req)

    def try_clean_store(self, core_id: int, line: int,
                        entry: Optional[CacheEntry],
                        values: Optional[Dict[int, object]],
                        epoch: Epoch) -> int:
        """Apply one epoch-tagged store if it is a conflict-free miss or
        upgrade and return its latency; otherwise return
        :data:`_REFUSED` or :data:`_FULL_MISS` with no observable side
        effect, and the core issues the store through :meth:`store`.

        The one conflict-free store applier, called once per drain step
        the core does not serve itself (fast mode).  It applies the
        clean miss/upgrade filled from a conflict-free LLC copy as the
        general classifier would and records the latency sample; the
        caller completes it.  ``_FULL_MISS`` marks a line that no
        other core holds and no cache has.  The cache-state guard doubles
        as the flush-in-window guard: an unpersisted version of the line
        sits dirty in an L1 (this core's, or another core's that owns
        it) or in the LLC, so the store is refused wherever one is, and
        the general classifier re-derives the conflict.  ``entry`` is
        the core's L1 entry for ``line`` (None on a miss), just probed
        by the caller; ``epoch`` must be the core's ongoing epoch.
        """
        l1 = self.l1s[core_id]
        # Undo logging, a dirty copy in this L1 (tagged in practice: a
        # persisted epoch's flush cleans or invalidates its L1 lines),
        # another core's copy (a dirty one makes that core the owner)
        # and an unpersisted version in the LLC are the general
        # classifier's business.
        directory = self.directory
        if (
            self._logging_on
            or (entry is not None and entry.dirty)
            or not directory.exclusive_ok(line, core_id)
        ):
            return _REFUSED
        bank = (line >> self._bank_shift) % self._n_banks
        llc_entry = self.llc_banks[bank].lookup(line)
        if llc_entry is not None and llc_entry.unpersisted:
            return _REFUSED
        # An S-state L1 hit upgraded in place, or an L1 miss filled from
        # the LLC (same end state as _try_store -> _fill_l1 for a
        # clean-victim fill).
        if entry is None:
            if llc_entry is None:
                return _FULL_MISS
            filled = l1.clean_fill(line)
            if filled is None:
                return _REFUSED
            entry, victim_line = filled
            if self.track_values:
                entry.values = self._fill_values(line, llc_entry)
            if victim_line >= 0:
                directory.drop_core(victim_line, core_id)
        else:
            # Cache.touch, inlined (a fill is most recent already).
            index = (line >> l1._offset_bits) & l1._set_mask
            if l1._mru[index] != line:
                l1_set = l1._sets[index]
                del l1_set[line]
                l1_set[line] = entry
                l1._mru[index] = line
        directory.set_owner(line, core_id)
        lat = self._base_lat[core_id][bank]
        entry.dirty = True
        entry.epoch = epoch
        epoch.lines.add(line)
        epoch.all_lines.add(line)
        if self.track_values and values:
            if entry.values is None:
                entry.values = {}
            entry.values.update(values)
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
        mc_id = (line >> self._bank_shift) % self._n_mcs
        bank_mc = self.mesh.b2mc[bank][mc_id]
        eng = self.engine
        # The read reaches the controller after the L1->bank->MC legs;
        # it consults and mutates controller state at that arrival.
        eng.schedule(
            self._fill_travel[core_id][bank] + bank_mc,
            self._mc_reads[mc_id], line, self._fused_miss_done, core_id,
            line, bank, bank_mc + self.mesh.c2b[core_id][bank], on_done,
            eng.now, values, epoch,
        )

    def _fused_miss_done(self, core_id: int, line: int, bank: int,
                         delivery: int, on_done: Callable[[int], None],
                         issue_time: int,
                         values: Optional[Dict[int, object]],
                         epoch: Optional[Epoch], time: int) -> None:
        """Completion of a fused full-miss fill (``epoch`` set for
        stores, None for loads).

        Mirrors :meth:`_mem_fill_done` plus the simple-victim tails of
        ``_make_room_llc`` / ``_fill_l1`` / ``_finish_store`` /
        ``_complete``, probing the directory, the LLC set and the L1 set
        inline.  Any fill-time hazard -- a race with another core, an L1
        set whose every way is dirty, an LLC set whose every way is
        dirty -- builds the request object the scheduled path would have
        carried and delegates to :meth:`_mem_fill_done`, which
        re-derives everything from live state (``retries = 1`` matches
        the one classifier pass the scheduled path took at issue).  The
        LLC's ``clean_fill`` is the last check and the first change;
        the L1's ``clean_fill`` follows it and cannot fail, because the
        LLC fill leaves every L1 alone."""
        bank_cache = self.llc_banks[bank]
        raced = bank_cache._sets[
            (line >> bank_cache._offset_bits) & bank_cache._set_mask
        ].get(line)
        ent = self._dir_entries.get(line)
        l1 = self.l1s[core_id]
        l1_set = l1._sets[(line >> l1._offset_bits) & l1._set_mask]
        l1_entry = l1_set.get(line)
        simple = (
            (ent is None or ent.owner is None)
            and (raced is None or not raced.unpersisted)
        )
        if simple and l1_entry is None and len(l1_set) >= l1.assoc:
            # The L1 fill needs a free or clean way.
            for victim in l1_set.values():
                if not victim.dirty:
                    break
            else:
                simple = False
        llc_entry = raced
        if simple and raced is None:
            filled = bank_cache.clean_fill(line)
            if filled is None:
                simple = False
            else:
                llc_entry = filled[0]
                if self.track_values:
                    llc_entry.values = self._fill_values(line)
        if not simple:
            req = _Request(core_id, line, epoch is not None, values,
                           epoch, on_done)
            req.issue_time = issue_time
            req.retries = 1
            self._mem_fill_done(req, bank, delivery, time)
            return
        if l1_entry is None:
            l1_entry, victim_line = l1.clean_fill(line)
            if victim_line >= 0:
                self.directory.drop_core(victim_line, core_id)
            if self.track_values:
                l1_entry.values = self._fill_values(line, llc_entry)
        elif epoch is not None:
            # A store touches a line an earlier request filled while
            # this one was out; a fresh fill is most recent already.
            l1.touch(l1_entry)
        if epoch is not None:
            self._grant_m(line, core_id)
            # A split while the fill was out made the remainder current.
            epoch = self.managers[core_id].current
            l1_entry.dirty = True
            l1_entry.epoch = epoch
            epoch.lines.add(line)
            epoch.all_lines.add(line)
            if self.track_values and values:
                if l1_entry.values is None:
                    l1_entry.values = {}
                l1_entry.values.update(values)
        else:
            self.directory.add_sharer(line, core_id)
        sample = self.engine.now + delivery - issue_time
        self._lat_sums[core_id] += sample
        self._lat_counts[core_id] += 1
        if sample > self._lat_maxes[core_id]:
            self._lat_maxes[core_id] = sample
        self.engine.schedule(delivery, on_done, self.engine.now + delivery)

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
                # A split may have made a remainder epoch current while
                # this store was in flight (section 3.3).
                req.epoch = self.managers[req.core_id].current
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
        self.engine.schedule(latency, req.on_done, self.engine.now + latency)

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
        line = req.line
        core_id = req.core_id
        epoch = req.epoch
        if epoch is not None:
            # The epoch may have been split while this store was away at
            # the memory controller; an uncompleted store always lands in
            # the live remainder epoch.
            epoch = req.epoch = self.managers[core_id].current
        if (
            self._logging_on
            and epoch is not None
            and (not entry.dirty or entry.epoch is not epoch)
        ):
            # First modification of this line in this epoch: undo-log the
            # old value (section 5.2.1).
            old = dict(entry.values) if entry.values is not None else None
            self.undo_logs[core_id].record(epoch, line, old)

        # Every caller has just granted this core M, or found the line
        # dirty in its L1 (which makes it the owner already).
        if epoch is not None:
            entry.dirty = True
            entry.epoch = epoch
            epoch.lines.add(line)
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
                self.persist_line(victim, victim.epoch)
                return True
            self._n_llc_dirty_evictions += 1
            self.persist_line(victim, None, evictor_core=req.core_id)
            return True
        bank_cache.remove(victim.line)
        return True

    def _fill_l1(self, core_id: int, line: int, req: _Request,
                 source: Optional[CacheEntry] = None) -> bool:
        l1 = self.l1s[core_id]
        if l1.lookup(line) is not None:
            return True
        filled = l1.clean_fill(line)
        if filled is None:
            # Every way is dirty: write the LRU line back (which removes
            # it) before the fill takes its way.
            if not self._writeback_to_llc(core_id, l1.victim_for(line), req,
                                          invalidate=True):
                return False
            filled = l1.clean_fill(line)
        entry, victim_line = filled
        if victim_line >= 0:
            self.directory.drop_core(victim_line, core_id)
        if self.track_values:
            entry.values = self._fill_values(line, source)
        return True

    def _fill_values(self, line: int,
                     source: Optional[CacheEntry] = None
                     ) -> Dict[int, object]:
        """A fresh value dict for a cache filling ``line`` (value
        tracking only): a copy of ``source``'s values, or of the NVRAM
        image's when ``source`` is absent or holds none."""
        if source is not None and source.values is not None:
            return dict(source.values)
        stored = self.image.values.get(line)
        return dict(stored) if stored else {}

    def _mem_read_fill(self, req: _Request, bank: int,
                       extra_lat: int = 0) -> None:
        line = req.line
        mc_id = self.amap.mc_of(line)
        bank_mc = self.mesh.b2mc[bank][mc_id]
        travel = self._fill_travel[req.core_id][bank] + bank_mc
        delivery = bank_mc + self.mesh.c2b[req.core_id][bank] + extra_lat
        self.engine.schedule(travel, self._mc_reads[mc_id], line,
                             self._mem_fill_done, req, bank, delivery)

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
                llc_entry.values = self._fill_values(line)
        else:
            llc_entry = raced_entry
        if not self._fill_l1(req.core_id, line, req, source=llc_entry):
            return
        if req.is_store:
            self._grant_m(line, req.core_id)
            entry = self.l1s[req.core_id].lookup(line)
            self._finish_store(req, entry, delivery)
        else:
            self.directory.add_sharer(line, req.core_id)
            self._complete(req, delivery)

    def _grant_m(self, line: int, core_id: int) -> None:
        """Grant a memory fill's store M on ``line``.  Another core may
        have loaded the line while the read was at the memory
        controller; its clean copy is invalidated, as :meth:`_try_store`
        invalidates the sharers of an LLC hit."""
        for sharer in self.directory.set_owner(line, core_id):
            if sharer != core_id:
                self.l1s[sharer].remove(line)

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
        NVRAM image).  Called by the flush engine's issue walker.
        """
        values = dict(entry.values) if entry.values is not None else None
        if invalidate:
            # clflush semantics: every cached copy is invalidated, except
            # another core's dirty L1 copy -- a newer version (the IDT
            # case: this one was written back to the LLC) that must
            # persist with its own epoch.  Its core owns the line and is
            # its only sharer, so the directory keeps that record.
            if from_l1_core is not None:
                self.l1s[from_l1_core].remove(line)
            self.llc_banks[self.amap.bank_of(line)].remove(line)
            directory = self.directory
            owner = directory.owner_of(line)
            newer = self.l1s[owner].lookup(line) if owner is not None else None
            if newer is None or not newer.dirty:
                for sharer in directory.sharers_of(line):
                    self.l1s[sharer].remove(line)
                directory.drop_line(line)
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
        evictor_core: int = -1,
    ) -> None:
        """Write back ``entry``, an LLC replacement victim, to NVRAM.

        Only the LLC copy disappears, now; the NVRAM image commit (and,
        for an unpersisted version, the epoch's persist check) happens
        when the memory controller acknowledges the write.  Epoch
        flushes go through the batch machinery in :mod:`repro.core.flush`
        instead.
        """
        line = entry.line
        if epoch is not None:
            epoch.lines.discard(line)
            epoch.inflight_writes += 1
        values = dict(entry.values) if entry.values is not None else None
        self.llc_banks[self.amap.bank_of(line)].remove(line)
        mc = self.mcs[self.amap.mc_of(line)]
        if epoch is None:
            mc.write(line, evictor_core, -1, "eviction", values)
        else:
            mc.write(line, epoch.core_id, epoch.seq, "eviction", values,
                     callback=self._persist_acked, cb_args=(epoch,))

    def _persist_acked(self, epoch: Epoch, time: int) -> None:
        epoch.inflight_writes -= 1
        self.maybe_persist(epoch)

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
    def merge_l1_hits(self, core_id: int, load_hits: int,
                      store_hits: int) -> None:
        """Account the L1 hits ``core_id`` served from its own L1 (fast
        mode; Core.flush_hot_stats calls this at run end), exactly as
        the general classifier records them per access: a load hit adds
        one L1 ``hits`` count and one ``mem_latency`` sample of
        ``l1_latency`` cycles, and a store to a line its ongoing epoch
        already dirtied adds the sample only."""
        self._l1_hit_counts[core_id] += load_hits
        hits = load_hits + store_hits
        lat = self._l1_lat
        self._lat_sums[core_id] += hits * lat
        self._lat_counts[core_id] += hits
        if lat > self._lat_maxes[core_id]:
            self._lat_maxes[core_id] = lat

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
                epoch.ongoing and epoch.num_stores == 0 and epoch.empty
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
        right after the visible phase, handing over the L1 hits they
        served (merge_l1_hits) before this merge.  Idempotent, like the
        component flushes it delegates to.
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
                # Every path that tags a line also records it as
                # written, so a same-epoch store may skip both adds.
                if not epoch.lines <= epoch.all_lines:
                    raise AssertionError(
                        f"{epoch} tracks lines missing from its all_lines"
                    )
                for line in epoch.lines:
                    entry, _ = self.locate_epoch_line(epoch, line)
                    if entry is None:
                        raise AssertionError(
                            f"{epoch} tracks 0x{line:x} but no cache holds it"
                        )
                if epoch.inflight_writes < 0:
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
        for cache in self.l1s + self.llc_banks:
            cache.audit()
        # The directory records every L1 copy (a stale sharer record,
        # left by an invalidation, is harmless), and a dirty L1 line's
        # core owns it.
        directory = self.directory
        directory.audit()
        for core_id, l1 in enumerate(self.l1s):
            for entry in l1.entries():
                ent = directory.peek(entry.line)
                if ent is None or core_id not in ent.sharers:
                    raise AssertionError(
                        f"L1.{core_id} holds 0x{entry.line:x} but the "
                        f"directory does not record it as a sharer"
                    )
                if entry.dirty and ent.owner != core_id:
                    raise AssertionError(
                        f"L1.{core_id} holds 0x{entry.line:x} dirty but "
                        f"the directory's owner is {ent.owner}"
                    )
