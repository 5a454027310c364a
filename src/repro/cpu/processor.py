"""The core model: an out-of-order core abstracted to its memory stream.

Persist-barrier behaviour is governed by the cache/epoch machinery, not
by pipeline microarchitecture, so cores are modeled at memory-operation
granularity:

* loads block until data returns (with store-buffer forwarding);
* stores retire into a finite FIFO write buffer (Table 1: 32 entries)
  that drains through the L1 in the background -- the stand-in for the
  OoO window's ability to hide store latency.  The buffer holds the
  store ops themselves; the drain derives each one's line (and, when
  values are tracked, its value) as it needs them;
* persist barriers travel through the write buffer as markers, so --
  exactly as in Condit et al.'s design -- a store is tagged with the
  epoch that is current *when it completes at the L1*.  An epoch closes
  when its barrier marker reaches the head of the buffer, at which point
  none of its stores can still be in flight: closed epochs are complete
  epochs, which is what makes the split-based deadlock-avoidance
  argument of section 3.3 sound.

The core also implements the persistency models' visibility rules:

* ``NP``      -- barriers ignored, no epoch tagging.
* ``SP``      -- every store persists synchronously before the next
  drains (write-through behaviour, Figure 1a).
* ``EP``      -- the core stalls at each barrier until the closed epoch
  has fully persisted (Figure 1b).
* ``BEP``     -- barriers close epochs and execution continues.
* ``BSP``     -- the hardware persistence engine closes an epoch every
  ``bsp_epoch_stores`` dynamic stores and checkpoints the register file
  (section 5.2).
* ``BSP_WT``  -- the naive write-through BSP the paper measures at ~8x.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple

from repro.core.epoch import EpochStatus
from repro.sim.config import PersistencyModel
from repro.workloads.base import Op, OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import Multicore


_EPOCH_MODELS = (
    PersistencyModel.BEP,
    PersistencyModel.BSP,
    PersistencyModel.EP,
)

# Why a fast-mode drain step opened no fast-forward session, the first
# that applies in _drain's order: an injector is configured; ff_begin
# would refuse (a clock hold, or outside run()); the BSP store quota is
# spent; the epoch-ID window is full; or the machine issued the store
# itself, as a full miss or through the general classifier.
_FF_FALLBACK_REASONS = ("faults", "held", "full_miss", "refused",
                        "bsp_limit", "window")
# Multicore.drain_store's negative returns, by name (repro.system's
# _REFUSED and _FULL_MISS; that module imports this one).
_STORE_REFUSALS = {-1: "refused", -2: "full_miss"}

# The op loop compares kinds, and the drain and barrier paths compare
# persistency models, against module globals: on CPython 3.11 an
# ``OpKind.LOAD`` attribute read through the enum class costs about ten
# times a global read.
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE
_TXN_MARK = OpKind.TXN_MARK
_BARRIER = OpKind.BARRIER
_SP = PersistencyModel.SP
_EP = PersistencyModel.EP
_BSP = PersistencyModel.BSP
_BSP_WT = PersistencyModel.BSP_WT

# The write buffer's barrier marker: one shared op, told apart from the
# buffered store ops by identity.
_MARKER = Op(OpKind.BARRIER)


class Core:
    """One simulated core executing one thread's op stream."""

    def __init__(self, core_id: int, machine: "Multicore",
                 ops: Iterable[Op]) -> None:
        self.core_id = core_id
        self._machine = machine
        self._engine = machine.engine
        self._config = machine.config
        self._it: Iterator[Op] = iter(ops)
        self.stats = machine.stats.domain(f"core{core_id}")
        self._model = machine.config.persistency
        self._uses_epochs = self._model in _EPOCH_MODELS
        # NP/SP/BSP_WT ignore explicit barriers; under BSP bulk mode the
        # hardware inserts its own.
        self._ignores_barriers = (not self._uses_epochs
                                  or self._model is _BSP)
        self._mgr = machine.managers[core_id]
        self._ckpt = machine.checkpoints[core_id]
        # Hot-path accounting: these counters are bumped on every memory
        # op, so they live as plain attributes and are merged into the
        # stat domain once, at run end (flush_hot_stats), instead of
        # paying a dict lookup per op.
        self._n_loads = 0
        self._n_stores = 0
        self._n_barriers = 0
        self._n_wb_forwards = 0
        self._n_txns = 0
        self._n_wb_full = 0
        self._n_window_stalls = 0
        # L1 load and same-epoch store hits the core serves itself (fast
        # mode only; the machine takes the counts at run end), and the
        # handles they need: this core's L1, None in reference mode,
        # where every access goes through the general classifier.
        self._n_l1_hits = 0
        self._n_store_hits = 0
        self._l1 = machine.l1s[core_id] if machine.engine.fast else None
        self._l1_lat = machine.config.l1_latency
        # line_of is a single mask op; cache the mask so the per-op path
        # skips the config attribute and method dispatch.  The issue
        # width and write-buffer capacity are read per op too.
        self._line_mask = ~(machine.config.line_size - 1)
        self._issue_cycles = machine.config.issue_width_cycles
        self._wb_capacity = machine.config.write_buffer_entries
        self._track_values = machine.track_values
        # Fast-forward drain sessions (_drain, _ff_run): fast mode only,
        # and only for the epoch-tagged models whose drain chain
        # dominates the event count.  _ff_active marks a session in
        # progress so _issue_store virtualizes its issue-width
        # continuation instead of scheduling it; _ff_issue_slot carries
        # that (time, seq) pair back to the session loop.
        self._ff_active = False
        self._ff_issue_slot: Optional[Tuple[int, int]] = None
        # Session accounting, exposed for tests and diagnostics.  Plain
        # attributes that are never merged into a stat domain: reference
        # mode has no sessions, so folding these into digested stats
        # would break fast-vs-reference digest equality by construction.
        # A drain step that opens no session falls back for one of the
        # reasons in _FF_FALLBACK_REASONS.
        self.ff_batches = 0
        self.ff_stores = 0
        self.ff_fallback_reasons: Dict[str, int] = dict.fromkeys(
            _FF_FALLBACK_REASONS, 0)

        # Buffered store ops and barrier markers (_MARKER), in order.
        self.wb: deque[Op] = deque()
        self._wb_stores = 0
        self._wb_lines: Dict[int, int] = {}
        self._draining = False
        # Epoch of the single store the drain loop has in flight at the
        # L1 (the drain is strictly one-at-a-time), so the completion
        # callback is a prebound method instead of a per-store lambda.
        self._drain_epoch = None
        self._pending_push: Optional[Op] = None
        self._wt_outstanding = 0
        self.done = False
        self._stream_done = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._engine.call_soon(self._next)

    @property
    def ff_fallbacks(self) -> int:
        """Drain steps that fell back, for any reason."""
        return sum(self.ff_fallback_reasons.values())

    def flush_hot_stats(self) -> None:
        """Merge the attribute-held hot counters into the stat domain,
        and hand the L1 hits the core served to the machine
        (:meth:`Multicore.merge_l1_hits`).

        Called by the machine at run end (and idempotent: counters reset
        to zero as they merge), so readers of ``stats`` after a run see
        exactly what per-op ``bump`` calls would have produced.
        """
        stats = self.stats
        if self._n_l1_hits or self._n_store_hits:
            self._machine.merge_l1_hits(self.core_id, self._n_l1_hits,
                                        self._n_store_hits)
            self._n_l1_hits = self._n_store_hits = 0
        if self._n_loads:
            stats.bump("loads", self._n_loads)
            self._n_loads = 0
        if self._n_stores:
            stats.bump("stores", self._n_stores)
            self._n_stores = 0
        if self._n_barriers:
            stats.bump("barriers", self._n_barriers)
            self._n_barriers = 0
        if self._n_wb_forwards:
            stats.bump("wb_forwards", self._n_wb_forwards)
            self._n_wb_forwards = 0
        if self._n_txns:
            stats.bump("txns", self._n_txns)
            self._n_txns = 0
        if self._n_wb_full:
            stats.bump("wb_full_stalls", self._n_wb_full)
            self._n_wb_full = 0
        if self._n_window_stalls:
            stats.bump("epoch_window_stalls", self._n_window_stalls)
            self._n_window_stalls = 0

    def _next(self, _time: Optional[int] = None) -> None:
        """Issue ops back to back until one has to wait for an event.

        A load that hits this core's L1 or forwards from the write
        buffer, a load the machine fills from the LLC at once
        (:meth:`Multicore.load` returns its latency), a compute burst,
        a transaction marker and a barrier the model ignores each
        complete at a known cycle.  When that cycle lies below the
        engine's horizon (:meth:`Engine.horizon`), the clock moves there
        and the loop issues the next op at once: exactly where the
        scheduled continuation would have fired, minus the event.
        Otherwise the continuation is scheduled.  Stores, epoch
        barriers and loads that miss leave the loop through their own
        paths; a store that meets a full write buffer is parked here
        until the drain frees a slot.

        In fast mode the core serves an L1 load hit itself: it probes
        its own L1 set, touches LRU and counts the hit, which it hands
        to the machine at run end (:meth:`flush_hot_stats`).  Reference
        mode sends every load to :meth:`Multicore.load`.

        The horizon is read once per call, at the first claim, so a
        call that only parks a store never reads it.  Comparing later
        claims against that one value is exact: nothing the loop does
        between two claims (the L1 probe, a forward, compute, a marker,
        an ignored barrier, the machine's LLC fill) queues an event,
        dispatches one or changes a hold, and every path that might (a
        miss, a store, an epoch barrier) leaves the loop.
        """
        horizon = -1
        # Dispatch order follows op-stream frequency: dense workloads are
        # nearly all loads and stores, with compute/marker ops between.
        for op in self._it:
            kind = op.kind
            if kind is _LOAD:
                line = op.addr & self._line_mask
                self._n_loads += 1
                if self._wb_lines.get(line):
                    # Store-to-load forwarding out of the write buffer.
                    self._n_wb_forwards += 1
                    lat = 1
                else:
                    l1 = self._l1
                    # Cache.lookup, inlined: the simulator's most
                    # frequent probe.
                    entry = None if l1 is None else l1._sets[
                        (line >> l1._offset_bits) & l1._set_mask].get(line)
                    if entry is not None:
                        l1._tick = tick = l1._tick + 1
                        entry._lru = tick
                        self._n_l1_hits += 1
                        lat = self._l1_lat
                    else:
                        lat = self._machine.load(self.core_id, line,
                                                 self._next)
                        if lat < 0:
                            # A miss path calls _next when the data
                            # arrives.
                            return
            elif kind is _STORE:
                if self._wb_stores + self._wt_outstanding >= self._wb_capacity:
                    # A store stalls here nearly every cycle of a
                    # streaming burst (drain is slower than issue).
                    self._n_wb_full += 1
                    self._pending_push = op
                    return
                self._issue_store(op)
                return
            elif kind is _COMPUTE:
                lat = op.cycles
            elif kind is _TXN_MARK:
                self._n_txns += 1
                lat = 0
            elif kind is _BARRIER:
                self._n_barriers += 1
                if not self._ignores_barriers:
                    self._issue_barrier()
                    return
                lat = 0
            else:  # pragma: no cover
                raise ValueError(f"unknown op kind {kind}")
            if horizon < 0:
                eng = self._engine
                horizon = eng.horizon()
            time = eng.now + lat
            if time < horizon:
                eng.now = time
                continue
            eng.schedule(lat, self._next)
            return
        self._stream_done = True
        self._check_done()

    # ------------------------------------------------------------------
    # Stores and barriers (issue side)
    # ------------------------------------------------------------------
    def _issue_store(self, op: Op) -> None:
        """Push a store into the write buffer, which has room for it,
        and continue issuing after the issue width."""
        self.wb.append(op)
        eng = self._engine
        if not self._draining:
            self._draining = True
            eng.call_soon(self._drain)
        self._wb_stores += 1
        line = op.addr & self._line_mask
        self._wb_lines[line] = self._wb_lines.get(line, 0) + 1
        self._n_stores += 1
        if self._ff_active:
            # Inside a fast-forward session the issue-width advance
            # becomes the session's virtual issue event; the session
            # merges it against the queues by (time, seq), which is the
            # scheduled path's ordering by construction.  The session's
            # lend must not reach past it.
            seq = eng._seq
            eng._seq = seq + 1
            time = eng.now + self._issue_cycles
            self._ff_issue_slot = (time, seq)
            if time < eng._lent:
                eng._lent = time
            return
        # NOTE: the issue-width advance must stay a scheduled event.  A
        # clock claim here (as Engine.finish makes) is unsound:
        # _issue_store can run mid-chain (resumed from _pop_store), and
        # the enclosing caller may still schedule same-cycle work after
        # it returns, which the claim would reorder.
        eng.schedule(self._issue_cycles, self._next)

    def _issue_barrier(self) -> None:
        """Buffer an epoch barrier's marker (EP and BEP; the op loop
        claims through the barriers the other models ignore)."""
        self.wb.append(_MARKER)
        if not self._draining:
            self._draining = True
            self._engine.call_soon(self._drain)
        if self._model is not _EP:
            self._engine.call_soon(self._next)
        # For EP the core parks here; the marker's drain handler resumes
        # it once the epoch persists (rule E2 of section 2.1).

    # ------------------------------------------------------------------
    # Write-buffer drain (epoch tagging happens here)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        wb = self.wb
        if not wb:
            self._draining = False
            self._check_done()
            return
        op = wb[0]
        if op is _MARKER:
            self._drain_barrier()
            return
        if not self._uses_epochs:
            # NP, SP (persists synchronously) and BSP_WT (writes through
            # asynchronously): untagged stores, all through the general
            # classifier.
            line = op.addr & self._line_mask
            wt = self._model is _BSP_WT
            if wt:
                self._wt_outstanding += 1
            self._machine.store(
                self.core_id, line,
                {op.addr - line: op.value} if self._track_values else None,
                None, self._drained, persist_sync=self._model is _SP,
                wt_async=wt, on_persist_ack=self._wt_acked if wt else None,
            )
            return

        # Epoch-tagged store path (EP / BEP / BSP).  In fast mode `why`
        # names, before the step acts, why it may not open a session.
        eng = self._engine
        l1 = self._l1
        why = None
        if l1 is not None:
            if self._machine.faults is not None:
                # A session could shift a fault draw, which is keyed by
                # per-event attempt counts.
                why = "faults"
            elif not eng._in_run or eng.advance_holds:
                why = "held"   # Engine.ff_begin would refuse
        mgr = self._mgr
        current = mgr.current
        if (
            self._model is _BSP
            and current is not None
            and current.num_stores + current.pending_stores
            >= self._config.bsp_epoch_stores
        ):
            # Bulk mode: the persistence engine closes the epoch after N
            # dynamic stores and checkpoints processor state (section 5.2).
            why = why or "bsp_limit"
            self._hardware_barrier()
            current = None
        if current is None and not mgr.can_open_epoch():
            # All 2^3 epoch IDs are in flight (section 4.3): no store may
            # begin a new epoch until the oldest persists.
            if l1 is not None:
                self.ff_fallback_reasons[why or "window"] += 1
            self._n_window_stalls += 1
            oldest = mgr.oldest_unpersisted()
            oldest.on_persist(self._drain)
            self._machine.arbiters[self.core_id].request_flush_upto(
                oldest, online=True, mark_conflict=False
            )
            return
        self._drain_epoch = epoch = mgr.tag_store()
        addr = op.addr
        line = addr & self._line_mask
        entry = None if l1 is None else l1._sets[
            (line >> l1._offset_bits) & l1._set_mask].get(line)
        if entry is not None and entry.dirty and entry.epoch is epoch:
            # A store to a line this epoch already dirtied raises no
            # conflict, logs nothing and leaves the directory alone (a
            # dirty L1 line's core owns it), so the core serves it: LRU,
            # values, and a latency sample it hands over at run end.
            l1._tick = tick = l1._tick + 1
            entry._lru = tick
            if self._track_values:
                if entry.values is None:
                    entry.values = {}
                entry.values[addr - line] = op.value
            self._n_store_hits += 1
            lat = self._l1_lat
        else:
            values = ({addr - line: op.value} if self._track_values
                      else None)
            if l1 is None:
                # Reference mode: every store takes the general path.
                self._machine.store(self.core_id, line, values, epoch,
                                    self._drained_epoch)
                return
            lat = self._machine.drain_store(self.core_id, line, entry, values,
                                            epoch, self._drained_epoch)
            if lat < 0:
                # The machine issued it; _drained_epoch completes it.
                self.ff_fallback_reasons[why or _STORE_REFUSALS[lat]] += 1
                return
        if why is not None:
            self.ff_fallback_reasons[why] += 1
            eng.finish(lat, self._drained_epoch)
            return
        # The step applied: open a session seeded with its completion.
        eng.ff_begin()
        self._ff_active = True
        try:
            stopped = self._ff_run(lat, epoch)
        finally:
            eng.ff_end()
            self._ff_active = False
        if stopped:
            # The session stopped at a drain step the event-per-op path
            # owns (an empty buffer, a marker, a spent BSP quota, a full
            # window, a store the machine issues); take it now.
            self._drain()

    # ------------------------------------------------------------------
    # Fast-forward drain sessions
    # ------------------------------------------------------------------
    # The drain chain is the simulator's dominant event class: every
    # store costs an issue-width continuation plus an L1 completion,
    # each a heap round-trip.  A session replaces both with *virtual*
    # events -- (time, seq) pairs held in locals -- and advances the
    # clock analytically, firing any interleaved queued event through
    # Engine.ff_dispatch_one in exact (time, seq) order.  While it
    # dispatches an event or runs the core's op loop it lends the clock
    # up to its earliest virtual event, so loads, markers and ignored
    # barriers between stores claim instead of queueing.  Every
    # state mutation mirrors the event-per-op path line for line, so an
    # observer of stats, cycle counts, or the NVRAM image cannot tell a
    # fast-forwarded stretch from a stepped one; the moment any
    # precondition fails the session re-materializes its outstanding
    # virtual events under their original sequence numbers and yields to
    # the event-per-op path.  A session opens only behind a drain step
    # that _drain has already applied.

    def _ff_run(self, lat: int, epoch) -> bool:
        """The session loop, seeded with the completion (``lat`` cycles
        out, under ``epoch``) of the step :meth:`_drain` just applied.

        Returns True when it stopped at a drain step the event-per-op
        path must take, False when the run's until bound interrupted it;
        either way every outstanding virtual event has been
        re-materialized into the heap under its original sequence
        number.
        """
        eng = self._engine
        mgr = self._mgr
        wb = self.wb
        is_bsp = self._model is _BSP
        bsp_limit = self._config.bsp_epoch_stores if is_bsp else 0
        core_id = self.core_id
        line_mask = self._line_mask
        track_values = self._track_values
        issue_cycles = self._issue_cycles
        l1 = self._l1
        l1_sets = l1._sets
        l1_offset = l1._offset_bits
        l1_mask = l1._set_mask
        l1_lat = self._l1_lat
        seq = eng._seq
        eng._seq = seq + 1
        d_slot = (eng.now + lat, seq, epoch)   # the store in flight
        n_slot = None   # (time, seq): pending issue-width continuation
        stores = 1
        hits = 0
        cut = False
        # Hoisted queue handles: the engine never replaces these
        # objects, so the bindings stay valid across any event the
        # session dispatches.
        queue = eng._queue
        ready = eng._ready
        until = eng._until
        try_clean_store = self._machine.try_clean_store
        wb_append = wb.append
        wb_popleft = wb.popleft
        wb_lines = self._wb_lines
        closed_s = EpochStatus.CLOSED

        while True:
            if d_slot is None:
                # -- drain step: claim the write-buffer head store -----
                # Mirrors _drain's epoch-tagged path; any condition the
                # event-per-op path owns ends the session.
                if not wb:
                    break
                head = wb[0]
                if head is _MARKER:
                    break
                # A split (a conflict dispatched mid-session) replaces
                # the current epoch, so re-read the slot every step.
                cur = mgr.current
                if (
                    is_bsp
                    and cur is not None
                    and cur.num_stores + cur.pending_stores >= bsp_limit
                ):
                    break
                if cur is None:
                    if not mgr.can_open_epoch():
                        break
                    # Same epoch the per-op tag_store would open, at the
                    # same cycle with the same stats.
                    cur = mgr.current_or_new()
                addr = head.addr
                line = addr & line_mask
                entry = l1_sets[(line >> l1_offset) & l1_mask].get(line)
                if entry is not None and entry.dirty and entry.epoch is cur:
                    # The core's own same-epoch hit, as in _drain.
                    l1._tick = tick = l1._tick + 1
                    entry._lru = tick
                    if track_values:
                        if entry.values is None:
                            entry.values = {}
                        entry.values[addr - line] = head.value
                    hits += 1
                    lat = l1_lat
                else:
                    lat = try_clean_store(
                        core_id, line, entry,
                        {addr - line: head.value} if track_values else None,
                        cur)
                    if lat < 0:
                        break   # _drain has the machine issue it
                cur.pending_stores += 1
                seq = eng._seq
                eng._seq = seq + 1
                d_slot = (eng.now + lat, seq, cur)
                stores += 1
                continue

            # -- fire the earliest of {queued event, completion, issue} --
            t_d = d_slot[0]
            s_d = d_slot[1]
            if n_slot is not None and (
                n_slot[0] < t_d or (n_slot[0] == t_d and n_slot[1] < s_d)
            ):
                v_time = n_slot[0]
                v_seq = n_slot[1]
                v_is_issue = True
            else:
                v_time = t_d
                v_seq = s_d
                v_is_issue = False
            # Decide from the queue heads whether a foreign queued event
            # precedes the virtual one without building key tuples.  A
            # ready entry carries key (now, seq) and now <= v_time
            # always holds, so when the clocks tie only the seq decides;
            # for the until-bound both candidate times are <= now <=
            # until, so f_time only matters for the heap case.
            f_time = -1
            if ready:
                if eng.now < v_time or ready[0][0] < v_seq:
                    f_time = eng.now
            if f_time < 0 and queue:
                head2 = queue[0]
                h0 = head2[0]
                if h0 < v_time or (h0 == v_time and head2[1] < v_seq):
                    f_time = h0
            if f_time >= 0:
                if until is not None and f_time > until:
                    cut = True
                    break
                # The dispatched event may claim any cycle before the
                # earliest virtual event.
                eng._lent = v_time
                eng.ff_dispatch_one()
                if self._ff_issue_slot is not None:
                    n_slot = self._ff_issue_slot
                    self._ff_issue_slot = None
                continue
            if until is not None and v_time > until:
                cut = True
                break
            # The comparison against fkey guarantees the ready deque is
            # empty whenever v_time > now, so this is the same heap-head
            # clock advance run() performs.
            eng.now = v_time
            if v_is_issue:
                n_slot = None
                # The store completion is the one virtual event left;
                # the op loop may claim any cycle before it.
                eng._lent = t_d
                self._next()
                if self._ff_issue_slot is not None:
                    n_slot = self._ff_issue_slot
                    self._ff_issue_slot = None
                continue
            # Store completion: mirror _drained_epoch + _pop_store,
            # with EpochManager.store_drained inlined (resolve split
            # redirects, retire the pending store, complete a closed
            # epoch that just emptied).
            epoch = d_slot[2]
            d_slot = None
            while epoch.redirect is not None:
                epoch = epoch.redirect
            pending = epoch.pending_stores - 1
            epoch.pending_stores = pending
            epoch.num_stores += 1
            if pending <= 0:
                if pending < 0:
                    raise RuntimeError(
                        f"store accounting underflow on {epoch}"
                    )
                if epoch.status is closed_s:
                    mgr._complete(epoch)
            line = wb_popleft().addr & line_mask
            count = wb_lines[line] - 1
            if count:
                wb_lines[line] = count
            else:
                del wb_lines[line]
            op = self._pending_push
            if op is None:
                self._wb_stores -= 1
                continue
            # _resume_pending_push and _issue_store, inlined: the pop
            # above freed the slot the parked store takes (sessions never
            # run beside write-throughs), so the buffer's store count is
            # unchanged, and the issue-width continuation becomes the
            # virtual issue event.  The core's issue side is parked, so
            # no other issue event is outstanding.
            self._pending_push = None
            wb_append(op)
            line = op.addr & line_mask
            wb_lines[line] = wb_lines.get(line, 0) + 1
            self._n_stores += 1
            seq = eng._seq
            eng._seq = seq + 1
            n_slot = (eng.now + issue_cycles, seq)

        self._ff_rematerialize(d_slot, n_slot)
        self.ff_batches += 1
        self.ff_stores += stores
        self._n_store_hits += hits
        return not cut

    def _ff_rematerialize(self, d_slot, n_slot) -> None:
        """Push outstanding virtual events back into the heap under
        their original sequence numbers, recreating exactly the entries
        the scheduled path would have queued."""
        eng = self._engine
        if n_slot is not None:
            heapq.heappush(eng._queue, (n_slot[0], n_slot[1], self._next, ()))
        if d_slot is not None:
            self._drain_epoch = d_slot[2]
            heapq.heappush(
                eng._queue,
                (d_slot[0], d_slot[1], self._drained_epoch, (d_slot[0],)),
            )

    def _drain_barrier(self) -> None:
        self.wb.popleft()
        closed = self._mgr.close_current()
        if self._model is _EP:
            if closed is None:
                self._engine.call_soon(self._next)
            else:
                self.stats.bump("ep_barrier_stalls")
                closed.on_persist(self._next)
                self._machine.arbiters[self.core_id].request_flush_upto(
                    closed, online=True, mark_conflict=False
                )
        self._engine.call_soon(self._drain)

    def _hardware_barrier(self) -> None:
        """BSP bulk mode: hardware-inserted barrier + register checkpoint."""
        closed = self._mgr.close_current()
        if closed is not None:
            self.stats.bump("hw_barriers")
            self._ckpt.capture(closed)

    # -- drain completions ------------------------------------------------
    def _drained_epoch(self, _time: int) -> None:
        epoch, self._drain_epoch = self._drain_epoch, None
        self._mgr.store_drained(epoch)
        self._pop_store()

    def _drained(self, _time: int) -> None:
        self._pop_store()

    def _pop_store(self) -> None:
        line = self.wb.popleft().addr & self._line_mask
        self._wb_stores -= 1
        count = self._wb_lines[line] - 1
        if count:
            self._wb_lines[line] = count
        else:
            del self._wb_lines[line]
        if self._pending_push is not None:
            self._resume_pending_push()
        self._drain()

    def _wt_acked(self, _time: int) -> None:
        self._wt_outstanding -= 1
        self._resume_pending_push()
        self._check_done()

    def _resume_pending_push(self) -> None:
        if self._pending_push is None:
            return
        if self._wb_stores + self._wt_outstanding >= self._wb_capacity:
            return
        op, self._pending_push = self._pending_push, None
        self._issue_store(op)

    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if (
            not self.done
            and self._stream_done
            and not self.wb
            and self._wt_outstanding == 0
        ):
            self.done = True
            if self._model is _BSP and self._mgr.current is not None:
                # Close the trailing hardware epoch so it checkpoints and
                # persists like any other.
                self._hardware_barrier()
            self._machine.core_finished(self.core_id)
