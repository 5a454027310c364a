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
  argument of section 3.3 sound.  With one store in flight at a time, a
  store is applied to and retired in its core's current epoch (a split
  makes the remainder current).

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
# would raise (a clock hold, or outside run()); the BSP store quota is
# spent; the epoch-ID window is full; or Multicore.try_clean_store
# refused the store, which the machine then issues as a full miss or
# through the general classifier.
_FF_FALLBACK_REASONS = ("faults", "held", "full_miss", "refused",
                        "bsp_limit", "window")
# Multicore.try_clean_store's negative returns, named here because the
# drain branches on them (repro.system imports them): the store takes the
# general classifier, or the fused full-miss path.
_REFUSED = -1
_FULL_MISS = -2
_STORE_REFUSALS = {_REFUSED: "refused", _FULL_MISS: "full_miss"}

# The op loop compares kinds, and the drain and barrier paths compare
# persistency models, against module globals: on CPython 3.11 an
# ``OpKind.LOAD`` read through the enum class costs ten times a global.
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

# The L1 sets a reference-mode drain probes: one empty set.
_NO_SETS = ({},)


class Core:
    """One simulated core executing one thread's op stream."""

    def __init__(self, core_id: int, machine: "Multicore",
                 ops: Iterable[Op]) -> None:
        self.core_id = core_id
        self._machine = machine
        self._engine = machine.engine
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
        # The BSP store quota a drain step enforces (0: no quota).
        self._bsp_quota = (machine.config.bsp_epoch_stores
                           if self._model is _BSP else 0)
        # Fast-forward drain sessions (_drain): fast mode only, and only
        # for the epoch-tagged models whose drain chain dominates the
        # event count.  _ff_active marks a session in progress so
        # _issue_store virtualizes its issue-width continuation instead
        # of scheduling it; _ff_issue_slot carries that (time, seq) pair
        # back to the session.
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
        self._pending_push: Optional[Op] = None
        self._wt_outstanding = 0
        self.done = False
        self._stream_done = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._engine.schedule(0, self._next)

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
                    if l1 is None:
                        entry = None
                    else:
                        # Cache.lookup, inlined: the simulator's most
                        # frequent probe.
                        index = (line >> l1._offset_bits) & l1._set_mask
                        entry = l1._sets[index].get(line)
                    if entry is not None:
                        if l1._mru[index] != line:
                            # Cache.touch, inlined.
                            l1_set = l1._sets[index]
                            del l1_set[line]
                            l1_set[line] = entry
                            l1._mru[index] = line
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
            eng.schedule(0, self._drain)
        self._wb_stores += 1
        line = op.addr & self._line_mask
        self._wb_lines[line] = self._wb_lines.get(line, 0) + 1
        self._n_stores += 1
        if self._ff_active:
            # Inside a fast-forward session the issue-width advance
            # becomes the session's virtual issue event; the session
            # merges it against the heap by (time, seq), which is the
            # scheduled path's ordering by construction.  The session's
            # lend must not reach past it.
            seq = eng._seq
            eng._seq = seq + 1
            time = eng.now + self._issue_cycles
            self._ff_issue_slot = (time, seq)
            if time < eng._lent:
                eng._lent = time
            return
        # NOTE: the issue-width advance must stay a scheduled event, here
        # and in the drain's parked push.  A clock claim is unsound: both
        # run mid-chain (from a load's completion, a write-through's ack,
        # a drain step), and the enclosing caller may still schedule
        # same-cycle work after they return, which the claim would
        # reorder.
        eng.schedule(self._issue_cycles, self._next)

    def _issue_barrier(self) -> None:
        """Buffer an epoch barrier's marker (EP and BEP; the op loop
        claims through the barriers the other models ignore)."""
        self.wb.append(_MARKER)
        if not self._draining:
            self._draining = True
            self._engine.schedule(0, self._drain)
        if self._model is not _EP:
            self._engine.schedule(0, self._next)
        # For EP the core parks here; the marker's drain handler resumes
        # it once the epoch persists (rule E2 of section 2.1).

    # ------------------------------------------------------------------
    # Write-buffer drain (epoch tagging happens here)
    # ------------------------------------------------------------------
    # The drain chain is the simulator's dominant event class: every
    # store costs an L1 completion, and a store parked on a full buffer
    # an issue-width continuation, each a heap round-trip.  In fast mode
    # a drain step that applies at once may open a fast-forward
    # *session*: _drain keeps stepping and holds the store's completion
    # and the issue-width continuation as *virtual* events -- (time, seq)
    # pairs in locals -- firing any interleaved queued event through
    # Engine.ff_dispatch_one in exact (time, seq) order.  While it fires
    # a queued event or runs the core's op loop it lends the clock up to
    # its earliest virtual event, so loads, markers and ignored barriers
    # between stores claim instead of queueing.  A session takes the
    # same drain steps as the stepped drain, so an observer of stats,
    # cycle counts or the NVRAM image cannot tell the two apart.  It ends
    # at the first step that does not apply, or at the run's until
    # bound, and pushes its outstanding virtual events into the heap
    # under their original sequence numbers: the entries the stepped
    # drain would have queued.

    def _drain(self, time: Optional[int] = None) -> None:
        """Drain the write buffer, one step after another.

        Every drain step's completion calls this with the cycle its
        store completed at: the loop first retires that store (in the
        ongoing epoch, when tagged), pops it and pushes the parked store
        into the freed slot.  Called without a time (a store or marker
        entered an idle buffer, a marker drained, a persisted epoch
        freed an epoch ID), it only steps.

        A step stops at an empty buffer or a marker, enforces the BSP
        quota, sends an untagged store to the machine, enforces the
        epoch-ID window, tags the store, serves a same-epoch hit from the
        core's own L1 (fast mode), and has the machine apply any other
        store (:meth:`Multicore.try_clean_store`, fast mode) or issue it
        (:meth:`Multicore.store`).  A step that applies schedules its
        completion, or, in fast mode with no fallback reason, opens a
        session (above).
        """
        wb = self.wb
        wb_lines = self._wb_lines
        mask = self._line_mask
        eng = self._engine
        mgr = self._mgr
        l1 = self._l1
        l1_lat = self._l1_lat
        track = self._track_values
        quota = self._bsp_quota
        tagged = self._uses_epochs
        # The L1 probe's handles, and in fast mode why a step may not
        # open a session, before it acts.
        why = None
        if l1 is None:
            # Reference mode: the probe finds nothing, so every store
            # goes to the general classifier.
            l1_sets = _NO_SETS
            l1_shift = l1_mask = 0
            l1_mru = None
        else:
            l1_sets = l1._sets
            l1_mru = l1._mru
            l1_shift = l1._offset_bits
            l1_mask = l1._set_mask
            if self._machine.faults is not None:
                # A session could shift a fault draw, which is keyed by
                # per-event attempt counts.
                why = "faults"
            elif not eng._in_run or eng.advance_holds:
                why = "held"   # Engine.ff_begin would raise
        session = False
        while True:
            if time is not None:
                # -- retire the completed head store in the ongoing epoch
                # (the remainder, if a split came while it was in
                # flight), pop it, and push the parked store into the
                # freed slot.
                if tagged:
                    mgr.current.num_stores += 1
                line = wb.popleft().addr & mask
                count = wb_lines[line] - 1
                if count:
                    wb_lines[line] = count
                else:
                    del wb_lines[line]
                op = self._pending_push
                if op is None or self._wt_outstanding and (
                        self._wb_stores + self._wt_outstanding
                        > self._wb_capacity):
                    # Nothing parked, or (BSP_WT) write-throughs in
                    # flight still fill the buffer: _wt_acked pushes it.
                    self._wb_stores -= 1
                else:
                    # _issue_store, inlined: the parked store takes the
                    # slot the pop freed.
                    self._pending_push = None
                    wb.append(op)
                    line = op.addr & mask
                    wb_lines[line] = wb_lines.get(line, 0) + 1
                    self._n_stores += 1
                    if session:
                        # The core's issue side is parked, so this is
                        # the one issue event outstanding.
                        n_seq = eng._seq
                        eng._seq = n_seq + 1
                        n_time = eng.now + self._issue_cycles
                    else:
                        eng.schedule(self._issue_cycles, self._next)

            # -- the next step: an empty buffer stops it as a marker does
            op = wb[0] if wb else _MARKER
            if op is _MARKER:
                if session:
                    self._end_session(n_time, n_seq, stores)
                if wb:
                    self._drain_barrier()
                else:
                    self._draining = False
                    self._check_done()
                return
            # A split (a conflict dispatched mid-session) replaces the
            # ongoing epoch, so each step reads it afresh.
            cur = mgr.current
            if quota and cur is not None and cur.num_stores >= quota:
                # Bulk mode: the persistence engine closes the epoch after
                # N dynamic stores and checkpoints processor state
                # (section 5.2).
                if session:
                    self._end_session(n_time, n_seq, stores)
                    session = False
                why = why or "bsp_limit"
                self._hardware_barrier()
                cur = None
            if cur is None:
                if not tagged:
                    # NP, SP (persists synchronously) and BSP_WT (writes
                    # through asynchronously) never open an epoch: their
                    # stores go untagged to the general classifier.
                    line = op.addr & mask
                    wt = self._model is _BSP_WT
                    if wt:
                        self._wt_outstanding += 1
                    self._machine.store(
                        self.core_id, line,
                        {op.addr - line: op.value} if track else None,
                        None, self._drain, persist_sync=self._model is _SP,
                        wt_async=wt,
                        on_persist_ack=self._wt_acked if wt else None,
                    )
                    return
                if not mgr.can_open_epoch():
                    # All 2^3 epoch IDs are in flight (section 4.3): no
                    # store may begin a new epoch until the oldest
                    # persists.
                    if session:
                        self._end_session(n_time, n_seq, stores)
                    if l1 is not None:
                        self.ff_fallback_reasons[why or "window"] += 1
                    self._n_window_stalls += 1
                    oldest = mgr.oldest_unpersisted()
                    oldest.on_persist(self._drain)
                    self._machine.arbiters[self.core_id].request_flush_upto(
                        oldest, online=True, mark_conflict=False
                    )
                    return
                cur = mgr.current_or_new()
            # The store belongs to the epoch current as it completes.
            addr = op.addr
            line = addr & mask
            index = (line >> l1_shift) & l1_mask
            entry = l1_sets[index].get(line)
            if entry is not None and entry.dirty and entry.epoch is cur:
                # A store to a line this epoch already dirtied raises no
                # conflict, logs nothing and leaves the directory alone
                # (a dirty L1 line's core owns it), so the core serves
                # it: LRU, values, and a latency sample it hands over at
                # run end.
                if l1_mru[index] != line:
                    # Cache.touch, inlined.
                    l1_set = l1_sets[index]
                    del l1_set[line]
                    l1_set[line] = entry
                    l1_mru[index] = line
                if track:
                    if entry.values is None:
                        entry.values = {}
                    entry.values[addr - line] = op.value
                self._n_store_hits += 1
                lat = l1_lat
            else:
                values = {addr - line: op.value} if track else None
                if l1 is None:
                    # Reference mode: the general classifier takes every
                    # store.
                    lat = _REFUSED
                else:
                    lat = self._machine.try_clean_store(
                        self.core_id, line, entry, values, cur)
                if lat < 0:
                    # The machine issues the store it refused, once the
                    # session (if any) has ended.
                    if session:
                        self._end_session(n_time, n_seq, stores)
                    if l1 is not None:
                        self.ff_fallback_reasons[
                            why or _STORE_REFUSALS[lat]] += 1
                    self._machine.store(self.core_id, line, values, cur,
                                        self._drain, lat)
                    return
            if not session:
                if why is not None:
                    self.ff_fallback_reasons[why] += 1
                    eng.schedule(lat, self._drain, eng.now + lat)
                    return
                # The step applied: open a session with its completion.
                # The engine never replaces its heap, so this binding
                # stays valid across any event the session fires.
                eng.ff_begin()
                self._ff_active = session = True
                stores = 0
                n_time = n_seq = -1   # no issue event outstanding
                queue = eng._queue
                until = eng._until
            stores += 1
            seq = eng._seq
            eng._seq = seq + 1
            t_d = eng.now + lat

            # -- fire the earliest of {queued event, issue event} until
            # the store's completion is next
            while True:
                if -1 < n_time < t_d or (n_time == t_d and n_seq < seq):
                    v_time = n_time
                    v_seq = n_seq
                else:
                    v_time = t_d
                    v_seq = seq
                # Decide from the heap head whether a queued event
                # precedes the virtual one without building key tuples.
                head = queue[0] if queue else None
                if head is not None and (
                        head[0] < v_time
                        or (head[0] == v_time and head[1] < v_seq)):
                    if until is not None and head[0] > until:
                        self._end_session(n_time, n_seq, stores,
                                          (t_d, seq))
                        return
                    # The queued event may claim any cycle before the
                    # earliest virtual event.
                    eng._lent = v_time
                    eng.ff_dispatch_one()
                else:
                    if until is not None and v_time > until:
                        self._end_session(n_time, n_seq, stores,
                                          (t_d, seq))
                        return
                    # No queued event precedes v_time: the same
                    # heap-head clock advance run() performs.
                    eng.now = v_time
                    if v_seq == seq:
                        break
                    n_time = -1
                    # The completion is the one virtual event left; the
                    # op loop may claim any cycle before it.
                    eng._lent = t_d
                    self._next()
                if self._ff_issue_slot is not None:
                    n_time, n_seq = self._ff_issue_slot
                    self._ff_issue_slot = None
            time = t_d

    def _end_session(self, n_time: int, n_seq: int, stores: int,
                     completion: Optional[tuple] = None) -> None:
        """End the core's session after ``stores`` stores: push its
        outstanding issue event (``n_time`` >= 0) and, cut at the run's
        until bound, its store's ``completion`` ``(time, seq)``
        into the heap under their original sequence numbers, then
        withdraw its hold and lend."""
        eng = self._engine
        if n_time >= 0:
            heapq.heappush(eng._queue, (n_time, n_seq, self._next, ()))
        if completion is not None:
            t_d, seq = completion
            heapq.heappush(eng._queue, (t_d, seq, self._drain, (t_d,)))
        eng.ff_end()
        self._ff_active = False
        self.ff_batches += 1
        self.ff_stores += stores

    def _drain_barrier(self) -> None:
        self.wb.popleft()
        closed = self._mgr.close_current()
        if self._model is _EP:
            if closed is None:
                self._engine.schedule(0, self._next)
            else:
                self.stats.bump("ep_barrier_stalls")
                closed.on_persist(self._next)
                self._machine.arbiters[self.core_id].request_flush_upto(
                    closed, online=True, mark_conflict=False
                )
        self._engine.schedule(0, self._drain)

    def _hardware_barrier(self) -> None:
        """BSP bulk mode: hardware-inserted barrier + register checkpoint."""
        closed = self._mgr.close_current()
        if closed is not None:
            self.stats.bump("hw_barriers")
            self._ckpt.capture(closed)

    def _wt_acked(self, _time: int) -> None:
        """A BSP_WT write-through persisted: its slot frees, and a parked
        store takes it."""
        self._wt_outstanding -= 1
        op = self._pending_push
        if (op is not None and self._wb_stores + self._wt_outstanding
                < self._wb_capacity):
            self._pending_push = None
            self._issue_store(op)
        self._check_done()

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
