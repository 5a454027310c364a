"""The core model: an out-of-order core abstracted to its memory stream.

Persist-barrier behaviour is governed by the cache/epoch machinery, not
by pipeline microarchitecture, so cores are modeled at memory-operation
granularity:

* loads block until data returns (with store-buffer forwarding);
* stores retire into a finite FIFO write buffer (Table 1: 32 entries)
  that drains through the L1 in the background -- the stand-in for the
  OoO window's ability to hide store latency;
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


class WriteBufferEntry:
    """A store awaiting drain, or a persist-barrier marker."""

    __slots__ = ("line", "values", "is_barrier", "ep_wait")

    def __init__(self, line: int = 0,
                 values: Optional[Dict[int, object]] = None,
                 is_barrier: bool = False, ep_wait: bool = False) -> None:
        self.line = line
        self.values = values
        self.is_barrier = is_barrier
        # EP model: the core is parked until this barrier's epoch persists.
        self.ep_wait = ep_wait


_EPOCH_MODELS = (
    PersistencyModel.BEP,
    PersistencyModel.BSP,
    PersistencyModel.EP,
)

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
        # line_of is a single mask op; cache the mask so the per-op path
        # skips the config attribute and method dispatch.  The issue
        # width and write-buffer capacity are read per op too.
        self._line_mask = ~(machine.config.line_size - 1)
        self._issue_cycles = machine.config.issue_width_cycles
        self._wb_capacity = machine.config.write_buffer_entries
        self._track_values = machine.track_values
        # Fast-forward drain sessions (_ff_try): fast mode only, and only
        # for the epoch-tagged models whose drain chain dominates the
        # event count.  _ff_active marks a session in progress so
        # _issue_store virtualizes its issue-width continuation instead
        # of scheduling it; _ff_issue_slot carries that (time, seq) pair
        # back to the session loop.
        self._ff_on = machine.engine.fast and self._uses_epochs
        self._ff_active = False
        self._ff_issue_slot: Optional[Tuple[int, int]] = None
        # Session accounting, exposed for tests and diagnostics.  Plain
        # attributes that are never merged into a stat domain: reference
        # mode has no sessions, so folding these into digested stats
        # would break fast-vs-reference digest equality by construction.
        self.ff_batches = 0
        self.ff_stores = 0
        self.ff_fallbacks = 0

        self.wb: deque[WriteBufferEntry] = deque()
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

    def flush_hot_stats(self) -> None:
        """Merge the attribute-held hot counters into the stat domain.

        Called by the machine at run end (and idempotent: counters reset
        to zero as they merge), so readers of ``stats`` after a run see
        exactly what per-op ``bump`` calls would have produced.
        """
        stats = self.stats
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
        try:
            op = next(self._it)
        except StopIteration:
            self._stream_done = True
            self._check_done()
            return
        kind = op.kind
        # Dispatch order follows op-stream frequency: dense workloads are
        # nearly all loads and stores, with compute/marker ops between.
        if kind is OpKind.LOAD:
            self._issue_load(op)
        elif kind is OpKind.STORE:
            self._issue_store(op)
        elif kind is OpKind.COMPUTE:
            self._engine.finish(op.cycles, self._next)
        elif kind is OpKind.TXN_MARK:
            self._n_txns += 1
            self._engine.call_soon(self._next)
        elif kind is OpKind.BARRIER:
            self._issue_barrier()
        else:  # pragma: no cover - exhaustive over OpKind
            raise ValueError(f"unknown op kind {kind}")

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _issue_load(self, op: Op) -> None:
        line = op.addr & self._line_mask
        self._n_loads += 1
        if self._wb_lines.get(line):
            # Store-to-load forwarding out of the write buffer.
            self._n_wb_forwards += 1
            self._engine.schedule(1, self._next)
            return
        self._machine.load(self.core_id, line, on_done=self._next)

    # ------------------------------------------------------------------
    # Stores and barriers (issue side)
    # ------------------------------------------------------------------
    def _issue_store(self, op: Op) -> None:
        if self._wb_stores + self._wt_outstanding >= self._wb_capacity:
            # A store stalls here nearly every cycle of a streaming burst
            # (drain is slower than issue), so the stall counter is hot.
            self._n_wb_full += 1
            self._pending_push = op
            return
        line = op.addr & self._line_mask
        values: Optional[Dict[int, object]] = None
        if self._track_values:
            values = {op.addr - line: op.value}
        # _push, inlined: this is the hottest call site (twice per store
        # on a streaming burst, once at issue and once resumed after the
        # stall), and the barrier path keeps using the helper.
        self.wb.append(WriteBufferEntry(line, values))
        if not self._draining:
            self._draining = True
            self._engine.call_soon(self._drain)
        self._wb_stores += 1
        self._wb_lines[line] = self._wb_lines.get(line, 0) + 1
        self._n_stores += 1
        if self._ff_active:
            # Inside a fast-forward session the issue-width advance
            # becomes the session's virtual issue event; the session
            # merges it against the queues by (time, seq), which is the
            # scheduled path's ordering by construction.
            eng = self._engine
            seq = eng._seq
            eng._seq = seq + 1
            self._ff_issue_slot = (eng.now + self._issue_cycles, seq)
            return
        # NOTE: the issue-width advance must stay a scheduled event.  An
        # inline Engine.finish here is unsound: _issue_store can run mid-
        # chain (resumed from _pop_store), and the enclosing caller may
        # still schedule same-cycle work after it returns, which the
        # clock claim would reorder.
        self._engine.schedule(self._issue_cycles, self._next)

    def _issue_barrier(self) -> None:
        self._n_barriers += 1
        if not self._uses_epochs or self._model is PersistencyModel.BSP:
            # NP/SP/WT ignore explicit barriers; under BSP bulk mode the
            # hardware inserts its own.
            self._engine.call_soon(self._next)
            return
        ep_wait = self._model is PersistencyModel.EP
        self._push(WriteBufferEntry(is_barrier=True, ep_wait=ep_wait))
        if not ep_wait:
            self._engine.call_soon(self._next)
        # For EP the core parks here; the marker's drain handler resumes
        # it once the epoch persists (rule E2 of section 2.1).

    def _push(self, entry: WriteBufferEntry) -> None:
        self.wb.append(entry)
        if not self._draining:
            self._draining = True
            self._engine.call_soon(self._drain)

    # ------------------------------------------------------------------
    # Write-buffer drain (epoch tagging happens here)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        if not self.wb:
            self._draining = False
            self._check_done()
            return
        entry = self.wb[0]
        if entry.is_barrier:
            self._drain_barrier(entry)
            return
        if self._model is PersistencyModel.SP:
            self._machine.store(
                self.core_id, entry.line, entry.values, None,
                on_done=self._drained, persist_sync=True,
            )
            return
        if self._model is PersistencyModel.BSP_WT or not self._uses_epochs:
            if self._model is PersistencyModel.BSP_WT:
                self._wt_outstanding += 1
                self._machine.store(
                    self.core_id, entry.line, entry.values, None,
                    on_done=self._drained, wt_async=True,
                    on_persist_ack=self._wt_acked,
                )
            else:
                self._machine.store(
                    self.core_id, entry.line, entry.values, None,
                    on_done=self._drained,
                )
            return

        # Epoch-tagged store path (EP / BEP / BSP).
        if self._ff_on and self._ff_try():
            return
        mgr = self._mgr
        current = mgr.current
        if (
            self._model is PersistencyModel.BSP
            and current is not None
            and current.num_stores + current.pending_stores
            >= self._config.bsp_epoch_stores
        ):
            # Bulk mode: the persistence engine closes the epoch after N
            # dynamic stores and checkpoints processor state (section 5.2).
            self._hardware_barrier()
            current = None
        if current is None and not mgr.can_open_epoch():
            # All 2^3 epoch IDs are in flight (section 4.3): no store may
            # begin a new epoch until the oldest persists.
            self._n_window_stalls += 1
            oldest = mgr.oldest_unpersisted()
            oldest.on_persist(self._drain)
            self._machine.arbiters[self.core_id].request_flush_upto(
                oldest, online=True, mark_conflict=False
            )
            return
        epoch = mgr.tag_store()
        self._drain_epoch = epoch
        self._machine.store(
            self.core_id, entry.line, entry.values, epoch,
            on_done=self._drained_epoch,
        )

    # ------------------------------------------------------------------
    # Fast-forward drain sessions
    # ------------------------------------------------------------------
    # The drain chain is the simulator's dominant event class: every
    # store costs an issue-width continuation plus an L1 completion,
    # each a heap round-trip.  A session replaces both with *virtual*
    # events -- (time, seq) pairs held in locals -- and advances the
    # clock analytically, firing any interleaved queued event through
    # Engine.ff_dispatch_one in exact (time, seq) order.  Every
    # state mutation mirrors the event-per-op path line for line, so an
    # observer of stats, cycle counts, or the NVRAM image cannot tell a
    # fast-forwarded stretch from a stepped one; the moment any
    # precondition fails the session re-materializes its outstanding
    # virtual events under their original sequence numbers and yields to
    # the event-per-op path.

    def _ff_try(self) -> bool:
        """Try to fast-forward the drain from the current buffer head.

        Returns True when the session consumed the drain step (the
        caller's _drain invocation is done); False to continue on the
        event-per-op path with nothing changed.
        """
        if self._machine.faults is not None:
            # Fault injection draws splitmix64 coordinates keyed by
            # per-event attempt counts; fast-forwarding a faulty machine
            # could shift a draw.  Conservative: never claim a window
            # when an injector is configured.
            self.ff_fallbacks += 1
            return False
        eng = self._engine
        if not eng.ff_begin():
            self.ff_fallbacks += 1
            return False
        self._ff_active = True
        try:
            outcome = self._ff_run()
        finally:
            eng.ff_end()
            self._ff_active = False
        if outcome == 0:
            self.ff_fallbacks += 1
            return False
        if outcome == 1:
            # The session stopped at work the event-per-op path owns (a
            # barrier marker, a window stall, a potential conflict); run
            # it now, at the cycle the session advanced to.
            self._drain()
        return True

    def _ff_run(self) -> int:
        """The session loop.

        Returns 0 when the first drain step refused (no observable side
        effects; the caller continues per-op), 1 when the session
        advanced work and then reached a step the event-per-op path must
        handle, or 2 when the run's until bound interrupted it.  For 1 and 2
        every outstanding virtual event has been re-materialized into
        the heap under its original sequence number.
        """
        eng = self._engine
        machine = self._machine
        mgr = self._mgr
        wb = self.wb
        is_bsp = self._model is PersistencyModel.BSP
        bsp_limit = self._config.bsp_epoch_stores if is_bsp else 0
        core_id = self.core_id
        d_slot = None   # (time, seq, epoch): store completion in flight
        n_slot = None   # (time, seq): pending issue-width continuation
        stores = 0
        # Hoisted queue handles: the engine never replaces these
        # objects, so the bindings stay valid across any event the
        # session dispatches.
        queue = eng._queue
        ready = eng._ready
        until = eng._until
        try_clean_store = machine.try_clean_store
        wb_popleft = wb.popleft
        wb_lines = self._wb_lines
        closed_s = EpochStatus.CLOSED

        while True:
            if d_slot is None:
                # -- drain step: claim the write-buffer head store -----
                # Mirrors _drain's epoch-tagged path; any condition the
                # event-per-op path owns ends the session (or refuses
                # it, when nothing has been advanced yet).
                if not wb:
                    break
                head = wb[0]
                if head.is_barrier:
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
                lat = try_clean_store(core_id, head.line, head.values, cur)
                if lat < 0:
                    break
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
                    self._ff_rematerialize(d_slot, n_slot)
                    self.ff_batches += 1
                    self.ff_stores += stores
                    return 2
                eng.ff_dispatch_one()
                if self._ff_issue_slot is not None:
                    n_slot = self._ff_issue_slot
                    self._ff_issue_slot = None
                continue
            if until is not None and v_time > until:
                self._ff_rematerialize(d_slot, n_slot)
                self.ff_batches += 1
                self.ff_stores += stores
                return 2
            # The comparison against fkey guarantees the ready deque is
            # empty whenever v_time > now, so this is the same heap-head
            # clock advance run() performs.
            eng.now = v_time
            if v_is_issue:
                n_slot = None
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
            entry = wb_popleft()
            self._wb_stores -= 1
            count = wb_lines[entry.line] - 1
            if count:
                wb_lines[entry.line] = count
            else:
                del wb_lines[entry.line]
            op = self._pending_push
            if op is not None:
                # _resume_pending_push, inlined: the pop above freed a
                # buffer slot, so only outstanding write-throughs can
                # still hold the op back.
                if self._wb_stores + self._wt_outstanding < self._wb_capacity:
                    self._pending_push = None
                    self._issue_store(op)
                    if self._ff_issue_slot is not None:
                        n_slot = self._ff_issue_slot
                        self._ff_issue_slot = None

        if not stores:
            # Drain-step refusal before any work: a clean refuse (no
            # issue continuation can exist yet either).
            return 0
        self._ff_rematerialize(None, n_slot)
        self.ff_batches += 1
        self.ff_stores += stores
        return 1

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

    def _drain_barrier(self, entry: WriteBufferEntry) -> None:
        self.wb.popleft()
        closed = self._mgr.close_current()
        if self._model is PersistencyModel.EP and entry.ep_wait:
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
        entry = self.wb.popleft()
        self._wb_stores -= 1
        count = self._wb_lines[entry.line] - 1
        if count:
            self._wb_lines[entry.line] = count
        else:
            del self._wb_lines[entry.line]
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
            if (
                self._model is PersistencyModel.BSP
                and self._mgr.current is not None
            ):
                # Close the trailing hardware epoch so it checkpoints and
                # persists like any other.
                self._hardware_barrier()
            self._machine.core_finished(self.core_id)
