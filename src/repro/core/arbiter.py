"""The per-core epoch arbiter (sections 4.1 and 4.2).

Each core's L1 controller hosts an arbiter that orchestrates the flushing
of that core's epochs.  The arbiter:

* flushes epochs strictly in sequence order, one at a time;
* will not start flushing an epoch until all its happens-before
  predecessors (older same-core epochs, IDT source epochs on other
  cores) have persisted, its write-buffer stores have drained
  (EpochCMP), and -- for BSP -- its undo-log entries are durable;
* serves *online* flush requests (epoch conflicts: the requester is
  stalled in the critical path) and *offline* requests (proactive
  flushing, natural drain at the end of a run) through the same pump,
  differing only in whether demand is propagated to IDT source arbiters
  and whether the flushed epochs are accounted as conflict-flushed
  (Figure 12's metric).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.epoch import Epoch, EpochManager
from repro.core.flush import FlushOperation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import Multicore


class Arbiter:
    """Per-core flush orchestrator."""

    def __init__(self, core_id: int, machine: "Multicore",
                 manager: EpochManager) -> None:
        self.core_id = core_id
        self._machine = machine
        self._manager = manager
        self._stats = machine.stats.domain(f"arbiter{core_id}")
        # Highest epoch seq requested to flush.
        self._flush_horizon = -1
        # Highest epoch seq with an *online* waiter; demand up to this
        # seq propagates to IDT source arbiters.
        self._online_horizon = -1
        # The flush-handshake engine is pooled: one reusable operation
        # per arbiter, begun per epoch.  ``active`` points at it while a
        # flush is in flight.
        self._flush_op = FlushOperation(machine, self._flush_done,
                                        arbiter=self)
        self.active: Optional[FlushOperation] = None

    def note_fault(self, key: str, count: int = 1) -> None:
        """Record ``count`` occurrences of fault leg ``key`` (a stat
        name like ``flush_ack_drops``); called by the flush operation,
        only under fault injection."""
        self._stats.bump(key, count)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request_flush_upto(
        self, epoch: Epoch, online: bool, mark_conflict: Optional[bool] = None
    ) -> None:
        """Ask for every epoch up to ``epoch`` (inclusive) to be flushed.

        ``online`` requests come from conflicts: a memory request is
        stalled until ``epoch`` persists, so demand must propagate through
        IDT edges.  ``mark_conflict`` controls Figure 12 accounting and
        defaults to ``online`` (EP-model barrier stalls pass False: they
        are online but are not *conflicts*).
        """
        if epoch.persisted:
            return
        if mark_conflict is None:
            mark_conflict = online
        seq = epoch.seq
        if mark_conflict:
            # Figure 12 accounting: every epoch that a conflict forces to
            # persist (or catches still persisting) counts as conflict-
            # flushed; only epochs that completed their persist before any
            # conflict arrived count as clean offline persists.
            for e in self._manager.window:
                if e.seq > seq:
                    break
                e.conflict_flush = True
        # Pump only when the demand is *new* (either horizon advanced).
        # A request that changes nothing cannot change the pump's
        # outcome -- every blocked candidate has a wake-up callback
        # registered (completion, source persist, log ack) -- and
        # skipping it is what makes the cross-arbiter online demand
        # propagation in _flushable terminate: two cores whose window
        # heads depend on each other would otherwise re-request each
        # other's sources with unchanged horizons forever.
        advanced = False
        if seq > self._flush_horizon:
            self._flush_horizon = seq
            advanced = True
        if online and seq > self._online_horizon:
            self._online_horizon = seq
            advanced = True
        if advanced:
            self.pump()

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Start flushing the window head if it is eligible.

        Epochs flush in program order, so the head is the only
        candidate.  Idempotent and cheap; safe to call from any event
        that might have unblocked the head epoch.
        """
        if self.active is not None:
            return
        window = self._manager.window
        if not window:
            return
        head = window[0]
        if head.seq > self._flush_horizon or not self._flushable(head):
            return
        online = head.seq <= self._online_horizon
        head.flush_started = True
        self._stats.bump("flushes_online" if online else "flushes_offline")
        if self._machine.tracer:
            self._machine.tracer.record(
                self._machine.engine.now, "flush_start", self.core_id,
                epoch=str(head), online=online, lines=len(head.lines),
            )
        self.active = self._flush_op
        self._flush_op.begin(head)

    def _flushable(self, candidate: Epoch) -> bool:
        """True when ``candidate`` can start flushing right now.

        Registers the re-pump callbacks (barrier completion, IDT source
        persists) and propagates online demand through IDT edges as a
        side effect.
        """
        if candidate.ongoing:
            # The horizon can only cover an ongoing epoch transiently
            # (e.g. requests raced with a split); wait for its barrier.
            # The completion callback is the wake-up -- duplicate
            # requests no longer pump unconditionally.
            candidate.on_complete(self.pump)
            return False
        if not candidate.complete:
            # EpochCMP not yet received: stores still draining from
            # the write buffer.  FIFO drain guarantees completion soon.
            candidate.on_complete(self.pump)
            return False
        online = candidate.seq <= self._online_horizon
        blocked = False
        for source in (list(candidate.idt_sources)
                       if candidate.idt_sources else ()):
            if source.persisted:
                continue
            blocked = True
            source.on_persist(self.pump)
            if online:
                # Propagate critical-path demand through the IDT edge.
                self._machine.arbiters[source.core_id].request_flush_upto(
                    source, online=True, mark_conflict=False
                )
        if blocked:
            self._stats.bump("flush_blocked_on_source")
            return False
        if candidate.outstanding_log_writes:
            # Undo-log entries must be durable before any data line of
            # the epoch persists; the log-ack callback re-pumps.
            self._stats.bump("flush_blocked_on_log")
            return False
        return True

    def _flush_done(self, epoch: Epoch) -> None:
        self.active = None
        self._machine.maybe_persist(epoch)
        self.pump()

    # ------------------------------------------------------------------
    def drain_all(self, online: bool = False) -> None:
        """Request a flush of every currently unpersisted epoch.

        Used by the machine's end-of-run drain to obtain the durable
        completion time, and by tests.
        """
        self._manager.close_current()
        # Request the newest closed epoch; an epoch still ongoing after
        # the barrier is empty and has no work.
        for epoch in reversed(self._manager.window):
            if not epoch.ongoing:
                self.request_flush_upto(epoch, online=online,
                                        mark_conflict=False)
                return
