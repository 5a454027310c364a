"""Epoch lifecycle and per-core epoch management.

An epoch is the group of stores between two persist barriers.  Its
lifecycle::

    ONGOING --barrier or split--> COMPLETE
            --all lines durable + deps persisted--> PERSISTED

A store belongs to the epoch current when it completes at the L1
(Condit et al.'s rule).  Barriers drain through the core's FIFO write
buffer as markers behind their stores, so a closed epoch is a complete
one (EpochCMP), and epochs complete in program order (see
:mod:`repro.cpu.processor`).

The per-core :class:`EpochManager` owns the ordered list of unpersisted
epochs, enforces the hardware in-flight limit (3-bit epoch IDs => 8
in-flight epochs, Table/section 4.3), and implements *epoch splitting*,
the paper's deadlock-avoidance move (section 3.3): when a request from
another thread hits a line written by the *ongoing* epoch, the ongoing
epoch is divided into a completed prefix (which can now be a safe IDT
source or be flushed) and a fresh ongoing remainder.  A store in flight
at the split has not completed, so it lands in the remainder.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.sim.engine import Engine
    from repro.sim.stats import StatDomain


# Sort key for walking an IDT edge set.  Epochs hash by identity, so a
# set's own order follows memory addresses and would leak into the
# event queue; (core, seq) order is the order a CoreID-indexed register
# file is scanned in.
BY_KEY = attrgetter("key")


class EpochStatus(enum.Enum):
    ONGOING = "ongoing"
    COMPLETE = "complete"
    PERSISTED = "persisted"


class Epoch:
    """One epoch of one core."""

    __slots__ = (
        "core_id",
        "seq",
        "key",
        "status",
        "lines",
        "all_lines",
        "num_stores",
        "inflight_writes",
        "outstanding_log_writes",
        "outstanding_checkpoint_writes",
        "idt_sources",
        "idt_dependents",
        "all_sources",
        "persist_waiters",
        "conflict_flush",
        "flush_active",
        "persisted",
        "manager",
    )

    def __init__(self, core_id: int, seq: int,
                 manager: "EpochManager") -> None:
        self.core_id = core_id
        self.seq = seq
        # Interned identity tuple: every structure that records the
        # epoch by (core, seq) -- the IDT's all_sources log, digests --
        # shares this one object instead of building a fresh tuple per
        # conflict.
        self.key = (core_id, seq)
        self.status = EpochStatus.ONGOING
        # Mirrors ``status is PERSISTED`` as a plain attribute: the
        # persisted check sits under every unpersisted-line test in the
        # request hot path, where a property descriptor call would cost
        # more than the rest of the check combined.
        self.persisted = False
        # Lines whose current unpersisted dirty version belongs to this
        # epoch (they live in the core's L1 or in the LLC).
        self.lines: Set[int] = set()
        # Every line this epoch ever wrote (for the recovery checker).
        self.all_lines: Set[int] = set()
        # Stores of this epoch that retired from the write buffer.
        self.num_stores = 0
        # NVRAM writes of this epoch's lines issued but not yet acked.
        self.inflight_writes = 0
        # BSP bookkeeping: undo-log and checkpoint writes not yet durable.
        self.outstanding_log_writes = 0
        self.outstanding_checkpoint_writes = 0
        # IDT edges (section 3.1).
        self.idt_sources: Set["Epoch"] = set()
        self.idt_dependents: Set["Epoch"] = set()
        # Permanent (core, seq) log of every IDT source ever recorded,
        # for the recovery checker (idt_sources drains as sources persist).
        self.all_sources: Set[tuple] = set()
        # Callbacks.
        self.persist_waiters: List[Callable[[], None]] = []
        # Accounting for Figure 12: was this epoch's flush forced online?
        self.conflict_flush = False
        # True while the Figure 8 handshake for this epoch is in flight;
        # the epoch may not be declared persisted until PersistCMP.
        self.flush_active = False
        self.manager = manager

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.status is not EpochStatus.ONGOING

    @property
    def ongoing(self) -> bool:
        return self.status is EpochStatus.ONGOING

    @property
    def empty(self) -> bool:
        """True when the epoch has no durable work left or pending."""
        return (
            not self.lines
            and self.inflight_writes == 0
            and self.outstanding_log_writes == 0
            and self.outstanding_checkpoint_writes == 0
        )

    def on_persist(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the epoch persists (immediately if done)."""
        if self.persisted:
            callback()
        else:
            self.persist_waiters.append(callback)

    def __repr__(self) -> str:
        return (
            f"<E{self.core_id}.{self.seq} {self.status.value}"
            f" lines={len(self.lines)}>"
        )


class EpochManager:
    """Per-core epoch bookkeeping (the epoch-ID counter of section 2.1
    plus the unpersisted-epoch window of section 4.3)."""

    def __init__(
        self,
        core_id: int,
        engine: "Engine",
        stats: "StatDomain",
        max_inflight: int,
    ) -> None:
        self.core_id = core_id
        self._engine = engine
        self._stats = stats
        self._max_inflight = max_inflight
        self._next_seq = 0
        # Unpersisted epochs in program (seq) order; they persist in this
        # order, so the head is the only one that may persist next.
        self.window: List[Epoch] = []
        # The ongoing epoch (always the window tail), or None when the
        # last barrier closed it and no store has opened a new one.
        self.current: Optional[Epoch] = None
        # Epochs that have persisted, kept for the recovery checker when
        # epoch logging is enabled.
        self.retired: List[Epoch] = []
        self.keep_retired = False
        # Wired by the machine: called whenever an epoch *might* now be
        # able to persist (a dependency cleared, work drained, ...).
        self.persist_check: Callable[[Epoch], None] = lambda epoch: None
        # Wired by the machine: called when an epoch completes -- the
        # proactive-flushing trigger of section 3.2.
        self.completion_hook: Callable[[Epoch], None] = lambda epoch: None
        # Wired by the machine: the core's digest-invisible handshake
        # message accounting (None under standalone construction).
        # mark_persisted charges one inform-register notification per
        # IDT dependent cleared.
        self.handshake = None

    # ------------------------------------------------------------------
    # Epoch creation / closing
    # ------------------------------------------------------------------
    def _new_epoch(self) -> Epoch:
        epoch = Epoch(self.core_id, self._next_seq, self)
        self._next_seq += 1
        self.window.append(epoch)
        self.current = epoch
        self._stats.bump("epochs")
        return epoch

    def current_or_new(self) -> Epoch:
        """The ongoing epoch, creating one if none is open."""
        epoch = self.current
        if epoch is None:
            epoch = self._new_epoch()
        return epoch

    def can_open_epoch(self) -> bool:
        """True when the 3-bit epoch-ID window has a free slot."""
        return len(self.window) < self._max_inflight

    def close_current(self) -> Optional[Epoch]:
        """Execute a persist barrier: close the ongoing epoch.

        Returns the closed epoch, now complete, or None when there was
        nothing to close (consecutive barriers collapse, as they carry
        no ordering beyond the first).
        """
        epoch = self.current
        if epoch is None or not epoch.num_stores:
            # Nothing was stored in this epoch: the barrier is a no-op.
            return None
        self.current = None
        self._complete(epoch)
        return epoch

    def _complete(self, epoch: Epoch) -> None:
        epoch.status = EpochStatus.COMPLETE
        # No clock hold: only a core claims the clock, and a core's op
        # loop runs from here only as a persist waiter, under
        # mark_persisted's own hold.
        self.completion_hook(epoch)
        # An epoch that drained all its lines before completing
        # (natural evictions) may be able to persist right away.
        self.persist_check(epoch)

    # ------------------------------------------------------------------
    # Splitting (deadlock avoidance, section 3.3)
    # ------------------------------------------------------------------
    def split_epoch(self, epoch: Optional[Epoch]) -> Optional[Epoch]:
        """Split an ongoing epoch at the current point.

        The prefix (all operations completed so far) becomes a complete
        epoch that can safely serve as an IDT source or be flushed; a
        fresh ongoing epoch takes over the remainder.  A store in flight
        has not completed, so it belongs to the remainder, which is now
        current: that is what makes the prefix complete at once and keeps
        the dependence graph acyclic (section 3.3).
        Returns the prefix epoch, or None when there is nothing to split.
        """
        if epoch is None or not epoch.ongoing:
            return None
        self._stats.bump("epoch_splits")
        self._new_epoch()
        self._complete(epoch)
        return epoch

    # ------------------------------------------------------------------
    # Persist-order structure
    # ------------------------------------------------------------------
    def predecessor_of(self, epoch: Epoch) -> Optional[Epoch]:
        """The previous unpersisted epoch of this core, or None."""
        # The window is short (<= max_inflight, typically 8); linear scan.
        window = self.window
        for i in range(1, len(window)):
            if window[i] is epoch:
                return window[i - 1]
        return None

    def oldest_unpersisted(self) -> Optional[Epoch]:
        return self.window[0] if self.window else None

    def deps_persisted(self, epoch: Epoch) -> bool:
        """True when every hb-predecessor of ``epoch`` has persisted.

        Program order binds every older epoch of the core, so only the
        window head can have none unpersisted; IDT sources are the
        cross-core edges.  An epoch off the window has retired.
        """
        window = self.window
        if window and window[0] is epoch:
            return all(src.persisted for src in epoch.idt_sources)
        return epoch.persisted

    def mark_persisted(self, epoch: Epoch) -> None:
        """Retire a fully durable epoch and wake its waiters."""
        if epoch.persisted:
            raise RuntimeError(f"{epoch} persisted twice")
        if not epoch.empty:
            raise RuntimeError(f"{epoch} marked persisted with work pending")
        window = self.window
        if not window or window[0] is not epoch:
            # Epochs persist strictly in program order: the retiree must
            # be the window head.
            raise RuntimeError(
                f"{epoch} persisted out of order (window head: "
                f"{window[0] if window else None})"
            )
        window.pop(0)
        epoch.status = EpochStatus.PERSISTED
        epoch.persisted = True
        self._stats.bump("epochs_persisted")
        if epoch.conflict_flush:
            self._stats.bump("epochs_conflict_flushed")
        if self.keep_retired:
            self.retired.append(epoch)
        # Inform dependents first (the inform registers of section 4.2) so
        # that waiters re-examining dependency state see the edges gone.
        if epoch.idt_dependents:
            dependents = sorted(epoch.idt_dependents, key=BY_KEY)
            epoch.idt_dependents.clear()
            for dependent in dependents:
                dependent.idt_sources.discard(epoch)
            if self.handshake is not None:
                # One inform-register notification per dependent core
                # (section 4.2), attributed to the persisting epoch's
                # core -- it is the sender.
                self.handshake.idt_notify_msgs += len(dependents)
        else:
            dependents = ()
        waiters, epoch.persist_waiters = epoch.persist_waiters, []
        # Hold the clock across the fan-out: a waiter can run a parked
        # core's op loop (Core._next), whose claims must not advance
        # ``now`` while further waiters/dependents of this persist still
        # have to run.
        engine = self._engine
        engine.advance_holds += 1
        try:
            for callback in waiters:
                callback()
            for dependent in dependents:
                dependent.manager.persist_check(dependent)
            # The next epoch may already be drained and able to persist.
            if window:
                self.persist_check(window[0])
        finally:
            engine.advance_holds -= 1

    def audit(self) -> None:
        """Invariant checks used by the test suite."""
        window = self.window
        for i, epoch in enumerate(window):
            if i and epoch.seq <= window[i - 1].seq:
                raise AssertionError("window out of order")
            if epoch.persisted:
                raise AssertionError("persisted epoch still in window")
            if epoch.ongoing and (
                epoch is not window[-1] or epoch is not self.current
            ):
                raise AssertionError(
                    f"ongoing {epoch} is not the current window tail"
                )
        current = self.current
        if current is not None and (
            not current.ongoing or not window or window[-1] is not current
        ):
            raise AssertionError(
                f"current {current} is not the ongoing window tail"
            )
