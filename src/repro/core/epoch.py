"""Epoch lifecycle and per-core epoch management.

An epoch is the group of stores between two persist barriers.  Its
lifecycle::

    ONGOING --barrier--> CLOSED --last store drains--> COMPLETE
            --all lines durable + deps persisted--> PERSISTED

``CLOSED`` is the window where the barrier has executed but stores of the
epoch are still draining from the core's write buffer; hardware-wise the
L1 has not yet seen every line of the epoch (no EpochCMP yet), so a flush
cannot finish.  Because the write buffer is FIFO, epochs always reach
``COMPLETE`` in program order.

The per-core :class:`EpochManager` owns the ordered list of unpersisted
epochs, enforces the hardware in-flight limit (3-bit epoch IDs => 8
in-flight epochs, Table/section 4.3), and implements *epoch splitting*,
the paper's deadlock-avoidance move (section 3.3): when a request from
another thread hits a line written by the *ongoing* epoch, the ongoing
epoch is divided into a completed prefix (which can now be a safe IDT
source or be flushed) and a fresh ongoing remainder.
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
    CLOSED = "closed"
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
        "pending_stores",
        "num_stores",
        "inflight_writes",
        "outstanding_log_writes",
        "outstanding_checkpoint_writes",
        "idt_sources",
        "idt_dependents",
        "idt_last",
        "all_sources",
        "persist_waiters",
        "complete_waiters",
        "conflict_flush",
        "flush_started",
        "flush_active",
        "split_from",
        "redirect",
        "created_at",
        "closed_at",
        "persisted_at",
        "persisted",
        "manager",
    )

    def __init__(self, core_id: int, seq: int, created_at: int,
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
        # Stores tagged to this epoch still sitting in the write buffer.
        self.pending_stores = 0
        self.num_stores = 0
        # NVRAM writes of this epoch's lines issued but not yet acked.
        self.inflight_writes = 0
        # BSP bookkeeping: undo-log and checkpoint writes not yet durable.
        self.outstanding_log_writes = 0
        self.outstanding_checkpoint_writes = 0
        # IDT edges (section 3.1).
        self.idt_sources: Set["Epoch"] = set()
        self.idt_dependents: Set["Epoch"] = set()
        # Edge-interning memo (fast mode): the last source this epoch
        # recorded (or found already covered) via IDTracker.try_record.
        # Contended sharing hits the same epoch pair many times in a
        # row; the memo short-circuits the re-scan of idt_sources.
        self.idt_last: Optional["Epoch"] = None
        # Permanent (core, seq) log of every IDT source ever recorded,
        # for the recovery checker (idt_sources drains as sources persist).
        self.all_sources: Set[tuple] = set()
        # Callbacks.
        self.persist_waiters: List[Callable[[], None]] = []
        self.complete_waiters: List[Callable[[], None]] = []
        # Accounting for Figure 12: was this epoch's flush forced online?
        self.conflict_flush = False
        self.flush_started = False
        # True while the Figure 8 handshake for this epoch is in flight;
        # the epoch may not be declared persisted until PersistCMP.
        self.flush_active = False
        self.split_from: Optional[int] = None
        # When a split occurs while a store is in flight, that store is
        # "not yet completed" and belongs to the remainder epoch (section
        # 3.3); the redirect pointer routes its completion there.
        self.redirect: Optional["Epoch"] = None
        self.created_at = created_at
        self.closed_at: Optional[int] = None
        self.persisted_at: Optional[int] = None
        self.manager = manager

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.status in (EpochStatus.COMPLETE, EpochStatus.PERSISTED)

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

    def resolve(self) -> "Epoch":
        """The epoch an in-flight store tagged to this epoch now belongs
        to, following split redirects."""
        epoch = self
        while epoch.redirect is not None:
            epoch = epoch.redirect
        return epoch

    def on_persist(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the epoch persists (immediately if done)."""
        if self.persisted:
            callback()
        else:
            self.persist_waiters.append(callback)

    def on_complete(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the epoch completes (immediately if so)."""
        if self.complete:
            callback()
        else:
            self.complete_waiters.append(callback)

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
        self.total_epochs = 0
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
        epoch = Epoch(self.core_id, self._next_seq, self._engine.now, self)
        self._next_seq += 1
        self.window.append(epoch)
        self.current = epoch
        self.total_epochs += 1
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

    def tag_store(self) -> Epoch:
        """Account one store entering the write buffer to the current epoch."""
        epoch = self.current_or_new()
        epoch.pending_stores += 1
        return epoch

    def store_drained(self, epoch: Epoch) -> None:
        """A store of ``epoch`` completed at the L1."""
        epoch = epoch.resolve()
        epoch.pending_stores -= 1
        epoch.num_stores += 1
        if epoch.pending_stores < 0:
            raise RuntimeError(f"store accounting underflow on {epoch}")
        if epoch.status is EpochStatus.CLOSED and epoch.pending_stores == 0:
            self._complete(epoch)

    def close_current(self) -> Optional[Epoch]:
        """Execute a persist barrier: close the ongoing epoch.

        Returns the closed epoch, or None when there was nothing to close
        (consecutive barriers collapse, as they carry no ordering beyond
        the first).
        """
        epoch = self.current
        if epoch is None:
            return None
        if epoch.pending_stores == 0 and epoch.num_stores == 0:
            # Nothing was stored in this epoch: the barrier is a no-op.
            return None
        epoch.status = EpochStatus.CLOSED
        epoch.closed_at = self._engine.now
        self.current = None
        if epoch.pending_stores == 0:
            self._complete(epoch)
        return epoch

    def _complete(self, epoch: Epoch) -> None:
        epoch.status = EpochStatus.COMPLETE
        waiters, epoch.complete_waiters = epoch.complete_waiters, []
        # Hold the clock across the fan-out: an inline completion inside
        # one waiter must not warp ``now`` for the continuations that
        # follow it in this same event.
        engine = self._engine
        engine.advance_holds += 1
        try:
            for callback in waiters:
                callback()
            self.completion_hook(epoch)
            # An epoch that drained all its lines before completing
            # (natural evictions) may be able to persist right away.
            self.persist_check(epoch)
        finally:
            engine.advance_holds -= 1

    # ------------------------------------------------------------------
    # Splitting (deadlock avoidance, section 3.3)
    # ------------------------------------------------------------------
    def split_current(self) -> Optional[Epoch]:
        """Split the ongoing epoch; see :meth:`split_epoch`."""
        return self.split_epoch(self.current)

    def split_epoch(self, epoch: Optional[Epoch]) -> Optional[Epoch]:
        """Split an ongoing epoch at the current point.

        The prefix (all operations completed so far) becomes a CLOSED
        epoch that can safely serve as an IDT source or be flushed; a
        fresh ongoing epoch takes over the remainder.
        Returns the prefix epoch, or None when there is nothing to split.
        """
        if epoch is None or not epoch.ongoing:
            return None
        epoch.status = EpochStatus.CLOSED
        epoch.closed_at = self._engine.now
        self._stats.bump("epoch_splits")
        successor = self._new_epoch()
        successor.split_from = epoch.seq
        if epoch.pending_stores:
            # In-flight stores have not completed at the time of the
            # split, so they are part of the *remainder* epoch -- this is
            # what makes the prefix immediately completable and therefore
            # keeps the dependence graph acyclic (section 3.3).
            successor.pending_stores = epoch.pending_stores
            epoch.pending_stores = 0
            epoch.redirect = successor
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
        epoch.persisted_at = self._engine.now
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
        # Hold the clock across the fan-out (see EpochManager._complete):
        # waking a parked core can complete its next request inline, and
        # that inline completion must not advance ``now`` while further
        # waiters/dependents of this persist still have to run.
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
