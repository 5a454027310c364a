"""Deterministic discrete-event engine.

The engine orders events by ``(time, priority, sequence)``.  The sequence
number makes ordering fully deterministic: two events scheduled for the
same cycle with the same priority fire in the order they were scheduled.
Determinism matters here because the persistence machinery is full of
races (flush completions vs. new conflicting requests) and reproducible
experiments are a hard requirement for the benchmark harness.

Components never spin; they schedule a callback for the cycle at which a
hardware event (message arrival, NVRAM write completion, ...) would occur
and return.  Blocking behaviour (a core stalled on an online persist) is
expressed by simply not scheduling the continuation until the unblocking
event fires.

Implementation notes -- the two-tier queue:

* The dominant event class by far is the zero-delay continuation: every
  op transition in :mod:`repro.cpu.processor` re-schedules itself for
  the *current* cycle.  Routing those through a binary heap costs two
  O(log n) operations plus an :class:`Event` allocation per transition.
  Instead, same-cycle default-priority work goes into a plain FIFO
  *ready deque* that is drained before the heap is consulted.
* The drain preserves the exact ``(time, priority, seq)`` firing order:
  every ready entry carries key ``(now, 0, seq)``, the deque is FIFO in
  ``seq``, and the heap head (whose time is always ``>= now``) is fired
  first whenever its key sorts below the ready head's -- i.e. when it is
  at the current cycle with a negative priority or an older sequence
  number.  The clock only advances off the heap, so the ready deque can
  never hold entries from two different cycles.
* :meth:`Engine.call_soon` is the allocation-free entry to the ready
  deque (no :class:`Event`, no cancellation support); ``schedule(0,
  ...)`` with default priority is routed there too but still returns a
  cancellable :class:`Event`.
* Timed events keep the min-heap of ``(time, priority, seq, event)``
  tuples, so ordering resolves through C-level tuple comparison.
  Cancellation is lazy: a cancelled event stays queued until it reaches
  the head, where it is dropped.  A live-event counter keeps
  :meth:`Engine.pending` O(1), and when cancelled entries come to
  dominate a large heap the queue is compacted in place.
* ``REPRO_SLOW_ENGINE=1`` in the environment selects *reference mode*
  (see :func:`reference_mode`).  It means exactly two things.  The
  engine runs its plain heap loop: every event, including
  ``call_soon``, goes through the heap, and :meth:`try_advance` and
  fast-forward sessions refuse.  And the machine classifies every
  request with its general classifier instead of the fused paths.
  Everything else -- counting, latency tables, epoch tags -- runs the
  same way in both modes.  The determinism-digest tests assert that
  both modes fire callbacks in bit-identical order across every
  persistency model.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

# Compact the heap when it holds more than this many entries and fewer
# than half of them are live.  Small heaps are never compacted; the
# rebuild would cost more than the dead entries it removes.
_COMPACT_MIN_SIZE = 64


_MODE_VAR = "REPRO_SLOW_ENGINE"


def _slow_engine_requested() -> bool:
    return os.environ.get(_MODE_VAR, "") not in ("", "0", "false")


@contextmanager
def reference_mode(slow: bool = True) -> Iterator[None]:
    """Build engines in reference mode (or, with ``slow=False``, in
    fast mode) within the block.

    An :class:`Engine` reads ``REPRO_SLOW_ENGINE`` once, at
    construction, and every component reads the mode from its machine's
    engine, so toggling the variable around machine construction is all
    it takes; the previous value is restored on exit.
    """
    saved = os.environ.get(_MODE_VAR)
    os.environ[_MODE_VAR] = "1" if slow else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(_MODE_VAR, None)
        else:
            os.environ[_MODE_VAR] = saved


class Event:
    """A scheduled callback; kept alive inside the queue entry tuple."""

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(self, time: int, callback: Callable[..., None],
                 args: tuple, engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing when it reaches the queue head.

        Idempotent: cancelling twice decrements the engine's live-event
        count exactly once.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancel()


class Engine:
    """The global event queue and simulation clock.

    Typical use::

        engine = Engine()
        engine.schedule(10, handler, arg1, arg2)
        engine.run()
        print(engine.now)
    """

    def __init__(self) -> None:
        # Heap entries are ``(time, priority, seq, event)`` for
        # cancellable work and ``(time, priority, seq, None, callback,
        # args)`` for the allocation-free schedule_call path; the unique
        # seq means tuple comparison never reaches element 3.
        self._queue: List[Tuple] = []
        # Same-cycle FIFO: (seq, callback, args, event-or-None).  Entries
        # with an Event were routed from schedule(0, ...) and may be
        # cancelled; call_soon entries carry None and cannot be.
        self._ready: Deque[
            Tuple[int, Callable[..., None], tuple, Optional[Event]]
        ] = deque()
        self._seq = 0
        self._live = 0
        self.now: int = 0
        self._stopped = False
        # True while run() is executing with no max_events bound; gates
        # the try_advance inline fast path.
        self._in_run = False
        self._until: Optional[int] = None
        # While positive, try_advance refuses to warp the clock.  Held
        # by components that dispatch several independent continuations
        # synchronously from one event (the epoch managers' waiter
        # loops): an inline completion inside the first continuation
        # must not advance ``now`` under the feet of the rest.
        self.advance_holds = 0
        # REPRO_SLOW_ENGINE=1 selects the pure-heap reference mode.
        self.fast = not _slow_engine_requested()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the
        current cycle (after already-queued same-cycle events with lower
        sequence numbers).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = Event(time, callback, args, engine=self)
        if delay == 0 and priority == 0 and self.fast:
            self._ready.append((self._seq, callback, args, event))
        else:
            heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Queue ``callback(*args)`` for later in the current cycle.

        Equivalent to ``schedule(0, callback, *args)`` but without
        allocating an :class:`Event`; the continuation cannot be
        cancelled.  This is the hot-path API for the per-op state
        transitions of :mod:`repro.cpu.processor`.
        """
        if self.fast:
            self._ready.append((self._seq, callback, args, None))
            self._seq += 1
            self._live += 1
        else:
            self.schedule(0, callback, *args)

    def schedule_call(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule ``callback(*args)`` with no cancellation support.

        The timed sibling of :meth:`call_soon`: same firing order as
        ``schedule(delay, ...)`` (one sequence number is consumed either
        way) but without allocating an :class:`Event`, for the many hot
        callers -- core issue/compute self-schedules, memory-controller
        completions, request completions -- that never cancel.  In
        reference mode it degrades to plain :meth:`schedule`.
        """
        if not self.fast:
            self.schedule(delay, callback, *args)
            return
        if delay == 0:
            self._ready.append((self._seq, callback, args, None))
        elif delay > 0:
            heapq.heappush(
                self._queue,
                (self.now + delay, 0, self._seq, None, callback, args),
            )
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._live += 1

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute cycle count."""
        return self.schedule(time - self.now, callback, *args,
                             priority=priority)

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        queue = self._queue
        if len(queue) > _COMPACT_MIN_SIZE and self._live * 2 < len(queue):
            # In-place slice assignment: ``run`` holds a local alias to
            # the queue list, so the list object must not be replaced.
            queue[:] = [
                entry for entry in queue
                if entry[3] is None or not entry[3].cancelled
            ]
            heapq.heapify(queue)

    def _discard_cancelled_head(self) -> None:
        """Reap cancelled entries at the heads of both queues.

        After it returns, the ready head and heap head (if any) are
        live.  Cancelled entries were already removed from the live
        count when they were cancelled.
        """
        ready = self._ready
        while ready and ready[0][3] is not None and ready[0][3].cancelled:
            ready.popleft()
        queue = self._queue
        while queue and queue[0][3] is not None and queue[0][3].cancelled:
            heapq.heappop(queue)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Runs until the queue is empty, the clock passes ``until``,
        ``stop()`` is called, or ``max_events`` events have fired.
        Returns the number of events executed.
        """
        executed = 0
        self._stopped = False
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        bounded = max_events is not None
        self._in_run = not bounded
        self._until = until
        try:
            while True:
                # Cancelled entries are reaped lazily at dispatch: a
                # popped entry whose event was cancelled is dropped
                # without firing (its live count was already decremented
                # at cancel time).  A cancelled *head* can therefore win
                # an ordering comparison below, but winning only gets it
                # popped and skipped, which preserves the firing order of
                # everything live.
                if self._stopped:
                    break
                if bounded and executed >= max_events:
                    break
                if ready:
                    # Ready head has key (now, 0, seq).  The heap head
                    # (time >= now) fires first only when it sorts below
                    # that key: same cycle with a negative priority or an
                    # older sequence number.
                    if queue:
                        head = queue[0]
                        if head[0] <= self.now and (
                            head[1] < 0
                            or (head[1] == 0 and head[2] < ready[0][0])
                        ):
                            entry = pop(queue)
                            event = entry[3]
                            if event is None:
                                self._live -= 1
                                entry[4](*entry[5])
                                executed += 1
                            elif not event.cancelled:
                                self._live -= 1
                                event.callback(*event.args)
                                executed += 1
                            continue
                    item = popleft()
                    event = item[3]
                    if event is not None and event.cancelled:
                        continue
                    self._live -= 1
                    item[1](*item[2])
                    executed += 1
                    continue
                if not queue:
                    break
                head = queue[0]
                time = head[0]
                if until is not None and time > until:
                    # All heap times are >= the head's, so nothing
                    # (cancelled or live) runs within the bound.
                    self.now = until
                    break
                entry = pop(queue)
                event = entry[3]
                if event is not None and event.cancelled:
                    continue
                self._live -= 1
                self.now = time
                if event is None:
                    entry[4](*entry[5])
                else:
                    event.callback(*event.args)
                executed += 1
        finally:
            self._in_run = False
            self._until = None
        return executed

    def try_advance(self, time: int) -> bool:
        """Claim the clock for an inline completion at ``time``.

        Returns True -- advancing ``now`` to ``time`` -- exactly when a
        callback scheduled at ``time`` would be the very next event to
        fire: nothing is pending at or before ``time``, no component
        holds the clock (``advance_holds``), and the active ``run()``
        would reach it (inside a bounded run the fast path is disabled
        so event accounting stays exact).  The caller then invokes the
        completion directly, skipping a heap round-trip; firing order
        is identical to the scheduled path by construction.

        The hold matters for soundness: a synchronous fan-out (an epoch
        waking several parked waiters in one event) is invisible to the
        queues, so without the hold the first waiter could warp ``now``
        and the remaining waiters would observe the wrong cycle.
        """
        if (
            not self._in_run
            or self._stopped
            or not self.fast
            or self.advance_holds
        ):
            return False
        if self._until is not None and time > self._until:
            return False
        self._discard_cancelled_head()
        if self._ready:
            return False
        queue = self._queue
        if queue and queue[0][0] <= time:
            return False
        self.now = time
        return True

    # ------------------------------------------------------------------
    # Fast-forward sessions
    # ------------------------------------------------------------------
    # A fast-forward session lets one component (the core's write-buffer
    # drain) advance a stretch of its own future work analytically while
    # interleaved foreign events still fire in exact (time, priority,
    # seq) order.  The session holds the clock (``advance_holds``), so
    # every inline-completion shortcut elsewhere conservatively
    # schedules -- the queues stay the single source of truth for
    # foreign work -- and the session's own *virtual* events live
    # outside the queues as (time, seq) keys that the caller merges
    # against the queue heads.  Virtual events draw their sequence
    # numbers from ``_seq``, the same counter real scheduling uses, so a
    # virtual event that has to be re-materialized into the heap
    # (session bail-out) lands exactly where its scheduled twin would
    # have been.  Virtual events are not counted in ``_live``; the
    # re-materializing caller adds them back.  The one session owner,
    # ``Core._ff_run``, reads the queue heads and takes sequence numbers
    # inline.

    def ff_begin(self) -> bool:
        """Open a fast-forward session.

        Refuses (returning False) in reference mode, outside an
        unbounded :meth:`run`, after :meth:`stop`, or while any
        component holds the clock -- which includes another session, so
        sessions never nest.
        """
        if (
            not self.fast
            or not self._in_run
            or self._stopped
            or self.advance_holds
        ):
            return False
        self.advance_holds += 1
        return True

    def ff_end(self) -> None:
        """Close the session opened by the matching :meth:`ff_begin`."""
        self.advance_holds -= 1

    def ff_dispatch_one(self) -> None:
        """Fire exactly one queued event, exactly as :meth:`run` would.

        The caller has already decided from the queue heads that this
        event precedes its next virtual event and has checked the
        stop/until bounds.  The clock advances off the heap just like in
        the main loop; cancelled entries are skipped without firing.
        """
        queue = self._queue
        ready = self._ready
        while True:
            if ready:
                if queue:
                    head = queue[0]
                    if head[0] <= self.now and (
                        head[1] < 0
                        or (head[1] == 0 and head[2] < ready[0][0])
                    ):
                        entry = heapq.heappop(queue)
                        event = entry[3]
                        if event is None:
                            self._live -= 1
                            entry[4](*entry[5])
                            return
                        if not event.cancelled:
                            self._live -= 1
                            event.callback(*event.args)
                            return
                        continue
                item = ready.popleft()
                event = item[3]
                if event is not None and event.cancelled:
                    continue
                self._live -= 1
                item[1](*item[2])
                return
            if not queue:
                return
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is not None and event.cancelled:
                continue
            self._live -= 1
            self.now = entry[0]
            if event is None:
                entry[4](*entry[5])
            else:
                event.callback(*event.args)
            return

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled_head()
        if self._ready:
            # Ready entries are always same-cycle work: the clock cannot
            # advance while any are queued.
            return self.now
        return self._queue[0][0] if self._queue else None
