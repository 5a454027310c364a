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
* ``REPRO_SLOW_ENGINE=1`` in the environment forces the pure-heap
  reference path (every event, including ``call_soon``, goes through
  the heap) and disables :meth:`try_advance`.  The fast and reference
  paths fire callbacks in bit-identical order; the determinism-digest
  tests assert this across every persistency model.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

# Compact the heap when it holds more than this many entries and fewer
# than half of them are live.  Small heaps are never compacted; the
# rebuild would cost more than the dead entries it removes.
_COMPACT_MIN_SIZE = 64


def _slow_engine_requested() -> bool:
    return os.environ.get("REPRO_SLOW_ENGINE", "") not in ("", "0", "false")


def fast_paths_enabled() -> bool:
    """True unless ``REPRO_SLOW_ENGINE=1`` selected the reference mode.

    The flag gates every hot-path shortcut in the simulator, not just
    the engine's queues: the processor's attribute-held stat counters,
    the cache last-line memo and the machine's accounting hoists all
    fall back to their straightforward per-event reference
    implementations in slow mode.  That keeps the reference run an
    executable specification -- the determinism-digest tests assert the
    shortcuts change nothing -- and makes the ``perfbench`` speedup an
    honest fast-vs-reference comparison.  Read once at construction
    time, like :class:`Engine` does.
    """
    return not _slow_engine_requested()


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

    def schedule_fanout(
        self,
        delay: int,
        callback: Callable[..., None],
        items: list,
    ) -> None:
        """Schedule ``callback(item)`` for every item at ``now + delay``.

        The batching API for same-cycle message fan-outs (invalidation
        and ack broadcasts): one sequence number is consumed *per item*
        in both modes, so the firing order relative to interleaved
        scheduling is identical to per-item :meth:`schedule_call`, but
        in fast mode the whole batch occupies a single queue entry and
        the items dispatch back to back from :meth:`_run_fanout`.  The
        batch's sequence block is allocated synchronously, so no foreign
        event can land between two items of one fanout in either mode.

        Item callbacks must not schedule negative-priority work for the
        same cycle and expect it to preempt later items of the batch --
        the only ordering difference from per-item scheduling.
        """
        n = len(items)
        if n == 0:
            return
        if not self.fast:
            for item in items:
                self.schedule(delay, callback, item)
            return
        if n == 1:
            self.schedule_call(delay, callback, items[0])
            return
        if delay == 0:
            self._ready.append(
                (self._seq, self._run_fanout, (callback, items), None)
            )
        elif delay > 0:
            heapq.heappush(
                self._queue,
                (self.now + delay, 0, self._seq, None,
                 self._run_fanout, (callback, items)),
            )
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += n
        self._live += n

    def _run_fanout(self, callback: Callable[..., None],
                    items: list) -> None:
        # The dispatcher decremented the live count once for the batch
        # entry; the remaining items are accounted here.  The clock hold
        # keeps an inline completion inside one item from warping ``now``
        # for the rest -- with per-item scheduling the queued siblings
        # would have refused the warp themselves.
        self._live -= len(items) - 1
        self.advance_holds += 1
        try:
            for item in items:
                callback(item)
        finally:
            self.advance_holds -= 1

    def schedule_fanout_groups(
        self,
        groups: list,
        callback: Callable[..., None],
    ) -> None:
        """Schedule several same-callback fanouts with one heap entry.

        ``groups`` is a list of ``(delay, items)`` pairs with
        non-descending, non-negative delays -- the shape of a broadcast
        whose receivers sit at different mesh distances.  Semantically
        identical to calling :meth:`schedule_fanout` once per group (one
        sequence number per item, allocated synchronously here), but in
        fast mode the *entire* multi-group broadcast occupies a single
        in-flight heap entry: when group ``g`` fires, the walker pushes
        group ``g + 1`` under its preallocated time/sequence key and
        dispatches group ``g``'s items back to back.  A 64-way broadcast
        spread over a dozen latency rings therefore costs one heap push
        per ring instead of one per receiver, and only one entry is ever
        resident.

        Ordering parity with the reference engine holds because the
        sequence block is contiguous across all groups (no foreign event
        can ever sort between two items of the broadcast) and each
        group's heap key ``(time, 0, first_seq)`` is exactly the key of
        its first item under per-item scheduling.  The
        :meth:`schedule_fanout` caveat applies: item callbacks must not
        schedule negative-priority same-cycle work and expect it to
        preempt later items.
        """
        if not self.fast:
            prev = 0
            for delay, items in groups:
                if delay < 0:
                    raise ValueError(
                        f"cannot schedule into the past (delay={delay})")
                if delay < prev:
                    raise ValueError("fanout group delays must ascend")
                prev = delay
                for item in items:
                    self.schedule(delay, callback, item)
            return
        now = self.now
        seq = self._seq
        total = 0
        plan = []
        prev = 0
        for delay, items in groups:
            if delay < 0:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay})")
            if delay < prev:
                raise ValueError("fanout group delays must ascend")
            prev = delay
            if items:
                plan.append((now + delay, seq + total, items))
                total += len(items)
        if not plan:
            return
        self._seq = seq + total
        self._live += total
        time0, seq0, _items = plan[0]
        if time0 == now:
            self._ready.append(
                (seq0, self._run_fanout_groups, (callback, plan, 0), None)
            )
        else:
            heapq.heappush(
                self._queue,
                (time0, 0, seq0, None,
                 self._run_fanout_groups, (callback, plan, 0)),
            )

    def _run_fanout_groups(self, callback: Callable[..., None],
                           plan: list, index: int) -> None:
        # Same live-count arithmetic as _run_fanout, per group: the
        # dispatcher decremented once for this walker entry, the rest of
        # the group's preallocated counts are settled here.  The *next*
        # group's entry re-enters the queue under its preallocated key
        # without touching the live count (it was counted at schedule
        # time), and is pushed before this group's items run so their
        # callbacks can never observe the broadcast absent from the heap.
        _time, _seq, items = plan[index]
        nxt = index + 1
        if nxt < len(plan):
            t, s, _ = plan[nxt]
            heapq.heappush(
                self._queue,
                (t, 0, s, None, self._run_fanout_groups,
                 (callback, plan, nxt)),
            )
        self._live -= len(items) - 1
        self.advance_holds += 1
        try:
            for item in items:
                callback(item)
        finally:
            self.advance_holds -= 1

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
    # against :meth:`ff_next_key`.  Virtual events draw their sequence
    # numbers from :meth:`ff_take_seq`, the same counter real scheduling
    # uses, so a virtual event that has to be re-materialized into the
    # heap (session bail-out) lands exactly where its scheduled twin
    # would have been.  Virtual events are not counted in ``_live``; the
    # re-materializing caller adds them back.

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

    def ff_take_seq(self) -> int:
        """Allocate one sequence number for a virtual event."""
        seq = self._seq
        self._seq += 1
        return seq

    def ff_next_key(self) -> Optional[Tuple[int, int, int]]:
        """Key ``(time, priority, seq)`` of the next live queued event.

        Returns None when both queues are empty.  Mirrors :meth:`run`'s
        ordering: the ready head carries key ``(now, 0, seq)``, and the
        heap head wins exactly when its key sorts below that.
        """
        self._discard_cancelled_head()
        queue = self._queue
        ready = self._ready
        if ready:
            rkey = (self.now, 0, ready[0][0])
            if queue:
                head = queue[0]
                hkey = (head[0], head[1], head[2])
                if hkey < rkey:
                    return hkey
            return rkey
        if queue:
            head = queue[0]
            return (head[0], head[1], head[2])
        return None

    def ff_dispatch_one(self) -> None:
        """Fire exactly one queued event, exactly as :meth:`run` would.

        The caller has already decided via :meth:`ff_next_key` that this
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
