"""Deterministic discrete-event engine.

The engine orders events by ``(time, sequence)``.  The sequence number
makes ordering fully deterministic: two events scheduled for the same
cycle fire in the order they were scheduled.  Determinism matters here
because the persistence machinery is full of races (flush completions
vs. new conflicting requests) and reproducible experiments are a hard
requirement for the benchmark harness.

Components never spin; they schedule a callback for the cycle at which a
hardware event (message arrival, NVRAM write completion, ...) would occur
and return.  Blocking behaviour (a core stalled on an online persist) is
expressed by simply not scheduling the continuation until the unblocking
event fires.

Implementation notes -- the two-tier queue:

* The dominant event class by far is the zero-delay continuation: every
  op transition in :mod:`repro.cpu.processor` re-schedules itself for
  the *current* cycle.  Routing those through a binary heap costs two
  O(log n) operations per transition.  Instead, same-cycle work goes
  into a plain FIFO *ready deque* of ``(seq, callback, args)`` entries
  that is drained before the heap is consulted.
* Timed events live in a min-heap of ``(time, seq, callback, args)``
  tuples; the unique ``seq`` means tuple comparison never reaches the
  callback.
* The drain preserves the exact ``(time, seq)`` firing order: every
  ready entry carries key ``(now, seq)``, the deque is FIFO in ``seq``,
  and the heap head (whose time is always ``>= now``) is fired first
  whenever it is at the current cycle with an older sequence number.
  The clock only advances off the heap, so the ready deque can never
  hold entries from two different cycles.
* :meth:`Engine.finish` is the inline completion: when a callback due
  ``delay`` cycles out would be the very next event anyway, it claims
  the clock and calls it directly instead of round-tripping the heap.
* ``REPRO_SLOW_ENGINE=1`` in the environment selects *reference mode*
  (see :func:`reference_mode`).  It means exactly two things.  The
  engine runs its plain heap loop: every event, including
  ``call_soon``, goes through the heap, and :meth:`finish` and
  fast-forward sessions always schedule or refuse.  And the machine
  classifies every request with its general classifier instead of the
  fused paths.  Everything else -- counting, latency tables, epoch
  tags -- runs the same way in both modes.  The determinism-digest
  tests assert that both modes fire callbacks in bit-identical order
  across every persistency model.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

_MODE_VAR = "REPRO_SLOW_ENGINE"

# Bound on nested inline completions (Engine.finish): a streak of
# completions that each claim the clock re-enters the caller recursively
# (completion -> next op -> hit -> completion ...); past this depth the
# completion falls back to the scheduler so the Python stack stays
# shallow.
_MAX_INLINE_DEPTH = 32


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


class Engine:
    """The global event queue and simulation clock.

    Typical use::

        engine = Engine()
        engine.schedule(10, handler, arg1, arg2)
        engine.run()
        print(engine.now)
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._ready: Deque[Tuple[int, Callable[..., None], tuple]] = deque()
        self._seq = 0
        self.now: int = 0
        # True while run() is executing in fast mode; gates finish's
        # clock claim and fast-forward sessions.
        self._in_run = False
        self._until: Optional[int] = None
        self._inline_depth = 0
        # While positive, finish never claims the clock.  Held by
        # components that dispatch several independent continuations
        # synchronously from one event (the epoch managers' waiter
        # loops): an inline completion inside the first continuation
        # must not advance ``now`` under the feet of the rest.
        self.advance_holds = 0
        # REPRO_SLOW_ENGINE=1 selects the pure-heap reference mode.
        self.fast = not _slow_engine_requested()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the
        current cycle (after already-queued same-cycle events with lower
        sequence numbers).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if delay or not self.fast:
            heapq.heappush(self._queue,
                           (self.now + delay, self._seq, callback, args))
        else:
            self._ready.append((self._seq, callback, args))
        self._seq += 1

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Queue ``callback(*args)`` for later in the current cycle.

        Equivalent to ``schedule(0, callback, *args)``, minus the delay
        checks: the hot-path API for the per-op state transitions of
        :mod:`repro.cpu.processor`.
        """
        if self.fast:
            self._ready.append((self._seq, callback, args))
        else:
            heapq.heappush(self._queue, (self.now, self._seq, callback, args))
        self._seq += 1

    def finish(self, delay: int, callback: Callable[[int], None]) -> None:
        """Complete ``callback(now + delay)``, inline when it is next.

        When a callback scheduled ``delay`` cycles out would be the very
        next event to fire -- nothing is queued at or before that cycle,
        no component holds the clock (``advance_holds``), the active
        fast-mode ``run()`` would reach it, and the inline depth is
        below its bound -- advance ``now`` and call it directly,
        skipping a heap round-trip.  Otherwise schedule it.  Firing
        order is the same either way as long as the caller calls this
        last: work it scheduled after an inline completion would run
        after that completion, where the scheduled path runs it first.

        The hold matters for soundness: a synchronous fan-out (an epoch
        waking several parked waiters in one event) is invisible to the
        queues, so without the hold the first waiter could warp ``now``
        and the remaining waiters would observe the wrong cycle.
        """
        time = self.now + delay
        queue = self._queue
        if (
            self._in_run
            and not self.advance_holds
            and not self._ready
            and self._inline_depth < _MAX_INLINE_DEPTH
            and (not queue or queue[0][0] > time)
            and (self._until is None or time <= self._until)
        ):
            self.now = time
            self._inline_depth += 1
            try:
                callback(time)
            finally:
                self._inline_depth -= 1
            return
        self.schedule(delay, callback, time)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Drain the event queue, or stop with the clock at ``until``
        once the next event lies past it."""
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        self._in_run = self.fast
        self._until = until
        try:
            while True:
                if ready:
                    # The heap head (time >= now) fires first only when
                    # it is at the current cycle with an older sequence
                    # number than the ready head's.
                    if queue:
                        head = queue[0]
                        if head[0] <= self.now and head[1] < ready[0][0]:
                            pop(queue)
                            head[2](*head[3])
                            continue
                    item = popleft()
                    item[1](*item[2])
                    continue
                if not queue:
                    break
                head = queue[0]
                time = head[0]
                if until is not None and time > until:
                    # All heap times are >= the head's, so nothing runs
                    # within the bound.
                    self.now = until
                    break
                pop(queue)
                self.now = time
                head[2](*head[3])
        finally:
            self._in_run = False
            self._until = None

    # ------------------------------------------------------------------
    # Fast-forward sessions
    # ------------------------------------------------------------------
    # A fast-forward session lets one component (the core's write-buffer
    # drain) advance a stretch of its own future work analytically while
    # interleaved foreign events still fire in exact (time, seq) order.
    # The session holds the clock (``advance_holds``), so every
    # finish() elsewhere schedules -- the queues stay the single source
    # of truth for foreign work -- and the session's own *virtual*
    # events live outside the queues as (time, seq) keys that the caller
    # merges against the queue heads.  Virtual events draw their
    # sequence numbers from ``_seq``, the same counter real scheduling
    # uses, so a virtual event that has to be re-materialized into the
    # heap (session bail-out) lands exactly where its scheduled twin
    # would have been.  The one session owner, ``Core._ff_run``, reads
    # the queue heads and takes sequence numbers inline.

    def ff_begin(self) -> bool:
        """Open a fast-forward session.

        Refuses (returning False) outside a fast-mode :meth:`run` or
        while any component holds the clock -- which includes another
        session, so sessions never nest.
        """
        if not self._in_run or self.advance_holds:
            return False
        self.advance_holds += 1
        return True

    def ff_end(self) -> None:
        """Close the session opened by the matching :meth:`ff_begin`."""
        self.advance_holds -= 1

    def ff_dispatch_one(self) -> None:
        """Fire exactly one queued event, exactly as :meth:`run` would.

        The caller has already decided from the queue heads that this
        event precedes its next virtual event and has checked the until
        bound.  The clock advances off the heap just like in the main
        loop.
        """
        queue = self._queue
        ready = self._ready
        if ready:
            if queue:
                head = queue[0]
                if head[0] <= self.now and head[1] < ready[0][0]:
                    heapq.heappop(queue)
                    head[2](*head[3])
                    return
            item = ready.popleft()
            item[1](*item[2])
            return
        head = heapq.heappop(queue)
        self.now = head[0]
        head[2](*head[3])
