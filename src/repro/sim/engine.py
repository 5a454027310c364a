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

Implementation notes:

* Events live in one min-heap of ``(time, seq, callback, args)`` tuples;
  the unique ``seq`` means tuple comparison never reaches the callback.
* Clock claims: when an event due ``delay`` cycles out would be the
  very next event anyway, the caller advances the clock there and
  continues inline instead of round-tripping the heap.
  :meth:`Engine.horizon` holds the conditions: a claim is granted
  exactly when it lands below the horizon.  The core is the one
  claimer.  Its op loop reads the horizon once and claims by
  comparison for every load hit, forwarded load, compute burst,
  transaction marker and ignored barrier; its write-buffer drain's
  fast-forward session holds the clock but lends it up to its earliest
  virtual event, so the work it dispatches claims too.  Every other
  completion is scheduled.
* ``REPRO_SLOW_ENGINE=1`` in the environment selects *reference mode*
  (see :func:`reference_mode`).  It means exactly two things.  Nothing
  claims the clock: the horizon is always ``now``, so the core's op loop
  schedules every continuation, and no fast-forward session opens.
  And the machine classifies every request with its general classifier
  instead of the fused paths.  Everything else -- counting, latency
  tables, the coherence directory, the epochs' line sets, IDT edges --
  runs the same way in both modes.  The determinism-digest tests assert
  that both modes fire callbacks in bit-identical order across every
  persistency model.
"""

from __future__ import annotations

import heapq
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

_MODE_VAR = "REPRO_SLOW_ENGINE"

# The horizon when nothing bounds a claim: past every reachable cycle.
_UNBOUNDED = sys.maxsize


def _slow_engine_requested() -> bool:
    return os.environ.get(_MODE_VAR, "") not in ("", "0", "false")


@contextmanager
def reference_mode(slow: bool = True) -> Iterator[None]:
    """Build engines in reference mode (or, with ``slow=False``, in
    fast mode) within the block.

    Reference mode means two things: no clock claims and the machine's
    general request classifier (module docstring).  An
    :class:`Engine` reads ``REPRO_SLOW_ENGINE`` once, at
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
        self._seq = 0
        self.now: int = 0
        # True while run() is executing in fast mode; gates clock
        # claims and fast-forward sessions.
        self._in_run = False
        self._until: Optional[int] = None
        # While positive, no claim moves the clock, except below a
        # session's lend (_lent).  Held by a fast-forward session and by
        # an epoch's persist fan-out (EpochManager.mark_persisted): a
        # woken core's op loop inside the first waiter must not advance
        # ``now`` under the feet of the rest.
        self.advance_holds = 0
        # The cycle a fast-forward session lends the clock up to
        # (exclusive) while it dispatches work; -1 when nothing is lent.
        self._lent = -1
        # REPRO_SLOW_ENGINE=1 selects reference mode: no claims.
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
        heapq.heappush(self._queue,
                       (self.now + delay, self._seq, callback, args))
        self._seq += 1

    def horizon(self) -> int:
        """The first cycle a clock claim cannot reach.

        A claim to cycle ``t`` is granted exactly when ``t <
        horizon()``.  Four conditions set it: the active fast-mode
        ``run()`` must be the caller's context, no component may hold
        the clock (``advance_holds``; a session's lend is the exception,
        below), nothing in the heap may be due at or before ``t``, and
        ``t`` may not cross the run's ``until`` bound.  When one of the
        first two fails the horizon is ``now``: nothing, not even a
        zero-cycle claim, is reachable.

        The hold matters for soundness: a synchronous fan-out (an epoch
        waking several parked waiters in one event) is invisible to the
        heap, so without the hold the first waiter could warp ``now``
        and the remaining waiters would observe the wrong cycle.  A
        fast-forward session's hold is the one exception: its own
        events are virtual, outside the heap, and it lends the clock
        up to the earliest of them (``_lent``).  Under exactly one hold
        the horizon is at most the lent cycle -- a tie loses, because
        the virtual event holds the older sequence number -- and under
        two holds (a fan-out inside the session) it is ``now``.

        The value moves only when something is queued or dispatched or
        a hold or lend changes, so a caller that does none of these
        between claims (a core's op loop) may read it once and compare
        against it.
        """
        holds = self.advance_holds
        if not self._in_run or holds > 1:
            return self.now
        if holds:
            limit = self._lent
            if limit < 0:
                return self.now
        else:
            limit = _UNBOUNDED
        queue = self._queue
        if queue and queue[0][0] < limit:
            limit = queue[0][0]
        until = self._until
        if until is not None and until < limit:
            limit = until + 1
        return limit

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Drain the event queue, or stop with the clock at ``until``
        once the next event lies past it."""
        queue = self._queue
        pop = heapq.heappop
        self._in_run = self.fast
        self._until = until
        try:
            while queue:
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
    # The session's own *virtual* events live outside the heap as
    # (time, seq) keys that the caller merges against the heap head.
    # The session holds the clock (``advance_holds``), so no claim can
    # jump past a virtual event it cannot see; while it dispatches a
    # queued event or runs its core's op loop it lends the clock up to
    # its earliest virtual event (``_lent``), so claims below that cycle
    # still move the clock inline.  Virtual events draw their sequence
    # numbers from ``_seq``, the same counter real scheduling uses, so a
    # virtual event that has to be re-materialized into the heap
    # (session bail-out) lands exactly where its scheduled twin would
    # have been.  The one session loop, the core's write-buffer drain
    # (``Core._drain``), reads the heap head, takes sequence numbers
    # and sets the lend inline.

    def ff_begin(self) -> None:
        """Open a fast-forward session.

        Raises RuntimeError outside a fast-mode :meth:`run` or while any
        component holds the clock -- which includes another session, so
        sessions never nest.  The caller (``Core._drain``) checks both
        conditions first and falls back when either holds.
        """
        if not self._in_run or self.advance_holds:
            raise RuntimeError(
                "a fast-forward session opens only inside a fast-mode "
                "run() with the clock unheld"
            )
        self.advance_holds += 1

    def ff_end(self) -> None:
        """Close the session opened by the matching :meth:`ff_begin`,
        withdrawing its lend."""
        self._lent = -1
        self.advance_holds -= 1

    def ff_dispatch_one(self) -> None:
        """Fire exactly one queued event, exactly as :meth:`run` would.

        The caller has already decided from the heap head that this
        event precedes its next virtual event and has checked the until
        bound.
        """
        head = heapq.heappop(self._queue)
        self.now = head[0]
        head[2](*head[3])
