"""Tests for the discrete-event engine."""

import heapq

import pytest

from repro.sim.engine import _MAX_INLINE_DEPTH, Engine, reference_mode


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, fired.append, "c")
    engine.schedule(10, fired.append, "a")
    engine.schedule(20, fired.append, "b")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_same_cycle_events_fire_in_schedule_order():
    engine = Engine()
    fired = []
    for tag in "abcde":
        engine.schedule(5, fired.append, tag)
    engine.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, "early")
    engine.schedule(100, fired.append, "late")
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    engine.run()
    assert fired == ["early", "late"]


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            engine.schedule(1, chain, n + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert engine.now == 5


def test_zero_delay_runs_after_queued_same_cycle_events():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule(0, fired.append, "nested")

    engine.schedule(3, first)
    engine.schedule(3, fired.append, "second")
    engine.run()
    assert fired == ["first", "second", "nested"]


def test_call_soon_fires_in_order_with_schedule_zero():
    engine = Engine()
    fired = []
    engine.call_soon(fired.append, "a")
    engine.schedule(0, fired.append, "b")
    engine.call_soon(fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 0


def test_call_soon_runs_after_earlier_timed_event_same_cycle():
    engine = Engine()
    fired = []

    def at_five():
        fired.append("timed")
        engine.call_soon(fired.append, "soon")
        engine.schedule(0, fired.append, "zero")

    engine.schedule(5, at_five)
    engine.schedule(5, fired.append, "second-timed")
    engine.run()
    # Both continuations were queued after second-timed's seq, so the
    # heap entry fires first even though the ready queue is non-empty.
    assert fired == ["timed", "second-timed", "soon", "zero"]




def _fast_engine() -> Engine:
    """An engine pinned to fast mode, regardless of REPRO_SLOW_ENGINE.

    The fast-path tests assert fast-path behaviour; the suite itself may
    legitimately run under the reference env var.
    """
    engine = Engine()
    engine.fast = True
    return engine


def test_finish_schedules_outside_run():
    engine = _fast_engine()
    fired = []
    engine.finish(10, fired.append)
    # No run is active, so nothing can claim the clock.
    assert fired == [] and engine.now == 0
    engine.run()
    assert fired == [10]
    assert engine.now == 10


def test_finish_claims_clock_when_next():
    engine = _fast_engine()
    fired = []

    def handler():
        # Nothing else queued: the completion at now+7 is the next event.
        engine.finish(7, fired.append)
        fired.append(("returned at", engine.now))

    engine.schedule(3, handler)
    engine.run()
    assert fired == [10, ("returned at", 10)]
    assert engine.now == 10


def test_finish_schedules_when_work_pending():
    engine = _fast_engine()
    fired = []

    def handler():
        engine.call_soon(fired.append, "ready")
        engine.finish(7, fired.append)    # behind ready work: t=8

    def later():
        # A timed event at t=5 precedes a completion at t=10.
        engine.finish(9, fired.append)

    engine.schedule(1, handler)
    engine.schedule(1, later)
    engine.schedule(5, fired.append, "timed")
    engine.run()
    assert fired == ["ready", "timed", 8, 10]


def test_finish_respects_until_bound():
    engine = _fast_engine()
    fired = []

    def handler():
        engine.finish(98, fired.append)   # t=100, past the bound
        engine.finish(48, fired.append)   # t=50, at the bound: inline

    engine.schedule(2, handler)
    engine.run(until=50)
    assert fired == [50]
    assert engine.now == 50
    engine.run()
    assert fired == [50, 100]


def test_finish_schedules_while_clock_held():
    engine = _fast_engine()
    fired = []

    def handler():
        engine.advance_holds += 1
        try:
            engine.finish(7, fired.append)   # held: queued for t=10
        finally:
            engine.advance_holds -= 1
        fired.append(("released at", engine.now))
        engine.finish(3, fired.append)       # t=6 precedes t=10: inline

    engine.schedule(3, handler)
    engine.run()
    # While held the clock must not move; after release the claim works.
    assert fired == [("released at", 3), 6, 10]
    assert engine.now == 10


def test_finish_inline_depth_is_bounded():
    # A 5,000-step chain of inline completions would overflow the Python
    # stack without the depth bound; with it, the chain falls back to
    # the heap every _MAX_INLINE_DEPTH steps and sees the same cycles.
    def chain(engine):
        cycles, depths = [], []

        def step(time):
            cycles.append(time)
            depths.append(engine._inline_depth)
            if time < 5000:
                engine.finish(1, step)

        engine.call_soon(engine.finish, 1, step)
        engine.run()
        return cycles, depths

    cycles, depths = chain(_fast_engine())
    assert cycles == list(range(1, 5001))
    assert max(depths) == _MAX_INLINE_DEPTH
    with reference_mode():
        reference = Engine()
    ref_cycles, ref_depths = chain(reference)
    assert ref_cycles == cycles
    assert set(ref_depths) == {0}


def test_slow_mode_routes_everything_through_heap(monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_ENGINE", "1")
    engine = Engine()
    assert not engine.fast
    fired = []
    engine.call_soon(fired.append, "a")
    engine.schedule(0, fired.append, "b")
    assert not engine._ready  # everything heads to the heap
    engine.schedule(1, engine.finish, 4, fired.append)
    engine.schedule(1, lambda: fired.append(("after finish", engine.now)))
    engine.run()
    # Reference mode never claims the clock: the completion is queued.
    assert fired == ["a", "b", ("after finish", 1), 5]


def _claim_probe(engine, verdicts):
    """A probe that completes ``delay`` cycles out through ``finish``,
    checks that the completion ran inline exactly when ``now + delay <
    horizon()`` (the clock claim), and records (label, ran inline,
    cycles moved).  A completion ``finish`` queued instead is withdrawn
    at once, so it cannot bound a later probe."""

    def probe(label, delay):
        start = engine.now
        reachable = start + delay < engine.horizon()
        ran = []
        done = ran.append
        engine.finish(delay, done)
        inline = bool(ran)
        assert inline == reachable, label
        if inline:
            assert ran == [start + delay] == [engine.now], label
        elif delay == 0:
            # Same-cycle work goes to the ready deque.
            assert engine._ready.pop() == (engine._seq - 1, done, (start,))
        else:
            engine._queue.remove(
                (start + delay, engine._seq - 1, done, (start + delay,)))
            heapq.heapify(engine._queue)
        verdicts.append((label, inline, engine.now - start))

    return probe


def test_claim_moves_the_clock_only_when_it_can_be_next():
    engine = _fast_engine()
    verdicts = []
    probe = _claim_probe(engine, verdicts)

    def with_ready_work():
        engine.call_soon(fired.append, "ready")
        probe("ready work", 1)

    def before_heap_event():
        # The heap holds "timed" at t=20: a claim to t=20 (a tie) or
        # past it is refused, a claim to t=19 is granted.
        probe("at heap event", 10)
        probe("past heap event", 11)
        probe("before heap event", 9)

    def held():
        engine.advance_holds += 1
        try:
            probe("held", 1)
        finally:
            engine.advance_holds -= 1

    def past_until():
        probe("past until", 100)
        probe("at until", 30)

    fired = []
    probe("outside run", 5)
    engine.schedule(1, with_ready_work)
    engine.schedule(10, before_heap_event)
    engine.schedule(20, fired.append, "timed")
    engine.schedule(25, held)
    engine.schedule(30, past_until)
    engine.run(until=60)
    assert verdicts == [
        ("outside run", False, 0),
        ("ready work", False, 0),
        ("at heap event", False, 0),
        ("past heap event", False, 0),
        ("before heap event", True, 9),
        ("held", False, 0),
        ("past until", False, 0),
        ("at until", True, 30),
    ]
    assert fired == ["ready", "timed"]
    assert engine.now == 60


def test_claim_under_a_session_lend():
    # A fast-forward session holds the clock and lends it up to its
    # earliest virtual event: under that one hold a claim is granted
    # only strictly below the lent cycle, and never under two holds.
    engine = _fast_engine()
    verdicts = []
    probe = _claim_probe(engine, verdicts)

    def session():
        assert engine.ff_begin()
        try:
            probe("nothing lent", 1)
            engine._lent = 20
            probe("below the lend", 5)           # t=15
            probe("on the lend", 5)              # t=20: a tie is refused
            probe("just below the lend", 4)      # t=19
            engine.advance_holds += 1
            probe("two holds", 0)
            engine.advance_holds -= 1
            engine._lent = 100
            probe("past until", 12)              # t=31 > until 30
            probe("at until", 11)                # t=30
            engine.call_soon(fired.append, "ready")
            probe("ready work", 0)
        finally:
            engine.ff_end()
        verdicts.append(("after ff_end", engine._lent, engine.advance_holds))

    fired = []
    engine.schedule(10, session)
    engine.schedule(40, fired.append, "timed")
    engine.run(until=30)
    assert verdicts == [
        ("nothing lent", False, 0),
        ("below the lend", True, 5),
        ("on the lend", False, 0),
        ("just below the lend", True, 4),
        ("two holds", False, 0),
        ("past until", False, 0),
        ("at until", True, 11),
        ("ready work", False, 0),
        ("after ff_end", -1, 0),
    ]
    assert fired == ["ready"]
    assert engine.now == 30


def test_horizon_is_the_first_cycle_a_claim_cannot_reach():
    # The horizon is now whenever nothing is reachable (outside run(),
    # ready work, a hold with nothing lent, two holds), and otherwise
    # the least of the heap head, the cycle after until and the lend.
    engine = _fast_engine()
    seen = []

    def note(label):
        seen.append((label, engine.horizon() - engine.now))

    def at_ten():
        note("heap head at 20")
        engine.call_soon(lambda: None)
        note("ready work")

    def at_twenty_five():
        note("nothing queued, until 40")
        assert engine.ff_begin()
        try:
            note("session, nothing lent")
            engine._lent = 30
            note("lent to 30")
            engine._lent = 50
            note("lent past until")
            engine.advance_holds += 1
            note("two holds")
            engine.advance_holds -= 1
        finally:
            engine.ff_end()

    note("outside run")
    engine.schedule(10, at_ten)
    engine.schedule(20, lambda: None)
    engine.schedule(25, at_twenty_five)
    engine.run(until=40)
    assert seen == [
        ("outside run", 0),
        ("heap head at 20", 10),
        ("ready work", 0),
        ("nothing queued, until 40", 16),
        ("session, nothing lent", 0),
        ("lent to 30", 5),
        ("lent past until", 16),
        ("two holds", 0),
    ]
    engine.schedule(1, lambda: note("unbounded"))
    engine.run()
    assert seen[-1][1] > 1 << 60
