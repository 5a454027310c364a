"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


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


def test_schedule_zero_fires_in_schedule_order():
    engine = Engine()
    fired = []
    engine.schedule(0, fired.append, "a")
    engine.schedule(0, fired.append, "b")
    engine.schedule(0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 0


def test_schedule_zero_runs_after_earlier_timed_event_same_cycle():
    engine = Engine()
    fired = []

    def at_five():
        fired.append("timed")
        engine.schedule(0, fired.append, "soon")
        engine.schedule(0, fired.append, "zero")

    engine.schedule(5, at_five)
    engine.schedule(5, fired.append, "second-timed")
    engine.run()
    # Both continuations were queued after second-timed's seq, so it
    # fires first: one heap orders every event by (time, seq).
    assert fired == ["timed", "second-timed", "soon", "zero"]


def _fast_engine() -> Engine:
    """An engine pinned to fast mode, regardless of REPRO_SLOW_ENGINE.

    The fast-path tests assert fast-path behaviour; the suite itself may
    legitimately run under the reference env var.
    """
    engine = Engine()
    engine.fast = True
    return engine


def test_slow_mode_routes_everything_through_heap(monkeypatch):
    # Reference mode never claims the clock: inside run() the horizon is
    # always now, so every continuation goes through the heap.
    monkeypatch.setenv("REPRO_SLOW_ENGINE", "1")
    engine = Engine()
    assert not engine.fast
    horizons = []
    engine.schedule(1, lambda: horizons.append(engine.horizon() - engine.now))
    engine.schedule(5, lambda: None)
    engine.run()
    assert horizons == [0]


def _claim_probe(engine, verdicts):
    """A probe that claims the clock ``delay`` cycles out as a core's op
    loop does: it moves the clock there exactly when ``now + delay <
    horizon()``, and records (label, claimed, cycles moved)."""

    def probe(label, delay):
        start = engine.now
        claimed = start + delay < engine.horizon()
        if claimed:
            engine.now = start + delay
        verdicts.append((label, claimed, engine.now - start))

    return probe


def test_claim_moves_the_clock_only_when_it_can_be_next():
    engine = _fast_engine()
    verdicts = []
    probe = _claim_probe(engine, verdicts)

    def with_queued_work():
        engine.schedule(0, fired.append, "queued")
        probe("queued work", 0)

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
    engine.schedule(1, with_queued_work)
    engine.schedule(10, before_heap_event)
    engine.schedule(20, fired.append, "timed")
    engine.schedule(25, held)
    engine.schedule(30, past_until)
    engine.run(until=60)
    assert verdicts == [
        ("outside run", False, 0),
        ("queued work", False, 0),
        ("at heap event", False, 0),
        ("past heap event", False, 0),
        ("before heap event", True, 9),
        ("held", False, 0),
        ("past until", False, 0),
        ("at until", True, 30),
    ]
    assert fired == ["queued", "timed"]
    assert engine.now == 60


def test_claim_under_a_session_lend():
    # A fast-forward session holds the clock and lends it up to its
    # earliest virtual event: under that one hold a claim is granted
    # only strictly below the lent cycle, and never under two holds.
    engine = _fast_engine()
    verdicts = []
    probe = _claim_probe(engine, verdicts)

    def session():
        engine.ff_begin()
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
            engine.schedule(0, fired.append, "queued")
            probe("queued work", 0)
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
        ("queued work", False, 0),
        ("after ff_end", -1, 0),
    ]
    assert fired == ["queued"]
    assert engine.now == 30


def test_horizon_is_the_first_cycle_a_claim_cannot_reach():
    # The horizon is now whenever nothing is reachable (outside run(),
    # same-cycle work queued, a hold with nothing lent, two holds), and
    # otherwise the least of the heap head, the cycle after until and
    # the lend.
    engine = _fast_engine()
    seen = []

    def note(label):
        seen.append((label, engine.horizon() - engine.now))

    def at_ten():
        note("heap head at 20")
        engine.schedule(0, lambda: None)
        note("same-cycle work")

    def at_twenty_five():
        note("nothing queued, until 40")
        engine.ff_begin()
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
        ("same-cycle work", 0),
        ("nothing queued, until 40", 16),
        ("session, nothing lent", 0),
        ("lent to 30", 5),
        ("lent past until", 16),
        ("two holds", 0),
    ]
    engine.schedule(1, lambda: note("unbounded"))
    engine.run()
    assert seen[-1][1] > 1 << 60


def test_ff_begin_raises_outside_run_and_under_a_hold():
    # Core._drain checks both conditions itself (fallback reason
    # "held"), so a session that cannot open is a caller bug: it raises
    # and takes no hold.
    engine = _fast_engine()
    with pytest.raises(RuntimeError, match="fast-mode run"):
        engine.ff_begin()
    outcomes = []

    def attempt(label):
        try:
            engine.ff_begin()
        except RuntimeError:
            outcomes.append((label, engine.advance_holds))

    def inside_run():
        engine.advance_holds += 1
        attempt("held")
        engine.advance_holds -= 1
        engine.ff_begin()
        attempt("nested")
        engine.ff_end()
        outcomes.append(("closed", engine.advance_holds))

    engine.schedule(1, inside_run)
    engine.run()
    assert outcomes == [("held", 1), ("nested", 1), ("closed", 0)]
    assert engine.advance_holds == 0

    # A reference-mode run() never admits a session.
    slow = Engine()
    slow.fast = False
    raised = []

    def inside_slow_run():
        with pytest.raises(RuntimeError):
            slow.ff_begin()
        raised.append(slow.advance_holds)

    slow.schedule(1, inside_slow_run)
    slow.run()
    assert raised == [0]
