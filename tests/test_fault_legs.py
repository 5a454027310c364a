"""Per-leg fault-injection tests: every injectable protocol leg fires
where targeted and bumps its counter, every leg adds at most one fixed
cost per coordinate, malformed configs are rejected, and the BankAck
retry chain stays bounded, with the simulated-time watchdog turning a
chain past its bound into a typed ProtocolError."""

from types import SimpleNamespace

import pytest

from repro.recovery.campaign import (
    CampaignSpec,
    enumerate_points,
    run_baseline,
    _run_probe,
)
from repro.sim.faults import (
    FAULT_LEGS,
    MAX_ACK_RETRIES,
    MC_STALL_CYCLES,
    TORN_WRITE_CYCLES,
    WRITE_RETRY_CYCLES,
    FaultConfig,
    FaultInjector,
    ProtocolError,
)


SPEC = CampaignSpec(workload="pingpong", num_cores=2, transactions=3,
                    mc_stride=2)

# Which stat counter each leg bumps when its fault fires.
LEG_COUNTERS = {
    "bank_ack_drop": "flush_ack_drops",
    "bank_ack_detour": "flush_ack_delays",
    "flush_epoch_drop": "flush_epoch_drops",
    "flush_epoch_dup": "flush_epoch_dups",
    "link_delay": "flush_link_delays",
    "persist_cmp_drop": "flush_cmp_drops",
    "persist_ack_drop": "fault_persist_ack_drops",
    "mc_stall": "fault_stalls",
    "torn_write": "fault_torn_writes",
    "write_retry": "fault_write_retries",
}


@pytest.fixture(scope="module")
def baseline():
    return run_baseline(SPEC)


@pytest.fixture(scope="module")
def points(baseline):
    return enumerate_points(SPEC, baseline)


def first_point(points, leg):
    for point in points:
        if point.leg == leg:
            return point
    raise AssertionError(f"no enumerated point for leg {leg}")


# ----------------------------------------------------------------------
# Injector unit behaviour
# ----------------------------------------------------------------------
def test_leg_counter_table_covers_registry():
    assert set(LEG_COUNTERS) == set(FAULT_LEGS)


def test_unknown_inject_leg_rejected():
    with pytest.raises(ValueError, match="unknown fault leg"):
        FaultInjector(FaultConfig(inject=(("bogus_leg", (0, 0)),)))


@pytest.mark.parametrize("leg,coords", [
    ("bank_ack_drop", (1, 2)),
    ("persist_ack_drop", (0, 1, 2, 3)),
    ("mc_stall", (0, 1, 2)),
])
def test_wrong_coordinate_count_rejected(leg, coords):
    # A target with the wrong arity could never match an event, so the
    # run would inject nothing and still report success.
    with pytest.raises(ValueError, match="coordinates"):
        FaultInjector(FaultConfig(inject=((leg, coords),)))


@pytest.mark.parametrize("rates,message", [
    ((("bogus_leg", 0.5),), "unknown fault leg"),
    ((("bank_ack_drop", 1.5),), r"\[0, 1\]"),
    ((("mc_stall", -0.1),), r"\[0, 1\]"),
    ((("mc_stall", float("nan")),), r"\[0, 1\]"),
])
def test_bad_rates_rejected(rates, message):
    with pytest.raises(ValueError, match=message):
        FaultInjector(FaultConfig(rates=rates))


def test_targeted_injection_fires_only_at_its_coordinates():
    inject = (("flush_epoch_drop", (0, 1, 2)),)
    faults = FaultInjector(FaultConfig(inject=inject))
    assert faults.fires("flush_epoch_drop", 0, 1, 2)
    assert not faults.fires("flush_epoch_drop", 0, 1, 3)
    assert not faults.fires("flush_epoch_drop", 1, 1, 2)
    assert not faults.fires("flush_epoch_dup", 0, 1, 2)
    assert faults.active == {"flush_epoch_drop"}


def test_targeted_bank_ack_drop_fires_on_first_attempt_only():
    faults = FaultInjector(
        FaultConfig(inject=(("bank_ack_drop", (0, 1, 2)),)))
    assert faults.fires("bank_ack_drop", 0, 1, 2, attempt=0)
    assert not faults.fires("bank_ack_drop", 0, 1, 2, attempt=1)
    assert not faults.fires("bank_ack_drop", 0, 0, 2, attempt=0)


def test_rate_one_chains_stay_bounded():
    # Every leg certain to fire: the run still finishes, and each leg
    # other than the retried BankAck adds exactly one fixed cost per
    # coordinate -- no chain can form.
    cfg = FaultConfig(seed=7, rates=tuple((leg, 1.0) for leg in FAULT_LEGS))
    probe = _run_probe(SPEC, cfg)
    assert probe.error is None and probe.result.finished
    total = probe.result.stats.total
    flushes = probe.machine.handshake_counters()["flushes"]
    assert flushes > 0
    assert total("flush_cmp_drops") == \
        flushes * probe.machine.config.llc_banks
    assert total("flush_epoch_drops") == total("flush_epoch_dups") \
        == total("flush_link_delays") > 0
    assert total("fault_stall_cycles") == \
        total("fault_stalls") * MC_STALL_CYCLES
    torn = total("fault_torn_writes")
    assert torn > 0 and total("fault_write_retries") == torn
    assert total("fault_media_cycles") == \
        torn * (TORN_WRITE_CYCLES + WRITE_RETRY_CYCLES)


def test_drop_bank_ack_never_drops_final_attempt(monkeypatch):
    # The flush engine owns the retry bound: under a certain drop the
    # attempt below MAX_ACK_RETRIES arms a timeout, the attempt at the
    # bound is delivered.
    machine = run_baseline(SPEC).machine
    flush_op = machine.arbiters[0]._flush_op
    scheduled = []
    monkeypatch.setattr(flush_op, "_engine", SimpleNamespace(
        schedule=lambda delay, callback, *args:
            scheduled.append(callback.__name__)))
    monkeypatch.setattr(flush_op, "_epoch", SimpleNamespace(core_id=0, seq=0))
    flush_op._faults = FaultInjector(
        FaultConfig(rates=(("bank_ack_drop", 1.0),)))
    flush_op._send_bank_ack(0, delay=0, attempt=MAX_ACK_RETRIES - 1)
    flush_op._send_bank_ack(0, delay=0, attempt=MAX_ACK_RETRIES)
    assert scheduled == ["_ack_timeout", "_bank_ack"]


# ----------------------------------------------------------------------
# End-to-end wiring: each leg, injected at a real coordinate of the
# captured baseline, fires its counter and the run still completes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("leg", FAULT_LEGS)
def test_injected_leg_fires_and_run_completes(leg, points):
    # Media legs (torn_write/write_retry) only bite on *write* ordinals,
    # and the campaign deliberately enumerates every MC ordinal; scan a
    # few points until the fault lands on a write.
    candidates = [p for p in points if p.leg == leg][:6]
    assert candidates, f"no enumerated point for leg {leg}"
    fired = 0
    for point in candidates:
        probe = _run_probe(
            SPEC, FaultConfig(seed=SPEC.fault_seed,
                              inject=((point.leg, point.coords),)))
        assert probe.error is None
        assert probe.result is not None and probe.result.finished
        fired = probe.result.stats.total(LEG_COUNTERS[leg])
        if fired:
            break
    assert fired >= 1


# ----------------------------------------------------------------------
# Watchdog: a BankAck retry chain past its bound aborts with a typed
# ProtocolError instead of hanging the simulation.
# ----------------------------------------------------------------------
def test_bank_ack_watchdog_rejects_attempts_past_bound():
    probe = run_baseline(
        CampaignSpec(workload="pingpong", num_cores=2, transactions=2,
                     mc_stride=2))
    machine = probe.machine
    flush_op = machine.arbiters[0]._flush_op
    flush_op._faults = FaultInjector(
        FaultConfig(rates=(("bank_ack_drop", 0.5),)))
    with pytest.raises(ProtocolError, match="BankAck retry chain"):
        flush_op._send_bank_ack(0, delay=0, attempt=MAX_ACK_RETRIES + 1)
