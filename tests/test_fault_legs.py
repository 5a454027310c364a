"""Per-leg fault-injection tests: every injectable protocol leg fires
where targeted, bumps its counter, stays bounded at the retry maximum,
and trips the simulated-time watchdog into a typed ProtocolError when a
retry chain exceeds its bound."""

import pytest

from repro.recovery.campaign import (
    CampaignSpec,
    enumerate_points,
    run_baseline,
    _run_probe,
)
from repro.sim.faults import (
    FAULT_LEGS,
    FaultConfig,
    FaultInjector,
    ProtocolError,
    backoff_cycles,
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


def test_backoff_is_exponential_sum():
    assert backoff_cycles(200, 0) == 0
    assert backoff_cycles(200, 1) == 200
    assert backoff_cycles(200, 2) == 600
    assert backoff_cycles(300, 3) == 300 * 7


def test_unknown_inject_leg_rejected():
    with pytest.raises(ValueError, match="unknown fault leg"):
        FaultInjector(FaultConfig(inject=(("bogus_leg", (0, 0)),)))


def test_targeted_injection_fires_only_at_its_coordinates():
    inject = (("flush_epoch_drop", (0, 1, 2)),)
    faults = FaultInjector(FaultConfig(inject=inject))
    assert faults.flush_epoch_resends(0, 1, 2) == 1
    assert faults.flush_epoch_resends(0, 1, 3) == 0
    assert faults.flush_epoch_resends(1, 1, 2) == 0


def test_targeted_bank_ack_drop_fires_on_first_attempt_only():
    faults = FaultInjector(
        FaultConfig(inject=(("bank_ack_drop", (0, 1, 2)),)))
    assert faults.drop_bank_ack(0, 1, 2, attempt=0)
    assert not faults.drop_bank_ack(0, 1, 2, attempt=1)
    assert not faults.drop_bank_ack(0, 0, 2, attempt=0)


def test_rate_one_chains_stay_bounded():
    cfg = FaultConfig(
        seed=7,
        drop_flush_epoch_rate=1.0,
        drop_persist_ack_rate=1.0,
        drop_persist_cmp_rate=1.0,
        torn_write_rate=1.0,
    )
    faults = FaultInjector(cfg)
    assert faults.flush_epoch_resends(0, 0, 0) == cfg.max_flush_epoch_retries
    assert faults.persist_ack_resends(0, 0, 0x40) == \
        cfg.max_persist_ack_retries
    assert faults.persist_cmp_resends(0, 0, 0) == cfg.max_persist_cmp_retries
    assert faults.torn_write_retries(0, 0) == cfg.max_torn_write_retries


def test_drop_bank_ack_never_drops_final_attempt():
    cfg = FaultConfig(seed=3, drop_ack_rate=1.0)
    faults = FaultInjector(cfg)
    assert faults.drop_bank_ack(0, 0, 0, attempt=0)
    assert not faults.drop_bank_ack(0, 0, 0,
                                    attempt=cfg.max_ack_retries)


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
# Watchdogs: a retry chain past its bound aborts with a typed
# ProtocolError instead of hanging the simulation.
# ----------------------------------------------------------------------
WATCHDOGS = [
    ("flush_epoch_resends", dict(drop_flush_epoch_rate=0.5),
     "FlushEpoch retry chain"),
    ("persist_cmp_resends", dict(drop_persist_cmp_rate=0.5),
     "PersistCMP retry chain"),
    ("persist_ack_resends", dict(drop_persist_ack_rate=0.5),
     "PersistAck retry chain"),
    ("torn_write_retries", dict(torn_write_rate=0.5),
     "torn-write rewrite chain"),
]


@pytest.mark.parametrize("method,knobs,message", WATCHDOGS,
                         ids=[w[0] for w in WATCHDOGS])
def test_watchdog_aborts_runaway_retry_chain(monkeypatch, method, knobs,
                                             message):
    monkeypatch.setattr(FaultInjector, method, lambda self, *args: 99)
    probe = _run_probe(SPEC, FaultConfig(seed=SPEC.fault_seed, **knobs))
    assert probe.error is not None
    assert message in str(probe.error)
    # The watchdog aborts the run but still captures a partial image
    # the triage can sweep.
    assert probe.outcome.image is not None


def test_bank_ack_watchdog_rejects_attempts_past_bound():
    probe = run_baseline(
        CampaignSpec(workload="pingpong", num_cores=2, transactions=2,
                     mc_stride=2))
    machine = probe.machine
    faults = FaultInjector(FaultConfig(drop_ack_rate=0.5))
    flush_op = machine.arbiters[0]._flush_op
    flush_op._faults = faults
    with pytest.raises(ProtocolError, match="BankAck retry chain"):
        flush_op._send_bank_ack(
            0, delay=0, attempt=faults.config.max_ack_retries + 1)
