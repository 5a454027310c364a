"""Campaign driver tests: triage verdicts, coordinate purity across
engines and core counts, the 1-minimizer, and the reorder-window
self-test that proves the oracle still catches unsound faults."""

import shlex

import pytest

from repro.recovery.campaign import (
    ABORTED_CLEAN,
    SURVIVED,
    VIOLATION,
    CampaignSpec,
    campaign_selftest,
    enumerate_points,
    minimize_inject,
    repro_command,
    run_baseline,
    run_campaign,
    triage,
)
from repro.sim.engine import reference_mode
from repro.sim.faults import FaultInjector


SPEC = CampaignSpec(workload="pingpong", num_cores=2, transactions=3,
                    mc_stride=4)


# ----------------------------------------------------------------------
# Exhaustive campaign + coordinate purity
# ----------------------------------------------------------------------
def exhaustive(spec, **kwargs):
    return run_campaign(spec, exhaustive=True, random_rounds=2, **kwargs)


def test_single_fault_campaign_survives_and_is_engine_pure():
    fast = exhaustive(SPEC)
    assert fast.ok
    assert not fast.violations
    assert fast.survived + fast.aborted == len(fast.entries)
    with reference_mode():
        ref = exhaustive(SPEC)
    assert fast.verdict_map() == ref.verdict_map()


def test_campaign_verdicts_pure_across_core_counts():
    spec4 = CampaignSpec(workload="pingpong", num_cores=4, transactions=3,
                         mc_stride=4)
    fast = exhaustive(spec4, max_points=60)
    assert fast.ok
    with reference_mode():
        ref = exhaustive(spec4, max_points=60)
    assert fast.verdict_map() == ref.verdict_map()


def test_queue_campaign_checks_bytes_and_survives():
    spec = CampaignSpec(workload="queue", transactions=3, mc_stride=8)
    report = run_campaign(spec, exhaustive=True, random_rounds=1,
                          max_points=40)
    assert report.ok
    assert all(entry.verdict == SURVIVED for entry in report.entries)


def test_campaign_max_points_caps_enumeration():
    report = run_campaign(SPEC, exhaustive=True, max_points=10)
    assert len(report.entries) == 10


# ----------------------------------------------------------------------
# Triage verdicts
# ----------------------------------------------------------------------
def test_triage_watchdog_abort_is_aborted_clean(monkeypatch):
    # A retry chain past the bound trips the ProtocolError watchdog;
    # the partial image must still pass the crash sweep -> aborted-clean.
    monkeypatch.setattr(FaultInjector, "flush_epoch_resends",
                        lambda self, *args: 99)
    baseline = run_baseline(SPEC)
    point = next(p for p in enumerate_points(SPEC, baseline)
                 if p.leg == "flush_epoch_drop")
    entry = triage(SPEC, ((point.leg, point.coords),), None)
    assert entry.verdict == ABORTED_CLEAN
    assert "ProtocolError" in entry.detail or "retry chain" in entry.detail


def test_selftest_reorder_window_is_flagged_with_repro():
    entry = campaign_selftest(SPEC)
    assert entry.verdict == VIOLATION
    assert "--reorder-window" in entry.repro
    assert "python -m repro campaign" in entry.repro


def test_selftest_verdict_matches_in_reference_mode():
    fast = campaign_selftest(SPEC)
    with reference_mode():
        ref = campaign_selftest(SPEC)
    assert fast.verdict == ref.verdict == VIOLATION


# ----------------------------------------------------------------------
# Repro command round trip
# ----------------------------------------------------------------------
def test_repro_command_round_trips_through_cli():
    from repro.__main__ import main

    entry = campaign_selftest(SPEC)
    argv = shlex.split(entry.repro)
    assert argv[:3] == ["python", "-m", "repro"]
    # The reproduced run must flag the same violation: exit 0 only
    # because we pass --expect-violation.
    assert main(argv[3:] + ["--expect-violation", "--quiet"]) == 0
    assert main(argv[3:] + ["--quiet"]) == 1


def test_targeted_repro_command_mentions_each_fault():
    inject = (("bank_ack_drop", (0, 1, 2)), ("mc_stall", (1, 8)))
    cmd = repro_command(SPEC, inject)
    assert "--inject bank_ack_drop:0,1,2" in cmd
    assert "--inject mc_stall:1,8" in cmd
    assert f"--cores {SPEC.num_cores}" in cmd


# ----------------------------------------------------------------------
# Minimizer
# ----------------------------------------------------------------------
def test_minimize_keeps_only_necessary_faults():
    inject = (("leg_a", (0,)), ("leg_b", (1,)), ("leg_c", (2,)))

    def still_fails(trial):
        return any(leg == "leg_b" for leg, _ in trial)

    assert minimize_inject(inject, still_fails) == (("leg_b", (1,)),)


def test_minimize_keeps_interacting_pair():
    inject = (("leg_a", (0,)), ("leg_b", (1,)), ("leg_c", (2,)))

    def still_fails(trial):
        legs = {leg for leg, _ in trial}
        return {"leg_a", "leg_c"} <= legs

    assert minimize_inject(inject, still_fails) == \
        (("leg_a", (0,)), ("leg_c", (2,)))


def test_minimize_single_fault_is_identity():
    inject = (("leg_a", (0,)),)
    assert minimize_inject(inject, lambda trial: True) == inject
