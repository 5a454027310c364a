"""Tests for the deterministic fault-injection layer (sim/faults.py).

The injector's decisions must be pure functions of the seed and stable
simulated coordinates (so both engine modes fault identically); the
BankAck drop/retry path must always make forward progress; and every
fault knob must leave a visible counter trail.  The deliberately
unsound reorder fault is the checker self-test: the crash sweep must
catch it.
"""

import pytest

from repro.core.flush import ProtocolError, _ACKED
from repro.recovery import (
    ConsistencyViolation,
    capture_run,
    sweep_crash_points,
)
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.sim.faults import FaultConfig, FaultInjector
from repro.system import Multicore
from repro.workloads.micro import QueueWorkload


def queue_run(faults=None, transactions=12, seed=1, **machine_kwargs):
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    queue = QueueWorkload(thread_id=0, seed=seed, capacity=32)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, faults=faults,
                        **machine_kwargs)
    result = machine.run([queue.ops(transactions)])
    return machine, result, queue


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
def test_decisions_are_deterministic_and_coordinate_keyed():
    config = FaultConfig(seed=42, drop_ack_rate=0.5, delay_ack_rate=0.5,
                         mc_stall_rate=0.5)
    a = FaultInjector(config)
    b = FaultInjector(config)
    decisions = [
        (a.drop_bank_ack(c, bk, s, 0), a.bank_ack_detour(c, bk, s, 0),
         a.mc_stall(c, s))
        for c in range(4) for bk in range(4) for s in range(16)
    ]
    replayed = [
        (b.drop_bank_ack(c, bk, s, 0), b.bank_ack_detour(c, bk, s, 0),
         b.mc_stall(c, s))
        for c in range(4) for bk in range(4) for s in range(16)
    ]
    assert decisions == replayed
    # A 50% rate over 256 coordinate triples must actually vary.
    drops = [d for d, _, _ in decisions]
    assert any(drops) and not all(drops)
    # A different seed flips some decisions.
    other = FaultInjector(FaultConfig(seed=43, drop_ack_rate=0.5))
    assert any(
        a.drop_bank_ack(c, bk, s, 0) != other.drop_bank_ack(c, bk, s, 0)
        for c in range(4) for bk in range(4) for s in range(16)
    )


def test_retry_bound_guarantees_delivery():
    injector = FaultInjector(FaultConfig(drop_ack_rate=1.0,
                                         max_ack_retries=3))
    assert injector.drop_bank_ack(0, 0, 5, 0)
    assert injector.drop_bank_ack(0, 0, 5, 2)
    assert not injector.drop_bank_ack(0, 0, 5, 3)  # at the bound
    assert not injector.drop_bank_ack(0, 0, 5, 7)


def test_zero_rates_fault_nothing():
    injector = FaultInjector(FaultConfig(seed=9))
    assert not any(
        injector.drop_bank_ack(c, b, s, 0)
        or injector.bank_ack_detour(c, b, s, 0)
        or injector.mc_stall(c, s)
        for c in range(4) for b in range(4) for s in range(32)
    )


# ----------------------------------------------------------------------
# Wiring: faulted runs complete and leave a counter trail
# ----------------------------------------------------------------------
def test_all_zero_fault_config_is_digest_neutral():
    machine, result, _ = queue_run()
    baseline = state_digest(machine, result)
    faulted, result2, _ = queue_run(faults=FaultConfig())
    assert state_digest(faulted, result2) == baseline


def test_certain_ack_drop_completes_via_bounded_retries():
    machine, result, _ = queue_run(
        faults=FaultConfig(seed=5, drop_ack_rate=1.0)
    )
    assert result.finished
    assert result.cycles_durable is not None
    drops = result.stats.total("flush_ack_drops")
    retries = result.stats.total("flush_ack_retries")
    assert drops > 0 and drops == retries


def test_delay_and_stall_faults_count_and_slow_the_run():
    _, clean, _ = queue_run()
    machine, result, _ = queue_run(
        faults=FaultConfig(seed=5, delay_ack_rate=0.5, mc_stall_rate=0.3,
                           mc_stall_cycles=200)
    )
    assert result.finished
    assert result.stats.total("flush_ack_delays") > 0
    stalls = result.stats.total("fault_stalls")
    assert stalls > 0
    assert result.stats.total("fault_stall_cycles") == stalls * 200
    assert result.cycles_durable > clean.cycles_durable


def test_fault_digest_parity_fast_vs_reference():
    config = FaultConfig(seed=7, drop_ack_rate=0.3, delay_ack_rate=0.2,
                         mc_stall_rate=0.1)
    machine, result, _ = queue_run(faults=config)
    digest = state_digest(machine, result)
    with reference_mode():
        ref_machine, ref_result, _ = queue_run(faults=config)
        assert state_digest(ref_machine, ref_result) == digest


# ----------------------------------------------------------------------
# Protocol invariants stay hard errors
# ----------------------------------------------------------------------
def test_double_bank_ack_is_a_protocol_error():
    machine, _, _ = queue_run()
    op = machine.arbiters[0]._flush_op
    op._bank_state[0] = _ACKED
    with pytest.raises(ProtocolError, match="second BankAck"):
        op._bank_ack(0)


def test_orphan_ack_timeout_is_a_protocol_error():
    machine, _, _ = queue_run(
        faults=FaultConfig(seed=5, drop_ack_rate=0.5)
    )
    op = machine.arbiters[0]._flush_op
    with pytest.raises(ProtocolError, match="timeout"):
        op._ack_timeout(0, 0)  # no flush in flight


# ----------------------------------------------------------------------
# The unsound reorder fault: the checker self-test
# ----------------------------------------------------------------------
def test_reorder_fault_is_caught_by_the_sweep():
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    queue = QueueWorkload(thread_id=0, seed=1, capacity=32)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True,
                        faults=FaultConfig(reorder_window=6))
    outcome = capture_run(machine, [queue.ops(12)])
    with pytest.raises(ConsistencyViolation):
        sweep_crash_points(outcome, queues=[queue])
    report = sweep_crash_points(outcome, queues=[queue],
                                raise_on_violation=False)
    assert not report.ok and report.first_violation is not None
