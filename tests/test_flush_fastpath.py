"""Edge cases of the pooled flush-handshake engine (core/flush.py).

The FlushOperation rework (pooled object, precomputed per-bank issue
schedules, batch MC writes) must preserve the Figure 8 handshake's
corner cases: degenerate empty banks, CLFLUSH invalidation, lines that
leave the caches mid-flush, and the single-BankAck-per-bank invariant.
"""

import types

import pytest

from repro.core.flush import _ACK_SENT, _ACKED, _ISSUE_DONE
from repro.sim.config import (
    BarrierDesign,
    FlushMode,
    MachineConfig,
    PersistencyModel,
)
from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.base import Program


def make_machine(num_cores=1, barrier_design=BarrierDesign.LB_PP,
                 **overrides):
    config = MachineConfig.tiny(
        num_cores=num_cores,
        barrier_design=barrier_design,
        persistency=PersistencyModel.BEP,
        **overrides,
    )
    return Multicore(config, track_persist_order=True)


# ----------------------------------------------------------------------
# BankAck single-shot invariant (the _bank_ack double-count regression)
# ----------------------------------------------------------------------
def test_bank_never_acks_twice():
    """A second BankAck from one bank must raise, not corrupt the ack
    count (the pre-rework flag guard silently allowed a double count if
    a degenerate-bank ack raced a late outstanding-drained ack)."""
    m = make_machine()
    op = m.arbiters[0]._flush_op
    op._bank_state[0] = _ACKED
    with pytest.raises(RuntimeError, match="second BankAck"):
        op._bank_ack(0)


def test_schedule_bank_ack_is_idempotent():
    """Once a bank's ack is sent (virtually delivered, in the fault-free
    path), further schedule requests are no-ops: exactly one ack per
    bank, counted exactly once."""
    m = make_machine()
    op = m.arbiters[0]._flush_op
    op._engine = types.SimpleNamespace(now=0)
    op._epoch = types.SimpleNamespace(core_id=0)
    op._acks_received = 0
    op._ack_deadline = 0
    op._bank_state[1] = _ISSUE_DONE
    op._schedule_bank_ack(1)
    assert op._bank_state[1] == _ACKED
    assert op._acks_received == 1
    assert op._ack_deadline == m.mesh.c2b[0][1]
    op._schedule_bank_ack(1)  # late duplicate: outstanding hit zero again
    op._schedule_bank_ack(1)
    assert op._acks_received == 1


def test_begin_while_inflight_raises():
    """The pooled operation refuses to be recycled mid-flush."""
    m = make_machine()
    op = m.arbiters[0]._flush_op
    op._epoch = sentinel = types.SimpleNamespace(core_id=0)
    with pytest.raises(RuntimeError, match="still in flight"):
        op.begin(sentinel)


# ----------------------------------------------------------------------
# Degenerate empty banks
# ----------------------------------------------------------------------
def test_empty_bank_acks_and_epoch_persists():
    """A bank holding none of the epoch's lines still participates in
    the handshake (Figure 7: no bank may act on local knowledge), via
    the immediate-ack degenerate path."""
    m = make_machine(llc_banks=2)
    p = Program()
    # Stride 128 keeps every line in bank 0; bank 1 flushes nothing.
    lines = [0x1000 + i * 128 for i in range(6)]
    for line in lines:
        p.store(line, 8)
    p.barrier()
    result = m.run([p])
    assert result.cycles_durable is not None
    persisted = {r.line for r in m.image.history if r.kind == "data"}
    assert persisted == set(lines)
    m.audit()


def test_all_banks_empty_epoch_still_persists():
    """An epoch whose every line left the caches before the flush began
    (here: forced by removing them) completes through pure degenerate
    acks."""
    m = make_machine(barrier_design=BarrierDesign.LB_IDT)
    p = Program()
    lines = [0x1000 + i * 64 for i in range(4)]
    for line in lines:
        p.store(line, 8)
    m.run([p], max_cycles=30_000, drain=False)
    mgr = m.managers[0]
    epoch = next(e for e in mgr.window if e.lines)
    mgr.close_current()
    for line in list(epoch.lines):
        m.l1s[0].remove(line)
        for bank in m.llc_banks:
            bank.remove(line)
    m.arbiters[0].request_flush_upto(epoch, online=False)
    m.engine.run()
    assert epoch.persisted
    flush = m.stats.domain("flush")
    assert flush.get("flush_lines_already_inflight") == len(lines)


# ----------------------------------------------------------------------
# Line evicted mid-flush
# ----------------------------------------------------------------------
def test_line_evicted_midflush_is_discarded_not_reflushed():
    """A line that leaves both cache levels between the epoch recording
    it and the bank walker reaching it is skipped (its NVRAM write is
    in flight on the eviction path); the flush still completes and the
    remaining lines persist."""
    m = make_machine(barrier_design=BarrierDesign.LB_IDT)
    p = Program()
    lines = [0x1000 + i * 64 for i in range(6)]
    for line in lines:
        p.store(line, 8)
    m.run([p], max_cycles=30_000, drain=False)
    mgr = m.managers[0]
    epoch = next(e for e in mgr.window if e.lines)
    mgr.close_current()
    victim = lines[3]
    m.l1s[0].remove(victim)
    for bank in m.llc_banks:
        bank.remove(victim)
    m.arbiters[0].request_flush_upto(epoch, online=False)
    m.engine.run()
    assert epoch.persisted
    assert m.stats.domain("flush").get("flush_lines_already_inflight") == 1
    persisted = {r.line for r in m.image.history if r.kind == "data"}
    assert persisted == set(lines) - {victim}


# ----------------------------------------------------------------------
# CLFLUSH-mode invalidating flush
# ----------------------------------------------------------------------
def test_clflush_invalidates_all_cached_copies():
    m = make_machine(flush_mode=FlushMode.CLFLUSH)
    p = Program()
    lines = [0x1000 + i * 64 for i in range(4)]
    for line in lines:
        p.store(line, 8)
    p.barrier().compute(5000)
    m.run([p])
    for line in lines:
        assert m.l1s[0].lookup(line) is None
        for bank in m.llc_banks:
            assert bank.lookup(line) is None
    m.audit()


@pytest.mark.parametrize("track_values", [False, True])
@pytest.mark.parametrize("mode", [FlushMode.CLWB, FlushMode.CLFLUSH])
def test_flush_mode_digest_matches_reference(mode, track_values):
    """The batch flush path must be observationally identical to the
    reference engine in both flush modes, with and without value
    tracking (the two arms of flush_line_transition)."""

    def run():
        config = MachineConfig.tiny(
            num_cores=1,
            barrier_design=BarrierDesign.LB_PP,
            persistency=PersistencyModel.BEP,
            flush_mode=mode,
        )
        machine = Multicore(config, track_values=track_values)
        p = Program()
        for rnd in range(6):
            for i in range(8):
                p.store(0x1000 + i * 64, 8, value=("r", rnd, i))
            p.barrier()
            for i in range(8):
                p.load(0x1000 + i * 64)
        result = machine.run([p])
        return state_digest(machine, result)

    fast = run()
    with reference_mode():
        ref = run()
    assert fast == ref


# ----------------------------------------------------------------------
# Pooled-operation reuse
# ----------------------------------------------------------------------
def test_one_pooled_operation_serves_many_flushes():
    m = make_machine()
    op_before = m.arbiters[0]._flush_op
    p = Program()
    for epoch in range(5):
        for i in range(4):
            p.store(0x1000 + (epoch * 4 + i) * 64, 8)
        p.barrier()
    m.run([p])
    arb = m.arbiters[0]
    assert arb._flush_op is op_before  # never replaced
    assert arb.active is None and op_before.epoch is None  # fully recycled
    stats = m.stats.domain("arbiter0")
    flushes = stats.get("flushes_online") + stats.get("flushes_offline")
    assert flushes >= 5
    seqs = [r.epoch_seq for r in m.image.history if r.kind == "data"]
    assert seqs == sorted(seqs)  # reuse never reordered epochs
    m.audit()
