"""Tests for the exhaustive crash-point sweep (recovery/crashsweep.py).

Positive direction: one captured run of each representative workload is
consistent at *every* truncation point of its persist history, and the
incremental sweep's verdict matches the brute-force truncate-and-recheck
oracle exactly.  Negative direction: hand-mutated histories -- a line
reordered across epochs, a deleted IDT-source persist, a torn BSP epoch
stripped of its undo-log entries -- must each make the sweep raise.
"""

import pytest

from repro.mem.nvram import NVRAMImage
from repro.recovery import (
    ConsistencyViolation,
    capture_run,
    sweep_crash_points,
    sweep_reference,
    truncate_outcome,
)
from repro.recovery.crash import CrashOutcome
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.micro import QueueWorkload, make_benchmark


def tracking_machine(config):
    return Multicore(config, track_values=True, track_persist_order=True,
                     keep_epoch_log=True)


def queue_outcome(model=PersistencyModel.BEP, transactions=10, seed=1,
                  **overrides):
    # capacity=32 keeps the setup phase (capacity // 4 inserts) short:
    # the truncate-and-recheck oracle's per-point predecessor walk is
    # cubic in the single-core epoch-chain length, and the bench already
    # times full-size runs.
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP, persistency=model, **overrides
    )
    queue = QueueWorkload(thread_id=0, seed=seed, capacity=32)
    outcome = capture_run(
        tracking_machine(config), [queue.ops(transactions)]
    )
    return outcome, queue


def pingpong_outcome(design, transactions=6, seed=3):
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP, barrier_design=design,
        num_cores=4, llc_banks=4, mesh_rows=2,
    )
    programs = [
        list(make_benchmark("pingpong", thread_id=tid, seed=seed,
                            line_size=config.line_size,
                            conflict_rate=1.0).ops(transactions))
        for tid in range(4)
    ]
    return capture_run(tracking_machine(config), programs)


def bsp_stream_outcome(transactions=40, bsp_epoch_stores=50):
    """perfbench's bsp_stream shape -- one-core pingpong under BSP and
    LB++ -- with a store quota small enough that a hardware epoch
    closes every five transactions.  Built in fast mode whatever
    REPRO_SLOW_ENGINE says, so the history comes from fast-forward
    sessions."""
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP, num_cores=1,
        bsp_epoch_stores=bsp_epoch_stores,
    )
    with reference_mode(False):
        machine = tracking_machine(config)
    program = make_benchmark("pingpong", thread_id=0, seed=1,
                             line_size=config.line_size).ops(transactions)
    return capture_run(machine, [program]), machine


def mutated(outcome, history, history_values, history_log=None):
    """An outcome over a hand-edited history (same epoch ground truth)."""
    image = NVRAMImage(track_order=True)
    image.history = history
    image.history_values = history_values
    image.history_log = history_log if history_log is not None else {}
    return CrashOutcome(crash_cycle=outcome.crash_cycle, image=image,
                        epochs=outcome.epochs)


# ----------------------------------------------------------------------
# Positive: every truncation point of a real run is accepted, and the
# incremental sweep agrees with the truncate-and-recheck oracle
# ----------------------------------------------------------------------
def test_sweep_accepts_every_queue_crash_point():
    outcome, queue = queue_outcome()
    report = sweep_crash_points(outcome, queues=[queue])
    assert report.ok
    assert report.points == report.history_len + 1
    assert report.data_persists > 0
    assert report.queue_checks > 0
    oracle = sweep_reference(outcome, queues=[queue], stride=1)
    assert report.merge_key() == oracle.merge_key()
    assert report.data_persists == oracle.data_persists


@pytest.mark.parametrize(
    "design", [BarrierDesign.LB, BarrierDesign.LB_PP]
)
def test_sweep_accepts_contended_pingpong(design):
    """The ROADMAP item: the 4-core pingpong's IDT edges and
    deadlock-avoidance splits survive a crash at *every* persist."""
    outcome = pingpong_outcome(design)
    report = sweep_crash_points(outcome)
    assert report.ok
    assert report.history_len > 100
    oracle = sweep_reference(outcome, stride=1)
    assert report.merge_key() == oracle.merge_key()
    assert report.data_persists == oracle.data_persists


def test_sweep_bsp_undo_coverage_all_points():
    outcome, _ = queue_outcome(model=PersistencyModel.BSP,
                               bsp_epoch_stores=30, transactions=8)
    report = sweep_crash_points(outcome, bsp=True)
    assert report.ok and report.bsp_checked
    assert any(r.kind == "log" for r in outcome.image.history)
    oracle = sweep_reference(outcome, bsp=True, stride=1)
    assert report.merge_key() == oracle.merge_key()


def test_sweep_bsp_stream_all_points():
    # The queue's BSP sessions mostly refuse under undo logging; on the
    # streaming shape sessions drain three stores in four, lending the
    # clock to the loads, markers and ignored barriers between them,
    # while hardware epochs close, checkpoint and persist.
    outcome, machine = bsp_stream_outcome()
    core = machine.cores[0]
    assert 4 * core.ff_stores > 3 * machine.stats.total("stores")
    assert machine.stats.total("hw_barriers") >= 8
    report = sweep_crash_points(outcome, bsp=True)
    assert report.ok and report.bsp_checked
    assert any(r.kind == "log" for r in outcome.image.history)
    oracle = sweep_reference(outcome, bsp=True, stride=1)
    assert report.merge_key() == oracle.merge_key()
    assert report.data_persists == oracle.data_persists


def test_sweep_requires_replay_payloads():
    outcome, _ = queue_outcome(transactions=2)
    bare = mutated(outcome, list(outcome.image.history), [])
    with pytest.raises(ValueError):
        sweep_crash_points(bare)


# ----------------------------------------------------------------------
# truncate_outcome: the oracle's image reconstruction is exact
# ----------------------------------------------------------------------
def test_truncate_at_endpoints_matches_live_image():
    outcome, _ = queue_outcome(model=PersistencyModel.BSP,
                               bsp_epoch_stores=30, transactions=6)
    full = truncate_outcome(outcome, len(outcome.image.history))
    assert full.image.values == outcome.image.values
    assert full.image.last_persist == outcome.image.last_persist
    assert full.image.log_entries == outcome.image.log_entries
    assert full.image.persist_count == outcome.image.persist_count
    empty = truncate_outcome(outcome, 0)
    assert not empty.image.values
    assert not empty.image.log_entries
    assert empty.crash_cycle == 0
    with pytest.raises(ValueError):
        truncate_outcome(outcome, len(outcome.image.history) + 1)


def test_epochs_of_core_indexed_once_and_sorted():
    outcome = pingpong_outcome(BarrierDesign.LB, transactions=3)
    for core_id in range(4):
        records = outcome.epochs_of_core(core_id)
        assert records == sorted(records, key=lambda r: r.seq)
        assert all(r.core_id == core_id for r in records)
        assert records is outcome.epochs_of_core(core_id)  # cached
    assert outcome.epochs_of_core(99) == []


# ----------------------------------------------------------------------
# Negative: hand-mutated histories are rejected
# ----------------------------------------------------------------------
def test_sweep_rejects_line_reordered_across_epochs():
    """Swap a later epoch's first persist before an earlier epoch of
    the same core completes: the Figure 7 violation."""
    outcome, queue = queue_outcome()
    history = list(outcome.image.history)
    values = list(outcome.image.history_values)
    by_key = {}
    for pos, record in enumerate(history):
        if record.kind == "data" and record.epoch_seq >= 0:
            by_key.setdefault((record.core_id, record.epoch_seq),
                              []).append(pos)
    swap = None
    for (core, seq), positions in sorted(by_key.items()):
        nxt = by_key.get((core, seq + 1))
        if len(positions) >= 2 and nxt:
            swap = (positions[0], nxt[0])
            break
    assert swap is not None, "no multi-line epoch followed by another"
    i, j = swap
    history[i], history[j] = history[j], history[i]
    values[i], values[j] = values[j], values[i]
    bad = mutated(outcome, history, values)
    with pytest.raises(ConsistencyViolation, match="persisted before"):
        sweep_crash_points(bad, queues=[queue])
    report = sweep_crash_points(bad, queues=[queue],
                                raise_on_violation=False)
    oracle = sweep_reference(bad, queues=[queue], stride=1,
                             raise_on_violation=False)
    assert not report.ok
    assert report.first_violation == i + 1
    assert report.merge_key() == oracle.merge_key()


def test_sweep_rejects_missing_idt_source_persists():
    """Delete every persist of an IDT source epoch: its dependents now
    persist before it, which must trip the cross-core edge check."""
    outcome = pingpong_outcome(BarrierDesign.LB_PP)
    victim = None
    for record in outcome.epochs.values():
        for source in record.source_keys:
            source_record = outcome.epochs.get(source)
            if source_record is not None and source_record.all_lines:
                victim = source
                break
        if victim:
            break
    assert victim is not None, "contended pingpong grew no IDT edges"
    history, values = [], []
    for pos, record in enumerate(outcome.image.history):
        if ((record.core_id, record.epoch_seq) == victim
                and record.kind in ("data", "eviction")):
            continue
        history.append(record)
        values.append(outcome.image.history_values[pos])
    bad = mutated(outcome, history, values)
    with pytest.raises(ConsistencyViolation, match="persisted before"):
        sweep_crash_points(bad)


def test_sweep_rejects_torn_bsp_epoch_without_undo_entries():
    """Strip the undo-log persists from a BSP history: the first
    partially-durable multi-line epoch is now unrecoverable."""
    outcome, _ = queue_outcome(model=PersistencyModel.BSP,
                               bsp_epoch_stores=30, transactions=8)
    history, values = [], []
    for pos, record in enumerate(outcome.image.history):
        if record.kind == "log":
            continue
        history.append(record)
        values.append(outcome.image.history_values[pos])
    assert len(history) < len(outcome.image.history), "no log records"
    bad = mutated(outcome, history, values, history_log={})
    with pytest.raises(ConsistencyViolation, match="undo-log"):
        sweep_crash_points(bad, bsp=True)
    # The same history passes without the BSP check: tearing is an
    # undo-coverage property, not an ordering one.
    assert sweep_crash_points(bad).ok
