"""Tests pinning down *when* stores are tagged with epochs.

Condit et al.'s design (which the paper builds on) tags a store with
the epoch ID current when the store completes at the L1.  Persist
barriers therefore travel through the write buffer as markers, and an
epoch can only close once every one of its stores has reached the L1 --
the property that makes closed epochs immediately flushable and the
split-based deadlock-avoidance argument sound (see
repro/cpu/processor.py).
"""

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.base import Program


def machine(**overrides):
    defaults = dict(
        barrier_design=BarrierDesign.LB,
        persistency=PersistencyModel.BEP,
    )
    defaults.update(overrides)
    return Multicore(MachineConfig.tiny(**defaults), keep_epoch_log=True)


def epoch_store_counts(m):
    counts = {}
    for mgr in m.managers:
        for epoch in mgr.retired + mgr.window:
            if epoch.num_stores:
                counts[(epoch.core_id, epoch.seq)] = epoch.num_stores
    return counts


def test_stores_land_in_their_program_order_epochs():
    m = machine()
    p = Program()
    for i in range(3):
        p.store(0x1000 + i * 64, 8)
    p.barrier()
    for i in range(2):
        p.store(0x5000 + i * 64, 8)
    p.barrier()
    m.run([p])
    counts = epoch_store_counts(m)
    assert counts == {(0, 0): 3, (0, 1): 2}


def test_rapid_barriers_respected_despite_buffered_stores():
    """Barriers issued while earlier stores are still draining must not
    leak stores across epochs."""
    m = machine(nvram_read_latency=1)  # keep it quick
    p = Program()
    for i in range(12):
        p.store(0x1000 + i * 64, 8)
        p.barrier()
    m.run([p])
    counts = epoch_store_counts(m)
    assert len(counts) == 12
    assert all(v == 1 for v in counts.values())


def test_epoch_completes_only_after_last_store_drains():
    m = machine()
    seen = []
    mgr = m.managers[0]
    original_hook = mgr.completion_hook

    def hook(epoch):
        # At completion every store of this epoch has retired into it.
        seen.append((epoch.seq, epoch.num_stores))
        original_hook(epoch)

    mgr.completion_hook = hook
    p = Program()
    for i in range(16):
        p.store(0x1000 + (i % 4) * 64, 8)
    p.barrier()
    p.store(0x5000, 8)
    p.barrier()
    m.run([p])
    assert seen == [(0, 16), (1, 1)]


def test_bsp_hardware_epoch_sizes_counted_at_drain():
    m = Multicore(
        MachineConfig.tiny(
            barrier_design=BarrierDesign.LB_PP,
            persistency=PersistencyModel.BSP, bsp_epoch_stores=10,
        ),
        keep_epoch_log=True,
    )
    p = Program()
    for i in range(35):
        p.store(0x1000 + (i % 16) * 64, 8)
    m.run([p])
    counts = epoch_store_counts(m)
    sizes = [counts[k] for k in sorted(counts)]
    # 35 stores at 10 per epoch: 10, 10, 10, 5.
    assert sizes == [10, 10, 10, 5]


def test_loads_do_not_affect_epoch_membership():
    m = machine()
    p = Program()
    p.store(0x1000, 8)
    for i in range(8):
        p.load(0x2000 + i * 64)
    p.store(0x1040, 8)
    p.barrier()
    m.run([p])
    counts = epoch_store_counts(m)
    assert counts == {(0, 0): 2}


_X, _Y = 0x1000, 0x2000


def _split_with_a_store_in_flight(reference):
    """Core 0 stores X, then Y, which misses to the memory controller;
    core 1's load of X meanwhile splits core 0's ongoing epoch (LB++
    records the IDT edge on the completed prefix).  Returns the machine,
    its result, and what the prefix held and which store headed core
    0's write buffer when the split came."""
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
        num_cores=2,
    )
    with reference_mode(reference):
        m = Multicore(config, keep_epoch_log=True)
    mgr = m.managers[0]
    at_split = []
    split_epoch = mgr.split_epoch

    def split(epoch):
        at_split.append((m.cores[0].wb[0].addr, set(epoch.all_lines),
                         set(epoch.lines), epoch.num_stores))
        return split_epoch(epoch)

    mgr.split_epoch = split
    result = m.run([Program().store(_X).store(_Y).barrier(),
                    Program().compute(300).load(_X)])
    return m, result, at_split


def test_store_in_flight_at_a_split_lands_in_the_remainder():
    """Section 3.3: a store in flight when its epoch splits has not
    completed, so it belongs to the remainder, and the prefix keeps
    exactly what it held at the split.  Both engine modes, one digest."""
    digests = []
    for reference in (False, True):
        m, result, at_split = _split_with_a_store_in_flight(reference)
        assert result.finished
        # One split, with X retired into the prefix and Y still heading
        # the write buffer, applied to no epoch yet.
        assert at_split == [(_Y, {_X}, {_X}, 1)]
        prefix, remainder = m.managers[0].retired
        assert remainder.seq == prefix.seq + 1
        assert result.stats.total("epoch_splits") == 1
        assert (prefix.all_lines, prefix.num_stores) == ({_X}, 1)
        assert (remainder.all_lines, remainder.num_stores) == ({_Y}, 1)
        # The load's IDT edge sits on the prefix.
        assert m.managers[1].current.all_sources == {prefix.key}
        digests.append(state_digest(m, result))
    assert digests[0] == digests[1]
