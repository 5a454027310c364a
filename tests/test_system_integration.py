"""Integration tests across the machine: coherence, values, stats."""

import pytest

from repro.core.epoch import EpochStatus
from repro.mem.cache import CacheEntry
from repro.sim.config import BarrierDesign, FlushMode, MachineConfig, PersistencyModel
from repro.system import Multicore
from repro.workloads.base import Program
from repro.workloads.micro import make_benchmark


def machine(track=True, **overrides):
    defaults = dict(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    defaults.update(overrides)
    config = MachineConfig.tiny(**defaults)
    return Multicore(config, track_values=track,
                     track_persist_order=track, keep_epoch_log=track)


def test_last_writer_value_reaches_nvram():
    m = machine()
    p0 = Program().store(0x1000, 8, value="first").barrier()
    p1 = Program().compute(3000).store(0x1000, 8, value="second").barrier()
    result = m.run([p0, p1])
    assert result.cycles_durable is not None
    assert m.image.values[0x1000] == {0: "second"}


def test_both_versions_of_shared_line_persist_in_order():
    """The IDT two-version case: the old version persists from the LLC
    with its own epoch before the new version persists."""
    m = machine(barrier_design=BarrierDesign.LB_IDT)
    p0 = Program().store(0x1000, 8, value="old").barrier()
    p0.store(0x5000, 8).barrier()
    p1 = Program().compute(3000).store(0x1000, 8, value="new").barrier()
    m.run([p0, p1])
    versions = [
        (r.core_id, r.epoch_seq) for r in m.image.history
        if r.line == 0x1000 and r.kind in ("data", "eviction")
    ]
    assert versions[0][0] == 0          # core 0's version first
    assert versions[-1][0] == 1         # core 1's version last
    assert m.image.values[0x1000] == {0: "new"}


def test_remote_dirty_forwarding_counted():
    # Under NP there is no persistence machinery: the writer's line stays
    # dirty in its L1 and the reader's miss must be forwarded from there.
    m = machine(persistency=PersistencyModel.NP)
    p0 = Program().store(0x1000, 8, value="x")
    p1 = Program().compute(3000).load(0x1000)
    result = m.run([p0, p1])
    assert result.stats.domain("llc").get("forwards") >= 1


def test_offsets_within_line_merge():
    m = machine()
    p = Program()
    p.store(0x1000, 8, value="a").store(0x1008, 8, value="b").barrier()
    m.run([p])
    assert m.image.values[0x1000] == {0: "a", 8: "b"}


def test_value_survives_clflush_and_reload():
    m = machine(flush_mode=FlushMode.CLFLUSH)
    p = Program().store(0x1000, 8, value="persisted").barrier()
    p.compute(5000).load(0x1000)
    result = m.run([p])
    # The reload missed everywhere and re-fetched from NVRAM.
    assert result.stats.domain("nvram").get("reads") >= 1
    entry = m.l1s[0].lookup(0x1000)
    assert entry is not None and entry.values == {0: "persisted"}


def test_mem_latency_recorded_per_core():
    m = machine()
    p = Program().load(0x9000).store(0x9000, 8).barrier()
    result = m.run([p])
    assert result.stats.domain("core0").count("mem_latency") >= 2
    # A cold load travels to NVRAM: latency must exceed the read latency.
    assert result.stats.domain("core0").maximum("mem_latency") >= 240


def test_many_threads_heavy_sharing_audits_clean():
    config = MachineConfig.small(
        num_cores=4, llc_banks=4, mesh_rows=2,
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    m = Multicore(config)
    shared = [0x8000 + i * 64 for i in range(4)]
    programs = []
    import random
    for tid in range(4):
        rng = random.Random(tid)
        p = Program()
        for i in range(150):
            addr = rng.choice(shared)
            if rng.random() < 0.5:
                p.store(addr, 8)
            else:
                p.load(addr)
            if i % 7 == 6:
                p.barrier()
        p.barrier()
        programs.append(p)
    result = m.run(programs)
    assert result.finished and result.cycles_durable is not None
    m.audit()


def test_np_and_bep_read_same_trace_identically():
    """Persistency must not change *memory semantics*, only timing:
    the final NVRAM value set after drain matches across models."""
    def final_values(model):
        m = machine(persistency=model)
        p0 = Program()
        p1 = Program()
        for i in range(20):
            p0.store(0x1000 + i * 64, 8, value=("a", i)).barrier()
            p1.store(0x9000 + i * 64, 8, value=("b", i)).barrier()
        m.run([p0, p1])
        # Force everything out for NP as well.
        return {
            line: vals
            for line, vals in m.image.values.items()
        }

    bep = final_values(PersistencyModel.BEP)
    for line, vals in bep.items():
        # BEP drained everything; each line carries its final token.
        assert vals
    sp = final_values(PersistencyModel.SP)
    assert sp == bep


def test_eviction_traffic_appears_under_pressure():
    # Plain LB keeps lines dirty until something forces them out, so a
    # working set overflowing the LLC produces dirty replacements (the
    # "natural evictions" that are LB's offline-persist mechanism).
    m = machine(barrier_design=BarrierDesign.LB, l1_size=512,
                llc_bank_size=2048, track=False)
    p = Program()
    for i in range(512):
        p.store(0x10000 + i * 64, 8)
        if i % 8 == 7:
            p.barrier()
    p.barrier()
    result = m.run([p])
    assert result.finished
    llc = result.stats.domain("llc")
    assert llc.get("dirty_evictions") > 0
    assert result.stats.domain("nvram").get("writes_eviction") == \
        llc.get("dirty_evictions")


def test_fill_race_reclassification_path():
    """Concurrent cold accesses to the same line from both cores force
    the fill-race reclassification at least occasionally."""
    m = machine(track=False)
    shared = [0x8000 + i * 64 for i in range(2)]
    p0 = Program()
    p1 = Program()
    for i in range(60):
        p0.store(shared[i % 2], 8).barrier()
        p1.load(shared[(i + 1) % 2])
        p1.store(shared[i % 2], 8).barrier()
    result = m.run([p0, p1])
    assert result.finished
    m.audit()


# ----------------------------------------------------------------------
# audit() must be able to fail: one planted corruption per check.
# ----------------------------------------------------------------------
def _unpersisted_machine():
    """Core 0 holds two closed epochs and one ongoing epoch, none of
    them persisted (LB flushes nothing without demand)."""
    m = machine(track=False, barrier_design=BarrierDesign.LB)
    p = Program().store(0x1000, 8).barrier().store(0x2000, 8).barrier()
    p.store(0x3000, 8)
    m.run([p, Program()], max_cycles=20_000, drain=False)
    assert [e.seq for e in m.managers[0].window] == [0, 1, 2]
    return m


def _swap_window_head(m):
    window = m.managers[0].window
    window[0], window[1] = window[1], window[0]


def _reopen_oldest_epoch(m):
    m.managers[0].window[0].status = EpochStatus.ONGOING


def _clear_current_slot(m):
    m.managers[0].current = None


def _close_current_behind_the_slot(m):
    m.managers[0].current.status = EpochStatus.COMPLETE


def _drop_line_from_every_cache(m):
    m.l1s[0].remove(0x1000)
    for bank in m.llc_banks:
        bank.remove(0x1000)


def _forget_written_line(m):
    m.managers[0].window[0].all_lines.clear()


def _add_sharer_beside_owner(m):
    m.directory.peek(0x1000).sharers.add(1)


def _empty_directory_entry(m):
    m.directory.peek(0x1000).sharers.clear()


def _forget_l1_copy(m):
    m.directory.drop_core(0x1000, 0)


def _drop_dirty_line_owner(m):
    m.directory.clear_owner(0x1000)


def _append_past_the_recency_hint(m):
    # A fill that skipped the hint write: a fresh line lands behind the
    # hinted one in 0x1000's LLC set, so a hit on the hinted line would
    # wrongly skip its move.
    bank = m.llc_banks[m.amap.bank_of(0x1000)]
    index = (0x1000 >> bank._offset_bits) & bank._set_mask
    cache_set = bank._sets[index]
    assert bank._mru[index] in cache_set
    line = 0x1000
    while line in cache_set:
        line += m.config.line_size * len(m.llc_banks) * bank.num_sets
    cache_set[line] = CacheEntry(line)


@pytest.mark.parametrize("plant, message", [
    (_swap_window_head, "window out of order"),
    (_reopen_oldest_epoch, "is not the current window tail"),
    (_clear_current_slot, "is not the current window tail"),
    (_close_current_behind_the_slot, "is not the ongoing window tail"),
    (_drop_line_from_every_cache, "no cache holds it"),
    (_forget_written_line, "missing from its all_lines"),
    (_add_sharer_beside_owner, "is not its sole sharer"),
    (_empty_directory_entry, "empty directory entry"),
    (_forget_l1_copy, "does not record it as a sharer"),
    (_drop_dirty_line_owner, "dirty but the directory's owner is None"),
    (_append_past_the_recency_hint, "stale recency hint"),
], ids=["window_order", "ongoing_not_tail", "ongoing_not_current",
        "stale_current_slot", "line_in_no_cache", "tracked_not_written",
        "owner_not_sole_sharer", "empty_directory_entry",
        "l1_copy_not_a_sharer", "dirty_line_not_owned",
        "stale_recency_hint"])
def test_audit_flags_planted_corruption(plant, message):
    m = _unpersisted_machine()
    m.audit()
    plant(m)
    with pytest.raises(AssertionError, match=message):
        m.audit()


# ----------------------------------------------------------------------
# Coherence under contention: 4-core pingpong, every transaction
# conflicting, one LLC bank per tile on a 2-row mesh.
# ----------------------------------------------------------------------
def _contended_pingpong(design, flush_mode, **machine_kwargs):
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP, barrier_design=design,
        flush_mode=flush_mode, num_cores=4, llc_banks=4, mesh_rows=2,
    )
    programs = [
        make_benchmark("pingpong", thread_id=tid, seed=3,
                       line_size=config.line_size,
                       conflict_rate=1.0).ops(30)
        for tid in range(4)
    ]
    return Multicore(config, **machine_kwargs), programs


@pytest.mark.parametrize("design, flush_mode, cut", [
    (BarrierDesign.LB_PP, FlushMode.CLWB, 1250),
    (BarrierDesign.LB, FlushMode.CLFLUSH, 3000),
])
def test_memory_fill_store_invalidates_a_late_sharer(design, flush_mode,
                                                     cut):
    """A core that loads a line while a store's read of it is at the
    memory controller loses its copy when the fill grants the store M,
    so every L1 copy stays recorded in the directory."""
    m, programs = _contended_pingpong(design, flush_mode)
    m.run(programs, max_cycles=cut, drain=False)
    m.audit()


@pytest.mark.parametrize("design", [BarrierDesign.LB_IDT,
                                    BarrierDesign.LB_PP])
def test_clflush_keeps_a_newer_dirty_version(design):
    """An invalidating flush of an LLC-resident version leaves another
    core's newer dirty L1 version in place, so every line of every
    retired epoch reaches NVRAM under that epoch."""
    m, programs = _contended_pingpong(design, FlushMode.CLFLUSH,
                                      track_persist_order=True,
                                      keep_epoch_log=True)
    result = m.run(programs)
    assert result.cycles_durable is not None
    m.audit()
    persisted = {(r.line, r.core_id, r.epoch_seq) for r in m.image.history}
    lines = [
        (line, epoch.core_id, epoch.seq)
        for mgr in m.managers for epoch in mgr.retired
        for line in epoch.all_lines
    ]
    assert len(lines) == 1212
    assert [key for key in lines if key not in persisted] == []
