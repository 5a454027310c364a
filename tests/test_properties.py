"""Property-based tests over the whole machine.

Random multi-threaded programs, random barrier designs, random crash
points: the machine must terminate, keep its internal invariants
(:meth:`Multicore.audit`), and leave NVRAM consistent with epoch
happens-before order at every crash point.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import SetAssociativeCache
from repro.recovery import check_epoch_order
from repro.recovery.crash import CrashOutcome, snapshot_epochs
from repro.sim.config import (
    BarrierDesign, FlushMode, MachineConfig, PersistencyModel,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain
from repro.system import Multicore
from repro.workloads.base import Program

DESIGNS = list(BarrierDesign)


def random_programs(rng, num_threads, ops_per_thread, shared_lines=6,
                    private_lines=24, barrier_prob=0.12):
    """Programs mixing private and shared traffic with random barriers."""
    shared = [0x8000 + i * 64 for i in range(shared_lines)]
    programs = []
    for tid in range(num_threads):
        private = [0x100000 * (tid + 1) + i * 64 for i in range(private_lines)]
        p = Program()
        for _ in range(ops_per_thread):
            pool = shared if rng.random() < 0.3 else private
            addr = rng.choice(pool)
            roll = rng.random()
            if roll < 0.5:
                p.store(addr, 8, value=(tid, rng.randrange(1000)))
            elif roll < 0.85:
                p.load(addr)
            else:
                p.compute(rng.randrange(60))
            if rng.random() < barrier_prob:
                p.barrier()
        p.barrier()
        programs.append(p)
    return programs


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    design_index=st.integers(0, len(DESIGNS) - 1),
    flush_mode=st.sampled_from(list(FlushMode)),
    cut_cycle=st.integers(100, 20_000),
)
def test_random_bep_runs_terminate_and_audit(seed, design_index,
                                             flush_mode, cut_cycle):
    config = MachineConfig.tiny(
        barrier_design=DESIGNS[design_index],
        persistency=PersistencyModel.BEP,
        flush_mode=flush_mode,
    )
    m = Multicore(config)
    result = m.run(random_programs(random.Random(seed), 2, 60))
    assert result.finished
    assert result.cycles_durable is not None
    m.audit()
    # After a full drain every closed epoch has persisted.
    for mgr in m.managers:
        for epoch in mgr.window:
            assert epoch.ongoing and epoch.num_stores == 0
    # The invariants hold mid-run too: the same run, cut short.
    m = Multicore(config)
    m.run(random_programs(random.Random(seed), 2, 60),
          max_cycles=cut_cycle, drain=False)
    m.audit()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    design_index=st.integers(0, len(DESIGNS) - 1),
    crash_cycle=st.integers(100, 40_000),
)
def test_random_crashes_leave_consistent_nvram(seed, design_index,
                                               crash_cycle):
    rng = random.Random(seed)
    config = MachineConfig.tiny(
        barrier_design=DESIGNS[design_index],
        persistency=PersistencyModel.BEP,
    )
    m = Multicore(config, track_values=True, track_persist_order=True,
                  keep_epoch_log=True)
    m.run(random_programs(rng, 2, 60), max_cycles=crash_cycle, drain=False)
    outcome = CrashOutcome(m.engine.now, m.image, snapshot_epochs(m))
    check_epoch_order(outcome)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    epoch_stores=st.sampled_from([20, 60, 200]),
)
def test_random_bsp_runs_keep_epoch_order(seed, epoch_stores):
    rng = random.Random(seed)
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BSP,
        bsp_epoch_stores=epoch_stores,
    )
    m = Multicore(config, track_values=True, track_persist_order=True,
                  keep_epoch_log=True)
    result = m.run(random_programs(rng, 2, 80, barrier_prob=0.0))
    assert result.finished
    m.audit()
    outcome = CrashOutcome(m.engine.now, m.image, snapshot_epochs(m))
    check_epoch_order(outcome)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 63), st.booleans()),  # (line index, touch?)
    min_size=1, max_size=200,
))
def test_cache_lru_matches_reference_model(trace):
    """The set-associative array behaves like a reference LRU dict."""
    cache = SetAssociativeCache("ref", 4, 4, 64, StatDomain("c"))
    reference = {s: [] for s in range(4)}  # set -> lines, LRU first
    for index, touch in trace:
        line = index * 64
        set_index = index % 4
        entry = cache.lookup(line)
        if entry is not None and touch:
            cache.touch(entry)
            reference[set_index].remove(line)
            reference[set_index].append(line)
        elif entry is None:
            victim = cache.victim_for(line)
            if victim is not None:
                cache.remove(victim.line)
                reference[set_index].remove(victim.line)
            cache.insert(line)
            reference[set_index].append(line)
    for set_index, lines in reference.items():
        for line in lines:
            assert cache.lookup(line) is not None
    assert len(cache) == sum(len(v) for v in reference.values())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_determinism_same_seed_same_result(seed):
    """Two identical machines running identical programs agree cycle for
    cycle -- the property the whole benchmark harness rests on."""
    def one_run():
        rng = random.Random(seed)
        config = MachineConfig.tiny(
            barrier_design=BarrierDesign.LB_PP,
            persistency=PersistencyModel.BEP,
        )
        m = Multicore(config)
        result = m.run(random_programs(rng, 2, 50))
        return (result.cycles_visible, result.cycles_durable,
                result.nvram_writes, result.intra_conflicts,
                result.inter_conflicts)

    assert one_run() == one_run()
