"""Property-based tests over the whole machine.

Random multi-threaded programs, random barrier designs, random crash
points: the machine must terminate, keep its internal invariants
(:meth:`Multicore.audit`), and leave NVRAM consistent with epoch
happens-before order at every crash point.
"""

import random

import pytest
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


class _TickLRU:
    """The reference replacement model: the tick LRU the arrays used
    before set key order held recency.  Every fill and every touch
    stamps its entry with a fresh tick, unique within the cache; the
    victim of a full set is its least-ticked clean entry, else its
    least-ticked entry."""

    def __init__(self, num_sets, assoc):
        self.assoc = assoc
        self.sets = [{} for _ in range(num_sets)]  # line -> [tick, dirty]
        self.tick = 0

    def stamp(self, set_index, line):
        self.tick += 1
        self.sets[set_index].setdefault(line, [0, False])[0] = self.tick

    def order(self, set_index):
        ways = self.sets[set_index]
        return sorted(ways, key=lambda line: ways[line][0])

    def victim(self, set_index):
        ways = self.sets[set_index]
        if len(ways) < self.assoc:
            return None
        clean = [line for line in ways if not ways[line][1]]
        return min(clean or ways, key=lambda line: ways[line][0])


_REPLACEMENT_SETS = 2
_REPLACEMENT_ASSOC = 4
_REPLACEMENT_OPS = ("touch", "touch_mru", "insert", "clean_fill",
                    "victim_for", "remove", "dirty", "clean")


def _check_replacement(cache, trace):
    """Drive ``cache`` and the tick model through ``trace`` -- (op, line
    index) pairs over :data:`_REPLACEMENT_OPS` -- asserting after every
    step that each set holds the same lines in the same LRU order,
    picks the same victim, and keeps its recency hint."""
    ref = _TickLRU(_REPLACEMENT_SETS, _REPLACEMENT_ASSOC)
    for op, index in trace:
        line = index * 64
        set_index = index % _REPLACEMENT_SETS
        ways = ref.sets[set_index]
        if op == "touch_mru" and ways:
            # A hit on the set's most recent line: the hinted line, once
            # a fill or a move has written the hint.
            line = ref.order(set_index)[-1]
        entry = cache.lookup(line)
        assert (entry is not None) == (line in ways)
        if op in ("touch", "touch_mru"):
            if entry is not None:
                cache.touch(entry)
                ref.stamp(set_index, line)
        elif op == "insert":
            if entry is None and len(ways) == _REPLACEMENT_ASSOC:
                victim = cache.victim_for(line)
                assert victim.line == ref.victim(set_index)
                cache.remove(victim.line)
                del ways[victim.line]
            cache.insert(line)
            ref.stamp(set_index, line)
        elif op == "clean_fill":
            if entry is None:
                filled = cache.clean_fill(line)
                clean = [way for way in ways if not ways[way][1]]
                if len(ways) == _REPLACEMENT_ASSOC and not clean:
                    assert filled is None
                else:
                    expected = -1
                    if len(ways) == _REPLACEMENT_ASSOC:
                        expected = ref.victim(set_index)
                        del ways[expected]
                    assert filled[1] == expected
                    ref.stamp(set_index, line)
        elif op == "victim_for":
            victim = cache.victim_for(line)
            expected = None if entry is not None else ref.victim(set_index)
            assert (None if victim is None else victim.line) == expected
        elif op == "remove":
            cache.remove(line)
            ways.pop(line, None)
        elif entry is not None:   # "dirty" or "clean"
            entry.dirty = ways[line][1] = op == "dirty"
        for s in range(_REPLACEMENT_SETS):
            assert list(cache._sets[s]) == ref.order(s)
            # A line no trace names, mapping to set s, misses.
            absent = (64 + s) * 64
            victim = cache.victim_for(absent)
            assert (None if victim is None else victim.line) == ref.victim(s)
        cache.audit()


def _replacement_cache(cls=SetAssociativeCache):
    return cls("ref", _REPLACEMENT_SETS, _REPLACEMENT_ASSOC, 64,
               StatDomain("c"))


# Both sets full before a drawn trace starts, so every step picks a
# victim and every touch of an older line moves it.
_FILL_BOTH_SETS = [("insert", index) for index in range(8)]


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(_REPLACEMENT_OPS), st.integers(0, 11)),
    min_size=10, max_size=200,
))
def test_cache_lru_matches_reference_model(trace):
    """Set key order is the tick LRU: same lines, same order, same
    victims after every fill, touch, eviction and dirty mark."""
    _check_replacement(_replacement_cache(), _FILL_BOTH_SETS + trace)


# Every op on one set (lines 0, 2, ..., 10 all map to set 0): fills
# past capacity, a touch of a line the hint does not name, repeat hits
# on the hinted line, a dirty LRU line, an all-dirty set, removal.
_EVERY_OP_TRACE = [
    ("insert", 0), ("insert", 2), ("clean_fill", 4), ("insert", 6),
    ("touch", 0), ("touch", 0), ("touch_mru", 0), ("victim_for", 8),
    ("dirty", 2), ("clean_fill", 8), ("touch", 6), ("dirty", 6),
    ("dirty", 0), ("dirty", 8), ("clean_fill", 10), ("victim_for", 10),
    ("insert", 10), ("clean", 0), ("remove", 8), ("clean_fill", 4),
    ("touch_mru", 0), ("touch", 10), ("insert", 2),
]


def test_every_replacement_op_matches_the_tick_model():
    _check_replacement(_replacement_cache(), _EVERY_OP_TRACE)


class _MRUVictimCache(SetAssociativeCache):
    """Planted fault: a full set gives up its most recent line."""

    def victim_for(self, line):
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        if line in cache_set or len(cache_set) < self.assoc:
            return None
        return next(reversed(cache_set.values()))


class _HintBlindTouchCache(SetAssociativeCache):
    """Planted fault: a touch skips the move whenever its set has a
    hint, whichever line the hint names."""

    def touch(self, entry):
        if self._mru[(entry.line >> self._offset_bits)
                     & self._set_mask] < 0:
            super().touch(entry)


def test_replacement_check_catches_an_mru_victim():
    with pytest.raises(AssertionError):
        _check_replacement(_replacement_cache(_MRUVictimCache),
                           _EVERY_OP_TRACE)


def test_replacement_check_catches_a_touch_the_hint_does_not_name():
    with pytest.raises(AssertionError):
        _check_replacement(_replacement_cache(_HintBlindTouchCache),
                           _EVERY_OP_TRACE)


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
