"""Tests for the Table 2 microbenchmarks."""

import pytest

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.system import Multicore
from repro.workloads.base import OpKind
from repro.workloads.micro import (
    ENTRY_SIZE,
    HashTableWorkload,
    MICROBENCHMARKS,
    QueueWorkload,
    RBTreeWorkload,
    SDGWorkload,
    SPSWorkload,
    make_benchmark,
)

ALL_NAMES = ["hash", "queue", "rbtree", "sdg", "sps"]

# Simulator-only workloads: registered with the factory but not part of
# Table 2 (and so excluded from the paper's figure sweeps).  ``serving``
# and ``sharded_serving`` live in workloads.apps but register with the
# same factory.
EXTRA_NAMES = ["flushbound", "hotset", "pingpong", "serving",
               "sharded_serving"]


def test_registry_matches_table2():
    assert sorted(MICROBENCHMARKS) == sorted(ALL_NAMES + EXTRA_NAMES)


def test_figure_sweeps_pin_table2():
    from repro.harness.experiments import BEP_BENCHMARKS

    assert BEP_BENCHMARKS == sorted(ALL_NAMES)


def test_entry_size_matches_paper():
    assert ENTRY_SIZE == 512


def test_make_benchmark_unknown_name():
    with pytest.raises(KeyError):
        make_benchmark("btree")


@pytest.mark.parametrize("name", ALL_NAMES + EXTRA_NAMES)
def test_ops_are_well_formed(name):
    bench = make_benchmark(name, thread_id=0, seed=3)
    ops = list(bench.ops(30))
    assert ops, name
    kinds = {op.kind for op in ops}
    assert OpKind.STORE in kinds
    assert OpKind.BARRIER in kinds
    assert OpKind.TXN_MARK in kinds
    for op in ops:
        if op.kind in (OpKind.LOAD, OpKind.STORE):
            # Line-granular: accesses never straddle a cache line.
            assert (op.addr % 64) + op.size <= 64, op
    assert sum(1 for op in ops if op.kind is OpKind.TXN_MARK) == 30


@pytest.mark.parametrize("name", ALL_NAMES + EXTRA_NAMES)
def test_deterministic_given_seed(name):
    a = list(make_benchmark(name, thread_id=1, seed=7).ops(20))
    b = list(make_benchmark(name, thread_id=1, seed=7).ops(20))
    assert [(o.kind, o.addr, o.size, o.value, o.cycles) for o in a] == \
        [(o.kind, o.addr, o.size, o.value, o.cycles) for o in b]


@pytest.mark.parametrize("name", ALL_NAMES + EXTRA_NAMES)
def test_threads_use_disjoint_private_heaps(name):
    a = make_benchmark(name, thread_id=0, seed=1)
    b = make_benchmark(name, thread_id=1, seed=1)
    ops_a = {op.addr & ~63 for op in a.ops(15)
             if op.kind in (OpKind.LOAD, OpKind.STORE)}
    ops_b = {op.addr & ~63 for op in b.ops(15)
             if op.kind in (OpKind.LOAD, OpKind.STORE)}
    shared = ops_a & ops_b
    # Only the shared-statistics lines may overlap.
    assert all(addr < 0x1000_0000 for addr in shared)


@pytest.mark.parametrize("name", ALL_NAMES + EXTRA_NAMES)
def test_runs_to_completion_on_machine(name):
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    m = Multicore(config)
    programs = [make_benchmark(name, thread_id=t, seed=2).ops(15)
                for t in range(2)]
    result = m.run(programs)
    assert result.finished
    assert result.transactions == 30
    m.audit()


# ----------------------------------------------------------------------
# Structure-specific shadow-state oracles
# ----------------------------------------------------------------------
def drain(it):
    for _ in it:
        pass


def test_hash_table_shadow_tracks_membership():
    bench = HashTableWorkload(thread_id=0, seed=5, initial_entries=0)
    drain(bench._insert(42))
    assert bench.lookup_shadow(42)
    assert bench.size == 1
    drain(bench._delete(42))
    assert not bench.lookup_shadow(42)
    assert bench.size == 0


def test_hash_table_chains_in_one_bucket():
    bench = HashTableWorkload(thread_id=0, seed=5, num_buckets=1,
                              initial_entries=0)
    for key in (1, 2, 3):
        drain(bench._insert(key))
    assert bench.size == 3
    drain(bench._delete(2))
    assert bench.lookup_shadow(1) and bench.lookup_shadow(3)
    assert not bench.lookup_shadow(2)


def test_queue_insert_follows_figure10():
    bench = QueueWorkload(thread_id=0, seed=5)
    ops = list(bench._insert())
    kinds = [op.kind for op in ops]
    # barrier; 8 line stores (copy); barrier; head store; barrier
    assert kinds[0] is OpKind.BARRIER
    assert kinds[1:9] == [OpKind.STORE] * 8
    assert kinds[9] is OpKind.BARRIER
    assert kinds[10] is OpKind.STORE
    assert ops[10].addr == bench.head_addr
    assert kinds[11] is OpKind.BARRIER


def test_queue_occupancy_bounded():
    bench = QueueWorkload(thread_id=0, seed=5, capacity=8)
    drain(bench.ops(100))
    assert 0 <= bench.occupancy <= bench.capacity


def test_rbtree_invariants_after_heavy_churn():
    bench = RBTreeWorkload(thread_id=0, seed=11, initial_nodes=64,
                           key_space=256)
    drain(bench.ops(150))
    bench.validate_shadow()
    assert bench.size > 0


def test_rbtree_insert_then_delete_roundtrip():
    bench = RBTreeWorkload(thread_id=0, seed=1, initial_nodes=0)
    for key in [50, 25, 75, 10, 30, 60, 90, 5, 15]:
        drain(bench._insert(key))
    bench.validate_shadow()
    assert bench.contains_shadow(30)
    for key in [25, 50, 5]:
        drain(bench._delete(key))
        bench.validate_shadow()
    assert not bench.contains_shadow(25)
    assert bench.contains_shadow(90)
    assert bench.size == 6


def test_sdg_edges_tracked():
    bench = SDGWorkload(thread_id=0, seed=3, num_vertices=8,
                        initial_edges=0)
    drain(bench._insert_edge(0, 5))
    drain(bench._insert_edge(0, 6))
    assert bench.out_degree(0) == 2
    assert bench.has_edge_shadow(0, 5)
    drain(bench._delete_edge(0))
    assert bench.out_degree(0) == 1
    assert bench.num_edges == 1


def test_sps_shadow_is_always_a_permutation():
    bench = SPSWorkload(thread_id=0, seed=9, num_entries=32)
    drain(bench.ops(80))
    assert sorted(bench.shadow) == list(range(32))
    assert bench.swaps == 80


# ----------------------------------------------------------------------
# hotset: the cache-resident engine benchmark
# ----------------------------------------------------------------------
def test_hotset_is_read_mostly():
    bench = make_benchmark("hotset", thread_id=0, seed=3)
    ops = [op for op in bench.ops(32)]
    loads = sum(1 for op in ops if op.kind is OpKind.LOAD)
    stores = sum(1 for op in ops if op.kind is OpKind.STORE)
    barriers = sum(1 for op in ops if op.kind is OpKind.BARRIER)
    # 64 loads and 4 stores per transaction, plus the 8-line warm-up.
    assert loads == 32 * 64 + 8
    assert stores == 32 * 4
    # One barrier per 8 transactions plus the post-setup barrier; no
    # shared-statistics barriers.
    assert barriers == 32 // 8 + 1


def test_hotset_accesses_stay_in_hot_set():
    bench = make_benchmark("hotset", thread_id=0, seed=3)
    ops = list(bench.ops(20))
    lines = {op.addr & ~63 for op in ops
             if op.kind in (OpKind.LOAD, OpKind.STORE)}
    assert len(lines) == 8
    store_lines = {op.addr & ~63 for op in ops if op.kind is OpKind.STORE}
    assert len(store_lines) == 4
    assert store_lines < lines


def test_hotset_store_subset_validated():
    with pytest.raises(ValueError):
        make_benchmark("hotset", hot_lines=4, store_lines=8)


def test_hotset_is_hit_dominated_on_machine():
    config = MachineConfig.tiny(
        barrier_design=BarrierDesign.LB_IDT,
        persistency=PersistencyModel.BEP,
        num_cores=1,
    )
    m = Multicore(config)
    programs = [make_benchmark("hotset", thread_id=0, seed=2,
                               line_size=config.line_size).ops(40)]
    result = m.run(programs)
    assert result.finished
    l1 = m.stats.domain("l1.0")
    # The working set is 8 lines: after the warm-up fills, everything
    # hits.  This is the property that makes hotset the headline
    # single-run benchmark.
    assert l1.get("fills") <= 8
    assert l1.get("hits") >= 100 * l1.get("fills")
    m.audit()
