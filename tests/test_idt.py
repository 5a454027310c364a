"""Tests for inter-thread dependence tracking (IDT registers)."""

import pytest

from repro.core.epoch import EpochManager
from repro.core.idt import IDTracker
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain


def make_world(registers=4):
    engine = Engine()
    managers = [
        EpochManager(core, engine, StatDomain(f"core{core}"), 8)
        for core in range(4)
    ]
    tracker = IDTracker(registers, StatDomain("idt"), fast=engine.fast)
    return managers, tracker


def new_epoch(mgr):
    epoch = mgr.tag_store()
    mgr.store_drained(epoch)
    mgr.close_current()
    return epoch


def test_edge_recorded_both_sides():
    managers, tracker = make_world()
    src = new_epoch(managers[0])
    dep = managers[1].current_or_new()
    assert tracker.try_record(src, dep)
    assert src in dep.idt_sources
    assert dep in src.idt_dependents
    assert (0, src.seq) in dep.all_sources


def test_duplicate_edge_is_free():
    managers, tracker = make_world(registers=1)
    src = new_epoch(managers[0])
    dep = managers[1].current_or_new()
    assert tracker.try_record(src, dep)
    assert tracker.try_record(src, dep)
    assert len(dep.idt_sources) == 1


def test_persisted_source_needs_no_edge():
    managers, tracker = make_world()
    src = new_epoch(managers[0])
    managers[0].mark_persisted(src)
    dep = managers[1].current_or_new()
    assert tracker.try_record(src, dep)
    assert dep.idt_sources == set()


def test_same_core_edge_rejected():
    managers, tracker = make_world()
    src = new_epoch(managers[0])
    dep = managers[0].current_or_new()
    with pytest.raises(ValueError):
        tracker.try_record(src, dep)


def test_newer_epoch_of_same_core_subsumes_older():
    managers, tracker = make_world()
    old = new_epoch(managers[0])
    newer = new_epoch(managers[0])
    dep = managers[1].current_or_new()
    assert tracker.try_record(newer, dep)
    # An edge to an older epoch of the same core is implied.
    assert tracker.try_record(old, dep)
    assert dep.idt_sources == {newer}


def test_older_edge_upgraded_in_place():
    managers, tracker = make_world(registers=1)
    old = new_epoch(managers[0])
    newer = new_epoch(managers[0])
    dep = managers[1].current_or_new()
    assert tracker.try_record(old, dep)
    # Upgrading must succeed even at the register limit: it frees the
    # old register.
    assert tracker.try_record(newer, dep)
    assert dep.idt_sources == {newer}
    assert dep not in old.idt_dependents


def test_dependence_register_overflow():
    managers, tracker = make_world(registers=2)
    dep = managers[3].current_or_new()
    sources = [new_epoch(managers[core]) for core in (0, 1, 2)]
    assert tracker.try_record(sources[0], dep)
    assert tracker.try_record(sources[1], dep)
    assert not tracker.try_record(sources[2], dep)  # registers full
    assert len(dep.idt_sources) == 2


def test_inform_register_overflow():
    managers, tracker = make_world(registers=2)
    src = new_epoch(managers[0])
    deps = [managers[core].current_or_new() for core in (1, 2, 3)]
    assert tracker.try_record(src, deps[0])
    assert tracker.try_record(src, deps[1])
    assert not tracker.try_record(src, deps[2])
    assert len(src.idt_dependents) == 2


def test_overflow_restores_superseded_edge():
    managers, tracker = make_world(registers=1)
    old = new_epoch(managers[0])
    newer = new_epoch(managers[0])
    dep = managers[1].current_or_new()
    # Fill the source's inform register with another dependent so the
    # upgrade attempt fails on the source side.
    other_dep = managers[2].current_or_new()
    assert tracker.try_record(old, dep)
    newer.idt_dependents.add(other_dep)
    assert not tracker.try_record(newer, dep)
    # The original (older) edge must still be intact.
    assert dep.idt_sources == {old}
    assert dep in old.idt_dependents


def test_register_count_validation():
    with pytest.raises(ValueError):
        IDTracker(0, StatDomain("idt"))


# ----------------------------------------------------------------------
# Deadlock avoidance (section 3.3): an edge wanted on a still-ongoing
# source must split the source first, so the dependence lands on a
# completed prefix and the graph stays acyclic.
# ----------------------------------------------------------------------
def test_edge_on_ongoing_source_lands_on_split_prefix():
    managers, tracker = make_world()
    src_mgr = managers[0]
    ongoing = src_mgr.tag_store()
    src_mgr.store_drained(ongoing)  # drained but never closed: ongoing
    assert ongoing.ongoing

    prefix = src_mgr.split_epoch(ongoing)
    assert prefix is ongoing
    assert prefix.complete  # the prefix is immediately completable

    dep = managers[1].current_or_new()
    assert tracker.try_record(prefix, dep)
    assert prefix in dep.idt_sources
    assert dep in prefix.idt_dependents

    remainder = src_mgr.current
    assert remainder is not None and remainder.ongoing
    assert remainder.split_from == prefix.seq
    src_mgr.audit()
    managers[1].audit()


def test_split_prefix_persists_while_remainder_runs():
    """The acyclicity payoff: the prefix carrying the IDT edge can
    persist (releasing the dependent) while the remainder epoch is
    still accumulating stores."""
    managers, tracker = make_world()
    src_mgr = managers[0]
    ongoing = src_mgr.tag_store()
    src_mgr.store_drained(ongoing)
    prefix = src_mgr.split_epoch(ongoing)

    dep = managers[1].current_or_new()
    assert tracker.try_record(prefix, dep)

    assert src_mgr.deps_persisted(prefix)  # window head, no sources
    src_mgr.mark_persisted(prefix)
    assert prefix.persisted
    assert dep.idt_sources == set()  # edge cleared on persist
    assert src_mgr.current is not None and src_mgr.current.ongoing
    src_mgr.audit()


def test_idt_edge_walks_do_not_depend_on_memory_addresses():
    """IDT edge sets hold identity-hashed epochs; every walk over them
    that reaches the event queue goes in (core, seq) order, so repeated
    runs in one process agree even when allocation history moves the
    epochs to different addresses."""
    from repro.harness.executor import RunSpec, execute
    from repro.harness.runner import Scale
    from repro.sim.config import BarrierDesign

    spec = RunSpec.bsp("ssca2", BarrierDesign.LB_IDT, Scale.SMALL,
                       epoch_stores=1500, mem_ops=1500)
    summaries = []
    junk = []
    for round_ in range(4):
        summaries.append(execute(spec))
        # Throwaway allocations shift where the next run's epochs land.
        junk.append([object() for _ in range(1000 * (round_ + 1))])
    assert summaries.count(summaries[0]) == len(summaries)
