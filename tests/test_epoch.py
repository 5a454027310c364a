"""Tests for epoch lifecycle and the per-core epoch manager."""

import pytest

from repro.core.epoch import EpochManager, EpochStatus
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain


def make_manager(max_inflight=8):
    engine = Engine()
    return engine, EpochManager(0, engine, StatDomain("core0"), max_inflight)


def retire_store(mgr):
    """One store retiring from the write buffer: ``Core._drain`` counts
    it in the ongoing epoch, which the store opened if none was."""
    epoch = mgr.current_or_new()
    epoch.num_stores += 1
    return epoch


def test_current_created_lazily():
    _, mgr = make_manager()
    assert mgr.current is None
    epoch = mgr.current_or_new()
    assert mgr.current is epoch
    assert epoch.status is EpochStatus.ONGOING
    assert mgr._stats.get("epochs") == 1


def test_close_with_no_stores_is_noop():
    _, mgr = make_manager()
    mgr.current_or_new()
    assert mgr.close_current() is None
    assert mgr.current is not None  # epoch stays open for future stores


def test_close_completes_drained_epoch():
    _, mgr = make_manager()
    epoch = retire_store(mgr)
    closed = mgr.close_current()
    assert closed is epoch
    assert epoch.status is EpochStatus.COMPLETE
    assert mgr.current is None


def test_completion_callbacks_fire_once():
    _, mgr = make_manager()
    completed, checked = [], []
    mgr.completion_hook = completed.append
    mgr.persist_check = checked.append
    epoch = retire_store(mgr)
    mgr.close_current()
    assert completed == checked == [epoch]
    # A complete epoch neither closes nor splits again.
    assert mgr.close_current() is None
    assert mgr.split_epoch(epoch) is None
    assert completed == checked == [epoch]


def test_window_limit():
    _, mgr = make_manager(max_inflight=2)
    retire_store(mgr)
    mgr.close_current()
    retire_store(mgr)
    assert not mgr.can_open_epoch()


def test_split_without_ongoing_epoch_returns_none():
    _, mgr = make_manager()
    assert mgr.split_epoch(mgr.current) is None


def test_persist_requires_window_head():
    _, mgr = make_manager()
    retire_store(mgr)
    mgr.close_current()
    e1 = retire_store(mgr)
    mgr.close_current()
    with pytest.raises(RuntimeError):
        mgr.mark_persisted(e1)  # e0 must persist first


def test_persist_pops_window_and_fires_waiters():
    _, mgr = make_manager()
    fired = []
    e0 = retire_store(mgr)
    mgr.close_current()
    e0.on_persist(lambda: fired.append("p"))
    mgr.mark_persisted(e0)
    assert fired == ["p"]
    assert e0.persisted
    assert mgr.window == []
    with pytest.raises(RuntimeError):
        mgr.mark_persisted(e0)


def test_persist_rejects_epoch_with_work_left():
    _, mgr = make_manager()
    e0 = retire_store(mgr)
    mgr.close_current()
    e0.lines.add(0x40)
    with pytest.raises(RuntimeError):
        mgr.mark_persisted(e0)


def test_persist_clears_idt_edges_and_notifies_dependents():
    engine_a, mgr_a = make_manager()
    mgr_b = EpochManager(1, engine_a, StatDomain("core1"), 8)
    source = retire_store(mgr_a)
    mgr_a.close_current()
    dependent = retire_store(mgr_b)
    source.idt_dependents.add(dependent)
    dependent.idt_sources.add(source)
    checked = []
    mgr_b.persist_check = checked.append
    mgr_a.mark_persisted(source)
    assert dependent.idt_sources == set()
    assert checked == [dependent]


def test_deps_persisted_gates_on_sources():
    engine, mgr_a = make_manager()
    mgr_b = EpochManager(1, engine, StatDomain("core1"), 8)
    e = retire_store(mgr_a)
    mgr_a.close_current()
    src = retire_store(mgr_b)
    e.idt_sources.add(src)
    assert not mgr_a.deps_persisted(e)
    e.idt_sources.clear()
    assert mgr_a.deps_persisted(e)


def test_completion_hook_fires():
    _, mgr = make_manager()
    seen = []
    mgr.completion_hook = seen.append
    e = retire_store(mgr)
    mgr.close_current()
    assert seen == [e]


def test_audit_passes_on_sane_state():
    _, mgr = make_manager()
    retire_store(mgr)
    mgr.close_current()
    retire_store(mgr)
    mgr.audit()
