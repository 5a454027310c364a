"""Tests for the set-associative cache arrays."""

import pytest

from repro.mem.cache import SetAssociativeCache
from repro.sim.stats import StatDomain


def make_cache(num_sets=4, assoc=2):
    return SetAssociativeCache("test", num_sets, assoc, 64, StatDomain("c"))


def addr(set_index, tag, num_sets=4):
    return (tag * num_sets + set_index) * 64


def test_insert_and_lookup():
    cache = make_cache()
    entry = cache.insert(addr(0, 0))
    assert cache.lookup(addr(0, 0)) is entry
    assert cache.lookup(addr(1, 0)) is None


def test_victim_none_while_set_has_room():
    cache = make_cache(assoc=2)
    cache.insert(addr(0, 0))
    assert cache.victim_for(addr(0, 1)) is None
    cache.insert(addr(0, 1))
    assert cache.victim_for(addr(0, 2)) is not None


def test_victim_is_lru():
    cache = make_cache(assoc=2)
    first = cache.insert(addr(0, 0))
    second = cache.insert(addr(0, 1))
    assert cache.victim_for(addr(0, 2)) is first
    cache.touch(first)
    assert cache.victim_for(addr(0, 2)) is second


def test_victim_prefers_clean_lines():
    cache = make_cache(assoc=2)
    old_dirty = cache.insert(addr(0, 0))
    old_dirty.dirty = True
    newer_clean = cache.insert(addr(0, 1))
    # LRU would pick old_dirty, but the clean line is cheaper to evict.
    assert cache.victim_for(addr(0, 2)) is newer_clean


def test_victim_for_resident_line_is_none():
    cache = make_cache(assoc=1)
    cache.insert(addr(0, 0))
    assert cache.victim_for(addr(0, 0)) is None


def test_insert_into_full_set_raises():
    cache = make_cache(assoc=1)
    cache.insert(addr(0, 0))
    with pytest.raises(RuntimeError):
        cache.insert(addr(0, 1))


def test_remove():
    cache = make_cache()
    cache.insert(addr(0, 0))
    removed = cache.remove(addr(0, 0))
    assert removed is not None
    assert cache.lookup(addr(0, 0)) is None
    assert cache.remove(addr(0, 0)) is None


def test_insert_existing_returns_same_entry():
    cache = make_cache()
    a = cache.insert(addr(0, 0))
    b = cache.insert(addr(0, 0))
    assert a is b
    assert len(cache) == 1


def test_sets_are_independent():
    cache = make_cache(num_sets=4, assoc=1)
    for set_index in range(4):
        cache.insert(addr(set_index, 0))
    assert len(cache) == 4
    for set_index in range(4):
        assert cache.victim_for(addr(set_index, 1)) is not None


def test_dirty_entries_iteration():
    cache = make_cache()
    clean = cache.insert(addr(0, 0))
    dirty = cache.insert(addr(1, 0))
    dirty.dirty = True
    assert list(cache.dirty_entries()) == [dirty]
    assert clean in list(cache.entries())


def test_unpersisted_requires_dirty_and_live_epoch():
    cache = make_cache()
    entry = cache.insert(addr(0, 0))
    assert not entry.unpersisted          # clean
    entry.dirty = True
    assert not entry.unpersisted          # dirty, no epoch (NP traffic)

    class FakeEpoch:
        persisted = False

    entry.epoch = FakeEpoch()
    assert entry.unpersisted
    entry.epoch.persisted = True
    assert not entry.unpersisted


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        make_cache(num_sets=0)


def test_lookup_after_remove_and_reinsert():
    """A removed entry is never served again; a re-insert is fresh."""
    cache = make_cache()
    line = addr(1, 0)
    entry = cache.insert(line)
    assert cache.lookup(line) is entry
    cache.remove(line)
    assert cache.lookup(line) is None
    fresh = cache.insert(line)
    assert fresh is not entry
    assert cache.lookup(line) is fresh


def test_repeated_lookups_return_same_entry():
    cache = make_cache()
    a, b = addr(0, 0), addr(0, 1)
    ea, eb = cache.insert(a), cache.insert(b)
    for _ in range(3):
        assert cache.lookup(a) is ea
    assert cache.lookup(b) is eb
    assert cache.lookup(a) is ea
