"""Tests for the MSI directory."""

from repro.mem.coherence import Directory


def test_unknown_line_has_no_owner():
    directory = Directory()
    assert directory.owner_of(0x1000) is None
    assert directory.peek(0x1000) is None


def test_set_owner_makes_exclusive():
    directory = Directory()
    directory.add_sharer(0x1000, 1)
    directory.add_sharer(0x1000, 2)
    directory.set_owner(0x1000, 3)
    entry = directory.peek(0x1000)
    assert entry.owner == 3
    assert entry.sharers == {3}


def test_read_downgrades_owner_to_sharer():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    directory.add_sharer(0x1000, 2)
    entry = directory.peek(0x1000)
    assert entry.owner is None
    assert entry.sharers == {1, 2}


def test_clear_owner_keeps_copy_as_sharer():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    directory.clear_owner(0x1000)
    entry = directory.peek(0x1000)
    assert entry.owner is None
    assert 1 in entry.sharers


def test_drop_core_removes_all_record():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    directory.drop_core(0x1000, 1)
    assert directory.peek(0x1000) is None  # empty entries are reclaimed


def test_drop_core_leaves_other_sharers():
    directory = Directory()
    directory.add_sharer(0x1000, 1)
    directory.add_sharer(0x1000, 2)
    directory.drop_core(0x1000, 1)
    entry = directory.peek(0x1000)
    assert entry.sharers == {2}


def test_drop_line_forgets_everything():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    directory.add_sharer(0x1000, 2)
    directory.drop_line(0x1000)
    assert directory.peek(0x1000) is None


def test_lines_tracked_independently():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    directory.set_owner(0x2000, 2)
    assert directory.owner_of(0x1000) == 1
    assert directory.owner_of(0x2000) == 2


def test_exclusive_ok_without_a_record():
    assert Directory().exclusive_ok(0x1000, 1)


def test_exclusive_ok_for_the_owner():
    directory = Directory()
    directory.set_owner(0x1000, 1)
    assert directory.exclusive_ok(0x1000, 1)


def test_exclusive_ok_refuses_a_foreign_owner():
    directory = Directory()
    directory.set_owner(0x1000, 2)
    assert not directory.exclusive_ok(0x1000, 1)


def test_exclusive_ok_refuses_a_foreign_sharer():
    directory = Directory()
    directory.add_sharer(0x1000, 1)
    directory.add_sharer(0x1000, 2)
    assert not directory.exclusive_ok(0x1000, 1)
    directory.drop_core(0x1000, 1)
    assert not directory.exclusive_ok(0x1000, 1)


def test_exclusive_ok_for_the_sole_sharer():
    directory = Directory()
    directory.add_sharer(0x1000, 1)
    assert directory.exclusive_ok(0x1000, 1)


def test_peek_returns_the_live_entry():
    directory = Directory()
    directory.add_sharer(0x1000, 1)
    entry = directory.peek(0x1000)
    directory.add_sharer(0x1000, 2)
    assert entry.sharers == {1, 2}
    assert directory.peek(0x1000) is entry
