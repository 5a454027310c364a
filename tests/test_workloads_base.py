"""Tests for the op model and program builders."""

import random

import pytest

from repro.workloads.base import (
    Op,
    OpKind,
    Program,
    barrier,
    compute,
    load,
    load_span,
    span_ops,
    store,
    store_span,
    txn_mark,
)


def test_op_constructors():
    op = load(0x1000, 16)
    assert op.kind is OpKind.LOAD and op.size == 16
    op = store(0x1000, 8, value="v")
    assert op.kind is OpKind.STORE and op.value == "v"
    assert barrier().kind is OpKind.BARRIER
    assert compute(10).cycles == 10
    assert txn_mark().kind is OpKind.TXN_MARK


def test_access_needs_positive_size():
    with pytest.raises(ValueError):
        Op(OpKind.LOAD, addr=0, size=0)
    with pytest.raises(ValueError):
        Op(OpKind.STORE, addr=0, size=-1)


def test_compute_needs_nonnegative_cycles():
    with pytest.raises(ValueError):
        Op(OpKind.COMPUTE, cycles=-1)
    assert Op(OpKind.COMPUTE, cycles=0).cycles == 0


def test_span_ops_split_on_line_boundaries():
    ops = list(span_ops(OpKind.STORE, 60, 16, 64))
    assert [(o.addr, o.size) for o in ops] == [(60, 4), (64, 12)]


def test_span_ops_aligned_object():
    ops = list(store_span(0x1000, 512, 64, value="x"))
    assert len(ops) == 8
    assert all(o.size == 64 and o.value == "x" for o in ops)
    assert [o.addr for o in ops] == [0x1000 + i * 64 for i in range(8)]


def test_load_span():
    ops = list(load_span(0x1000, 100, 64))
    assert [o.size for o in ops] == [64, 36]
    assert all(o.kind is OpKind.LOAD for o in ops)


def test_program_builder_chains():
    p = (Program().load(0x1000).store(0x2000, 8, value="v")
         .barrier().compute(5).txn_mark())
    kinds = [o.kind for o in p]
    assert kinds == [OpKind.LOAD, OpKind.STORE, OpKind.BARRIER,
                     OpKind.COMPUTE, OpKind.TXN_MARK]
    assert len(p) == 5


def test_program_extend():
    p = Program().extend(store_span(0, 128, 64))
    assert len(p) == 2


def test_ops_are_slot_bound():
    # Op trades enforced frozenness for construction speed (it sits on
    # the million-transaction lazy-generation path); the slots layout
    # still rejects stray attributes and per-instance dicts.
    op = load(0x1000)
    with pytest.raises(AttributeError):
        op.tag = "x"
    assert not hasattr(op, "__dict__")


def test_op_equality_and_repr():
    a = load(0x1000)
    b = load(0x1000)
    assert a == b and hash(a) == hash(b)
    assert a != load(0x2000)
    assert "LOAD" in repr(a).upper() or "load" in repr(a)


def _inlined_draw(getrandbits, n):
    """The draw the per-op generators inline for ``rng.randrange(n)``
    and ``rng.choice(seq)`` (with ``n = len(seq)``)."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 96, 1000, 4096,
                               2**31 + 1])
def test_inlined_draw_is_randrange_and_choice(n):
    # The generators' op streams stay the pinned ones only if the
    # inlined loop returns what Random.randrange and Random.choice
    # return and consumes the generator exactly as they do.
    seq = range(10, 10 + n)
    for seed in (0, 1, 7, 1009):
        reference = random.Random(seed)
        inlined = random.Random(seed)
        getrandbits = inlined.getrandbits
        for _ in range(200):
            assert _inlined_draw(getrandbits, n) == reference.randrange(n)
            assert seq[_inlined_draw(getrandbits, n)] == reference.choice(seq)
        assert inlined.getstate() == reference.getstate()
