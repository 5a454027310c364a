"""Memory-operation model and program plumbing.

A *program* is, per thread, any iterator of :class:`Op` records.  Cores
pull one op at a time, so programs may be plain lists, generators that
interleave with simulated state, or the data-structure drivers in
:mod:`repro.workloads.micro` (whose generators walk real pointer-based
structures and therefore emit realistic address streams).

Operations:

* ``LOAD`` / ``STORE`` -- a memory access.  Accesses never straddle a
  cache line; helpers split larger regions into per-line ops (which is
  also how the paper's 512-byte entries become 8-line bursts).
* ``BARRIER``  -- a persist barrier (epoch boundary).
* ``COMPUTE``  -- ``cycles`` of non-memory work.
* ``TXN_MARK`` -- marks completion of one transaction, the unit of
  Figure 11's throughput metric.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    BARRIER = "barrier"
    COMPUTE = "compute"
    TXN_MARK = "txn"


class Op:
    """One memory operation.  Treat instances as immutable.

    Generators share instances: the barrier and transaction-marker ops
    of :mod:`repro.workloads.micro` and ``serving``, every load
    ``hotset`` emits and every compute op of an app thread are one
    object each, yielded again and again.  A consumer that mutated an
    op would rewrite every later occurrence.

    A hand-rolled slots class rather than a frozen dataclass: million-
    transaction programs construct tens of millions of these, and the
    frozen dataclass ``__init__`` (an ``object.__setattr__`` per field)
    costs several times a plain slot assignment on the lazy-generation
    path, where op construction is interleaved with the timed run.
    """

    __slots__ = ("kind", "addr", "size", "value", "cycles")

    def __init__(self, kind: OpKind, addr: int = 0, size: int = 0,
                 value: Optional[object] = None, cycles: int = 0) -> None:
        self.kind = kind
        self.addr = addr
        self.size = size
        self.value = value
        self.cycles = cycles
        if size <= 0 and (kind is OpKind.LOAD or kind is OpKind.STORE):
            raise ValueError(f"{kind.value} needs a positive size")
        if cycles < 0 and kind is OpKind.COMPUTE:
            raise ValueError("compute cycles must be non-negative")

    def _astuple(self) -> tuple:
        return (self.kind, self.addr, self.size, self.value, self.cycles)

    def __repr__(self) -> str:
        return (f"Op(kind={self.kind!r}, addr={self.addr!r}, "
                f"size={self.size!r}, value={self.value!r}, "
                f"cycles={self.cycles!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())


def load(addr: int, size: int = 8) -> Op:
    return Op(OpKind.LOAD, addr=addr, size=size)


def store(addr: int, size: int = 8, value: Optional[object] = None) -> Op:
    return Op(OpKind.STORE, addr=addr, size=size, value=value)


def barrier() -> Op:
    return Op(OpKind.BARRIER)


def compute(cycles: int) -> Op:
    return Op(OpKind.COMPUTE, cycles=cycles)


def txn_mark() -> Op:
    return Op(OpKind.TXN_MARK)


def span_ops(
    kind: OpKind,
    addr: int,
    size: int,
    line_size: int,
    value: Optional[object] = None,
) -> Iterator[Op]:
    """Split an access of ``size`` bytes into per-line ops.

    This is how multi-line objects (the paper's 512 B entries) turn into
    bursts of line-granular traffic.
    """
    end = addr + size
    cursor = addr
    while cursor < end:
        line_end = (cursor & ~(line_size - 1)) + line_size
        chunk = min(end, line_end) - cursor
        yield Op(kind, addr=cursor, size=chunk, value=value)
        cursor += chunk


def store_span(addr: int, size: int, line_size: int,
               value: Optional[object] = None) -> Iterator[Op]:
    return span_ops(OpKind.STORE, addr, size, line_size, value)


def load_span(addr: int, size: int, line_size: int) -> Iterator[Op]:
    return span_ops(OpKind.LOAD, addr, size, line_size)


class Program:
    """A materialized per-thread op sequence with convenience builders."""

    def __init__(self, ops: Optional[Iterable[Op]] = None) -> None:
        self.ops: List[Op] = list(ops) if ops is not None else []

    # -- builders --------------------------------------------------------
    def load(self, addr: int, size: int = 8) -> "Program":
        self.ops.append(load(addr, size))
        return self

    def store(self, addr: int, size: int = 8,
              value: Optional[object] = None) -> "Program":
        self.ops.append(store(addr, size, value))
        return self

    def barrier(self) -> "Program":
        self.ops.append(barrier())
        return self

    def compute(self, cycles: int) -> "Program":
        self.ops.append(compute(cycles))
        return self

    def txn_mark(self) -> "Program":
        self.ops.append(txn_mark())
        return self

    def extend(self, ops: Iterable[Op]) -> "Program":
        self.ops.extend(ops)
        return self

    # -- iteration -------------------------------------------------------
    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)
