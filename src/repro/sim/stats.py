"""Statistics collection.

Every component owns a :class:`StatDomain` (a named bag of counters and
histograms) registered with the machine-wide :class:`Stats` object.  The
harness reads these after a run to produce the paper's tables and
figures.  Counters are plain ints -- cheap enough to bump on every
memory transaction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class StatDomain:
    """A named namespace of counters and value accumulators."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, int] = defaultdict(int)
        self._sums: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)
        self._maxes: Dict[str, float] = {}

    # -- counters ------------------------------------------------------
    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def get(self, key: str, default: int = 0) -> int:
        return self.counters.get(key, default)

    # -- accumulators (for means / maxima) ------------------------------
    def record(self, key: str, value: float) -> None:
        self._sums[key] += value
        self._counts[key] += 1
        prev = self._maxes.get(key)
        if prev is None or value > prev:
            self._maxes[key] = value

    def merge_samples(self, key: str, total: float, count: int,
                      maximum: float) -> None:
        """Fold ``count`` pre-aggregated samples into the accumulator.

        Exactly equivalent to ``count`` individual :meth:`record` calls
        whose values sum to ``total`` with maximum ``maximum`` -- the
        merge point for hot-path code that accumulates samples in plain
        attributes and flushes them once at run end.
        """
        if count == 0:
            return
        self._sums[key] += total
        self._counts[key] += count
        prev = self._maxes.get(key)
        if prev is None or maximum > prev:
            self._maxes[key] = maximum

    def mean(self, key: str) -> float:
        n = self._counts.get(key, 0)
        return self._sums[key] / n if n else 0.0

    def total(self, key: str) -> float:
        return self._sums.get(key, 0.0)

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def maximum(self, key: str) -> float:
        return self._maxes.get(key, 0.0)

    # -- introspection ---------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.counters)
        for key in self._sums:
            out[f"{key}.mean"] = self.mean(key)
            out[f"{key}.total"] = self._sums[key]
            out[f"{key}.count"] = self._counts[key]
        return out

    def __repr__(self) -> str:
        return f"StatDomain({self.name!r}, {dict(self.counters)!r})"


class Stats:
    """Machine-wide registry of stat domains."""

    def __init__(self) -> None:
        self._domains: Dict[str, StatDomain] = {}

    def domain(self, name: str) -> StatDomain:
        """Get (creating if needed) the domain with the given name."""
        dom = self._domains.get(name)
        if dom is None:
            dom = StatDomain(name)
            self._domains[name] = dom
        return dom

    def __iter__(self) -> Iterator[Tuple[str, StatDomain]]:
        return iter(sorted(self._domains.items()))

    def total(self, counter: str) -> int:
        """Sum a counter across all domains (e.g. per-core counters)."""
        return sum(dom.get(counter) for _, dom in self)

    def flatten(self) -> Dict[str, float]:
        """All counters as ``domain.counter`` keys, for reports."""
        out: Dict[str, float] = {}
        for name, dom in self:
            for key, value in dom.as_dict().items():
                out[f"{name}.{key}"] = value
        return out


class HandshakeStats:
    """Per-core message accounting for the Figure 8 flush handshake.

    Deliberately *not* a :class:`StatDomain`: every domain counter is
    part of the determinism digest (``Stats.flatten`` feeds
    ``state_digest``), and these counts are bumped from batched fast
    paths whose per-event shape differs from the reference engine even
    though the message *totals* are identical.  Keeping them as plain
    slotted attributes makes them digest-invisible by construction --
    the same contract as the fast-forward drain counters -- while the
    bench harness asserts fast-vs-reference equality explicitly, the
    way the conflict counters are checked.

    Counter semantics (messages, not events -- a batched simulator event
    covering k banks still counts k messages):

    * ``flush_epoch_msgs``  -- FlushEpoch broadcasts, one per bank per
      flush (step 1).
    * ``bank_ack_msgs``     -- BankAck transmissions (step 3), including
      dropped/retried transmissions under fault injection.
    * ``persist_ack_msgs``  -- per-line PersistAck hops from the memory
      controller back to the owning bank (step 2->3 internal leg).
    * ``persist_cmp_msgs``  -- PersistCMP broadcasts, one per bank per
      flush (step 4).
    * ``idt_notify_msgs``   -- inter-thread dependence-clear notices
      sent to dependent cores when an epoch persists.

    Flushes overlap (the arbiter pipelines several epochs), so the
    per-flush (i.e. per-epoch) cost cannot be bracketed with global
    snapshots: each flush operation accumulates its own message count
    and reports it once at completion via :meth:`note_flush`, which
    maintains the count, sum, and maximum needed for the
    messages-per-flush curves without storing a per-epoch list.
    """

    __slots__ = ("flushes", "flush_epoch_msgs", "bank_ack_msgs",
                 "persist_ack_msgs", "persist_cmp_msgs", "idt_notify_msgs",
                 "flush_msgs_sum", "last_flush_msgs", "max_flush_msgs")

    def __init__(self) -> None:
        self.flushes = 0
        self.flush_epoch_msgs = 0
        self.bank_ack_msgs = 0
        self.persist_ack_msgs = 0
        self.persist_cmp_msgs = 0
        self.idt_notify_msgs = 0
        self.flush_msgs_sum = 0
        self.last_flush_msgs = 0
        self.max_flush_msgs = 0

    # ------------------------------------------------------------------
    def total_msgs(self) -> int:
        return (self.flush_epoch_msgs + self.bank_ack_msgs
                + self.persist_ack_msgs + self.persist_cmp_msgs
                + self.idt_notify_msgs)

    def note_flush(self, msgs: int) -> None:
        """Record one completed flush handshake costing ``msgs`` messages."""
        self.flushes += 1
        self.flush_msgs_sum += msgs
        self.last_flush_msgs = msgs
        if msgs > self.max_flush_msgs:
            self.max_flush_msgs = msgs

    def mean_flush_msgs(self) -> float:
        return self.flush_msgs_sum / self.flushes if self.flushes else 0.0

    def merge(self, other: "HandshakeStats") -> None:
        """Fold another core's counts into this one (aggregation)."""
        self.flush_epoch_msgs += other.flush_epoch_msgs
        self.bank_ack_msgs += other.bank_ack_msgs
        self.persist_ack_msgs += other.persist_ack_msgs
        self.persist_cmp_msgs += other.persist_cmp_msgs
        self.idt_notify_msgs += other.idt_notify_msgs
        self.flushes += other.flushes
        self.flush_msgs_sum += other.flush_msgs_sum
        self.last_flush_msgs = other.last_flush_msgs or self.last_flush_msgs
        if other.max_flush_msgs > self.max_flush_msgs:
            self.max_flush_msgs = other.max_flush_msgs

    def as_dict(self) -> Dict[str, float]:
        return {
            "flushes": self.flushes,
            "flush_epoch_msgs": self.flush_epoch_msgs,
            "bank_ack_msgs": self.bank_ack_msgs,
            "persist_ack_msgs": self.persist_ack_msgs,
            "persist_cmp_msgs": self.persist_cmp_msgs,
            "idt_notify_msgs": self.idt_notify_msgs,
            "total_msgs": self.total_msgs(),
            "mean_flush_msgs": self.mean_flush_msgs(),
            "last_flush_msgs": self.last_flush_msgs,
            "max_flush_msgs": self.max_flush_msgs,
        }


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, as used for the paper's gmean bars."""
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: list[float]) -> float:
    """Arithmetic mean, as used for the paper's amean bars (Figure 12)."""
    if not values:
        raise ValueError("arithmetic mean of empty sequence")
    return sum(values) / len(values)
