"""Recovery execution: turn a crashed NVRAM image into a usable state.

The checkers in :mod:`repro.recovery.checker` verify that recovery is
*possible*; this module actually performs it, the way the recovery code
described in the paper would run after a reboot:

* :func:`recover_bsp` implements section 5.2's crash recovery for
  buffered strict persistency: identify, per core, the newest prefix of
  epochs that persisted completely; roll back every line persisted by a
  newer (torn) epoch using its durable undo-log entries; report the
  checkpoint each core restarts from.

* :func:`recover_queue` rebuilds the Figure 10 queue from a (possibly
  rolled-back) durable image: the recovered queue is exactly the
  entries between the durable tail and the durable head, each of which
  is guaranteed intact by the barrier placement.

Both return plain data: recovery never mutates the crash outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.recovery.checker import ConsistencyViolation
from repro.recovery.crash import CrashOutcome

EpochKey = Tuple[int, int]


@dataclass
class RecoveredState:
    """The durable state after rolling back torn epochs."""

    # line -> offset -> value, after rollback.
    values: Dict[int, Dict[int, object]]
    # Per core: the newest epoch seq whose effects survive (-1: none).
    survivor_epoch: Dict[int, int]
    # Epochs whose persisted lines were rolled back.
    rolled_back: List[EpochKey]
    # Lines restored from the undo log.
    restored_lines: Set[int] = field(default_factory=set)

    def read(self, addr: int, line_size: int = 64) -> Optional[object]:
        """Read one recovered field (8-byte granularity)."""
        line = addr & ~(line_size - 1)
        values = self.values.get(line)
        if values is None:
            return None
        return values.get(addr - line)


def _durable_lines_by_epoch(outcome: CrashOutcome) -> Dict[EpochKey, Set[int]]:
    durable: Dict[EpochKey, Set[int]] = {}
    for record in outcome.image.history:
        if record.kind in ("data", "eviction") and record.epoch_seq >= 0:
            key = (record.core_id, record.epoch_seq)
            durable.setdefault(key, set()).add(record.line)
    return durable


def _torn_epochs(outcome: CrashOutcome,
                 durable: Dict[EpochKey, Set[int]]) -> Set[EpochKey]:
    torn: Set[EpochKey] = set()
    for key, lines in durable.items():
        record = outcome.epochs.get(key)
        if record is None:
            continue
        if not record.all_lines <= lines:
            torn.add(key)
    return torn


def recover_bsp(outcome: CrashOutcome) -> RecoveredState:
    """Roll back torn epochs using the durable undo log (section 5.2).

    A torn epoch (persisted some but not all of its lines) violates BSP
    atomicity; each of its durable lines is restored to the pre-epoch
    value recorded in the log.  An epoch that depends (transitively,
    through program order or IDT edges) on a rolled-back epoch is rolled
    back as well -- its inputs are gone.
    """
    if not outcome.image.track_order:
        raise ValueError("recover_bsp needs a persist-order-tracked image")
    durable = _durable_lines_by_epoch(outcome)
    condemned = _torn_epochs(outcome, durable)

    # Propagate rollback to dependents of condemned epochs.  Program
    # order: every later epoch of the same core.  IDT edges: any epoch
    # whose recorded sources include a condemned epoch.
    changed = True
    while changed:
        changed = False
        for key, record in outcome.epochs.items():
            if key in condemned or key not in durable:
                continue
            core_id, seq = key
            if any(
                c_core == core_id and c_seq < seq
                for c_core, c_seq in condemned
            ) or (record.source_keys & condemned):
                condemned.add(key)
                changed = True

    # Index undo-log entries: (epoch, data line) -> old values.
    log_values: Dict[Tuple[EpochKey, int], Dict[int, object]] = {}
    for log_line, (data_line, old) in outcome.image.log_entries.items():
        log_record = outcome.image.last_persist.get(log_line)
        if log_record is None:
            continue
        key = (log_record.core_id, log_record.epoch_seq)
        log_values[(key, data_line)] = old

    values = {line: dict(v) for line, v in outcome.image.values.items()}
    restored: Set[int] = set()
    # Undo newest-first so a line touched by several condemned epochs
    # ends at the value preceding the *oldest* of them.
    for record in reversed(outcome.image.history):
        if record.kind not in ("data", "eviction"):
            continue
        key = (record.core_id, record.epoch_seq)
        if key not in condemned:
            continue
        old = log_values.get((key, record.line))
        if old is None:
            raise ConsistencyViolation(
                f"cannot roll back line 0x{record.line:x} of epoch {key}: "
                "no durable undo-log entry"
            )
        values[record.line] = dict(old)
        restored.add(record.line)

    survivor: Dict[int, int] = {}
    for key, lines in durable.items():
        if key in condemned:
            continue
        core_id, seq = key
        if seq > survivor.get(core_id, -1):
            survivor[core_id] = seq
    return RecoveredState(
        values=values,
        survivor_epoch=survivor,
        rolled_back=sorted(condemned),
        restored_lines=restored,
    )


@dataclass
class RecoveredQueue:
    """The Figure 10 queue as recovery sees it."""

    head: int
    tail: int
    entries: List[object]

    @property
    def length(self) -> int:
        return self.head - self.tail


def recover_queue(outcome: CrashOutcome, queue,
                  state: Optional[RecoveredState] = None) -> RecoveredQueue:
    """Rebuild a queue from the durable (or rolled-back) image.

    ``queue`` is the :class:`~repro.workloads.micro.queue.QueueWorkload`
    whose run crashed; recovery reads its durable head and tail cursors
    and collects the entries in between, verifying each is intact.
    """
    values = state.values if state is not None else outcome.image.values
    line_size = queue.line_size
    head_line = queue.head_addr & ~(line_size - 1)
    header = values.get(head_line, {})
    head_cursor = header.get(queue.head_addr - head_line)
    tail_cursor = header.get(queue.tail_addr - head_line)
    head = head_cursor[2] if head_cursor is not None else 0
    tail = tail_cursor[2] if tail_cursor is not None else 0

    entries: List[object] = []
    for seq in range(tail, head):
        slot = queue.slot_addr(seq)
        first_line = values.get(slot, {})
        token = first_line.get(0)
        if token is None:
            raise ConsistencyViolation(
                f"recovered head={head} exposes missing entry {seq}"
            )
        for offset in range(0, 512, line_size):
            line_values = values.get(slot + offset)
            if not line_values or any(v != token for v in
                                      line_values.values()):
                raise ConsistencyViolation(
                    f"entry {seq} torn at line 0x{slot + offset:x}"
                )
        entries.append(token)
    return RecoveredQueue(head=head, tail=tail, entries=entries)
