"""Consistency checkers for the durable state at a crash point.

Three checkers, matching the guarantees each persistency model makes:

* :func:`check_epoch_order` -- the core BEP/BSP invariant.  Walking the
  persist history in durability order, whenever a line of epoch E
  becomes durable, every happens-before predecessor of E (older same-core
  epochs, recorded IDT sources, transitively) must already be *fully*
  durable: each line that predecessor ever wrote has an earlier persist
  record tagged with it.  This is exactly the property the multi-bank
  flush protocol of section 4.1 exists to preserve (Figure 7 shows the
  violation it prevents).

* :func:`check_bsp_recoverable` -- BSP atomicity (section 5.2.1): every
  line persisted by a *partially* persisted epoch must be undoable, i.e.
  a durable undo-log entry holding that line's pre-epoch value exists.

* :func:`check_queue_recoverable` -- a semantic, data-structure-level
  check for the Figure 10 queue: after a crash, the durable head cursor
  never points past an entry that is not fully durable (an insert is
  either invisible or complete).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.recovery.crash import CrashOutcome


class ConsistencyViolation(AssertionError):
    """The durable state at the crash point is inconsistent."""


EpochKey = Tuple[int, int]


def _predecessors(outcome: CrashOutcome, key: EpochKey) -> Set[EpochKey]:
    """Direct hb-predecessors of an epoch: the previous same-core
    epoch (per-core order is total, so one edge suffices) + IDT
    sources."""
    preds: Set[EpochKey] = set(outcome.epochs[key].source_keys)
    core_id, seq = key
    older = [r.seq for r in outcome.epochs_of_core(core_id) if r.seq < seq]
    if older:
        preds.add((core_id, max(older)))
    return preds


def check_epoch_order(outcome: CrashOutcome) -> int:
    """Verify the persist history respects epoch happens-before order.

    Returns the number of data persists checked.  Raises
    :class:`ConsistencyViolation` on the first violation.
    """
    # lines persisted so far, per epoch key.
    durable_lines: Dict[EpochKey, Set[int]] = {}
    fully_durable: Set[EpochKey] = set()
    checked = 0

    def is_fully_durable(key: EpochKey) -> bool:
        if key in fully_durable:
            return True
        record = outcome.epochs.get(key)
        if record is None:
            return False
        if record.all_lines <= durable_lines.get(key, set()):
            fully_durable.add(key)
            return True
        return False

    def require_predecessors_durable(key: EpochKey, line: int) -> None:
        stack = list(_predecessors(outcome, key))
        seen: Set[EpochKey] = set(stack)
        while stack:
            pred = stack.pop()
            if pred not in outcome.epochs:
                continue
            if not is_fully_durable(pred):
                raise ConsistencyViolation(
                    f"line 0x{line:x} of epoch {key} persisted before "
                    f"predecessor epoch {pred} was fully durable "
                    f"({len(durable_lines.get(pred, set()))}/"
                    f"{len(outcome.epochs[pred].all_lines)} lines)"
                )
            for nxt in _predecessors(outcome, pred):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)

    for record in outcome.image.history:
        if record.kind not in ("data", "eviction"):
            continue
        if record.epoch_seq < 0:
            continue  # un-epoched traffic (NP/SP-style)
        key = (record.core_id, record.epoch_seq)
        require_predecessors_durable(key, record.line)
        durable_lines.setdefault(key, set()).add(record.line)
        checked += 1
    return checked


def check_bsp_recoverable(outcome: CrashOutcome) -> int:
    """Verify BSP epoch atomicity via the undo log.

    Every data line persisted by an epoch that is not fully durable at
    the crash point must have a durable undo-log entry recording its
    pre-epoch value, so recovery can roll the epoch back.  Returns the
    number of partially-persisted lines that were covered by the log.
    """
    durable_lines: Dict[EpochKey, Set[int]] = {}
    for record in outcome.image.history:
        if record.kind in ("data", "eviction") and record.epoch_seq >= 0:
            key = (record.core_id, record.epoch_seq)
            durable_lines.setdefault(key, set()).add(record.line)

    logged: Dict[EpochKey, Set[int]] = {}
    for log_line, (data_line, _old) in outcome.image.log_entries.items():
        log_record = outcome.image.last_persist.get(log_line)
        if log_record is None:
            continue
        key = (log_record.core_id, log_record.epoch_seq)
        logged.setdefault(key, set()).add(data_line)

    covered = 0
    for key, lines in durable_lines.items():
        record = outcome.epochs.get(key)
        if record is None:
            continue
        if record.all_lines <= lines:
            continue  # fully durable: nothing to roll back
        missing = lines - logged.get(key, set())
        if missing:
            line = next(iter(missing))
            raise ConsistencyViolation(
                f"epoch {key} partially persisted line 0x{line:x} "
                "without a durable undo-log entry to roll it back"
            )
        covered += len(lines)
    return covered


def check_queue_recoverable(outcome: CrashOutcome, queue) -> int:
    """Semantic recovery check for the Figure 10 queue workload.

    ``queue`` is the :class:`~repro.workloads.micro.queue.QueueWorkload`
    whose run crashed.  The durable head cursor (if any) must not expose
    an entry whose 512-byte body is not fully durable with the values the
    insert wrote.  Returns the durable head value checked against.
    """
    return check_queue_values(outcome.image.values, queue)


def check_queue_values(values_by_line: Dict[int, Dict[int, object]],
                       queue) -> int:
    """The queue invariant over a bare ``line -> values`` durable map.

    Core of :func:`check_queue_recoverable`, split out so the crash
    sweep can re-validate against its incrementally folded value state
    without materialising a truncated image per crash point.
    """
    head_line = queue.head_addr & ~(queue.line_size - 1)
    head_values = values_by_line.get(head_line, {})
    cursor = head_values.get(queue.head_addr - head_line)
    if cursor is None:
        return 0  # head never persisted: recovery sees an empty queue
    tag, thread_id, head_count = cursor
    if tag != "head":
        raise ConsistencyViolation(f"corrupt head cursor {cursor!r}")
    # Recovery exposes the entries between the durable tail and the
    # durable head; each must be fully durable.  (A slot overwritten by a
    # wrapped-around newer insert implies -- by epoch program order --
    # that the tail had durably advanced past the old entry first.)
    tail_cursor = head_values.get(queue.tail_addr - head_line)
    durable_tail = tail_cursor[2] if tail_cursor is not None else 0
    for seq in range(durable_tail, head_count):
        slot_base = queue.slot_addr(seq)
        for offset in range(0, 512, queue.line_size):
            line = slot_base + offset
            values = values_by_line.get(line)
            expected = ("entry", thread_id, seq)
            if values is None or any(v != expected for v in values.values()):
                raise ConsistencyViolation(
                    f"durable head={head_count} exposes entry {seq} whose "
                    f"line 0x{line:x} is not durable (got {values!r})"
                )
    return head_count
