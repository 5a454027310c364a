"""Crash injection.

A crash is simulated by stopping the event engine at an arbitrary cycle:
everything the memory controllers have acknowledged by then is durable
(it is in the :class:`~repro.mem.nvram.NVRAMImage`); everything still in
caches, write buffers, or in flight to the controllers is lost.  The
outcome bundles the durable image with the epoch ground truth the
checkers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.epoch import Epoch
from repro.mem.nvram import NVRAMImage
from repro.system import Multicore


@dataclass
class EpochRecord:
    """Ground truth about one epoch, for the checkers."""

    core_id: int
    seq: int
    all_lines: frozenset
    source_keys: frozenset  # (core_id, seq) of IDT sources
    persisted: bool

    @property
    def key(self) -> Tuple[int, int]:
        return (self.core_id, self.seq)


@dataclass
class CrashOutcome:
    """Everything that survives the crash, plus checker ground truth."""

    crash_cycle: int
    image: NVRAMImage
    epochs: Dict[Tuple[int, int], EpochRecord]
    # Per-core index over ``epochs``, built once on first use.  The
    # checkers ask for a core's epochs on every predecessor walk; the
    # old per-call filter-and-sort was quadratic over sweep-sized
    # histories.
    _by_core: Optional[Dict[int, List[EpochRecord]]] = field(
        default=None, init=False, repr=False, compare=False,
    )

    def epochs_of_core(self, core_id: int) -> List[EpochRecord]:
        if self._by_core is None:
            by_core: Dict[int, List[EpochRecord]] = {}
            for record in self.epochs.values():
                by_core.setdefault(record.core_id, []).append(record)
            for records in by_core.values():
                records.sort(key=lambda r: r.seq)
            self._by_core = by_core
        return self._by_core.get(core_id, [])


def _record_epoch(epoch: Epoch) -> EpochRecord:
    return EpochRecord(
        core_id=epoch.core_id,
        seq=epoch.seq,
        all_lines=frozenset(epoch.all_lines),
        source_keys=frozenset(epoch.all_sources),
        persisted=epoch.persisted,
    )


def snapshot_epochs(machine: Multicore) -> Dict[Tuple[int, int], EpochRecord]:
    """Capture every epoch the machine created (requires
    ``keep_epoch_log=True``)."""
    records: Dict[Tuple[int, int], EpochRecord] = {}
    for mgr in machine.managers:
        if not mgr.keep_retired:
            raise ValueError(
                "snapshot_epochs needs a machine built with "
                "keep_epoch_log=True"
            )
        for epoch in list(mgr.retired) + list(mgr.window):
            record = _record_epoch(epoch)
            records[record.key] = record
    return records


def run_with_crash(
    machine: Multicore,
    programs: List,
    crash_cycle: int,
) -> CrashOutcome:
    """Run ``programs`` and crash the machine at ``crash_cycle``.

    The machine must have been built with ``track_values=True``,
    ``track_persist_order=True`` and ``keep_epoch_log=True`` so the
    checkers have their ground truth.
    """
    if not machine.image.track_order:
        raise ValueError("run_with_crash needs track_persist_order=True")
    machine.run(programs, max_cycles=crash_cycle, drain=False)
    return CrashOutcome(
        crash_cycle=machine.engine.now,
        image=machine.image,
        epochs=snapshot_epochs(machine),
    )


def capture_run(
    machine: Multicore,
    programs: List,
    max_cycles: Optional[int] = None,
) -> CrashOutcome:
    """Run ``programs`` to completion (with drain) and capture the full
    ordered persist history plus epoch ground truth.

    The returned outcome is the *uncrashed* endpoint: every truncation
    of its history (:func:`truncate_outcome`) is a crash point the
    machine could actually have produced, which is what the exhaustive
    sweep (:mod:`repro.recovery.crashsweep`) iterates over -- one run,
    ``len(history) + 1`` crash points.
    """
    if not machine.image.track_order:
        raise ValueError("capture_run needs track_persist_order=True")
    machine.run(programs, max_cycles=max_cycles, drain=True)
    return CrashOutcome(
        crash_cycle=machine.engine.now,
        image=machine.image,
        epochs=snapshot_epochs(machine),
    )


def truncate_outcome(outcome: CrashOutcome, index: int) -> CrashOutcome:
    """The crash outcome had the machine died after ``index`` persists.

    Rebuilds the durable image from the first ``index`` records of the
    captured history by replaying the per-record payloads
    (``history_values`` / ``history_log``), without re-running the
    machine.  ``index`` ranges from 0 (nothing durable) to
    ``len(history)`` (the full image).  The epoch ground truth is shared
    with ``outcome``: it describes the whole run, exactly as a real
    crash at that instant would have left it.
    """
    source = outcome.image
    history = source.history
    if not 0 <= index <= len(history):
        raise ValueError(
            f"truncation index {index} outside [0, {len(history)}]"
        )
    image = NVRAMImage(track_order=True)
    image.history = history[:index]
    image.history_values = source.history_values[:index]
    for i in range(index):
        record = history[i]
        image.last_persist[record.line] = record
        values = image.history_values[i]
        if values is not None:
            image.values[record.line] = values
        payload = source.history_log.get(i)
        if payload is not None:
            image.log_entries[record.line] = payload
            image.history_log[i] = payload
    image._next_index = index
    return CrashOutcome(
        crash_cycle=history[index - 1].time if index else 0,
        image=image,
        epochs=outcome.epochs,
    )
