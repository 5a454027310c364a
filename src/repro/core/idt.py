"""Inter-thread Dependence Tracking (section 3.1).

On an inter-thread conflict, instead of flushing the source epoch in the
critical path, IDT records a (source epoch -> dependent epoch) ordering
edge and lets the request complete.  The arbiter enforces the edge
offline: the dependent epoch will not flush until the source persists,
and the source's arbiter informs the dependent's when it does.

Hardware provides a fixed number of dependence/inform register pairs per
in-flight epoch (4 in the paper, section 4.3).  When either side runs out
of registers, the conflict falls back to the LB behaviour: an online
flush of the source epoch chain.  Because the epochs of a source core
persist in order, an edge to epoch *(c, e)* subsumes any edge to an
earlier epoch of core *c* -- the tracker exploits this to keep at most
one register per (dependent epoch, source core) pair, the compression a
CoreID-indexed register file gives hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.stats import StatDomain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.epoch import Epoch


class IDTracker:
    """Machine-wide front end for recording IDT edges."""

    def __init__(self, registers_per_epoch: int, stats: StatDomain) -> None:
        if registers_per_epoch < 1:
            raise ValueError("need at least one IDT register pair per epoch")
        self._registers = registers_per_epoch
        self._stats = stats

    def try_record(self, source: "Epoch", dependent: "Epoch") -> bool:
        """Attempt to record ``source`` happens-before ``dependent``.

        Returns True when the edge is tracked (or was unnecessary), False
        when register pressure forces the caller to fall back to an
        online flush.
        """
        if source.persisted:
            return True
        if source.core_id == dependent.core_id:
            raise ValueError("IDT edges are inter-thread only")
        dependent.all_sources.add(source.key)
        if source in dependent.idt_sources:
            return True

        # Subsumption: an existing edge to a *newer* epoch of the same
        # source core already implies this one; an edge to an *older*
        # epoch of that core can be upgraded in place.
        superseded: Optional[Epoch] = None
        for existing in dependent.idt_sources:
            if existing.core_id != source.core_id:
                continue
            if existing.seq >= source.seq:
                return True
            superseded = existing
            break
        if superseded is not None:
            dependent.idt_sources.discard(superseded)
            superseded.idt_dependents.discard(dependent)

        if (
            len(dependent.idt_sources) >= self._registers
            or len(source.idt_dependents) >= self._registers
        ):
            self._stats.bump("idt_register_overflow")
            if superseded is not None:
                # Restore the edge we tentatively removed.
                dependent.idt_sources.add(superseded)
                superseded.idt_dependents.add(dependent)
            return False

        dependent.idt_sources.add(source)
        source.idt_dependents.add(dependent)
        self._stats.bump("idt_edges")
        return True
