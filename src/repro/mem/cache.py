"""Set-associative cache arrays with epoch-tagged dirty lines.

This is the hardware extension of section 4.3: cache tags in both the L1
and the LLC carry an ``EpochID`` (and, in the LLC, a ``CoreID``) for
dirty lines.  In the simulator the tag pair is represented by a direct
reference to the :class:`~repro.core.epoch.Epoch` object that last wrote
the line -- exactly the information the (CoreID, EpochID) pair encodes in
hardware, without the 3-bit wraparound bookkeeping (the wraparound limit
is enforced separately by the per-core in-flight-epoch cap).

The arrays use true LRU replacement.  Insertion is split into
``victim_for`` / ``insert`` so the caller (the machine) can resolve
persist-ordering conflicts raised by evicting a dirty, not-yet-persisted
victim *before* mutating the array.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.sim.stats import StatDomain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.epoch import Epoch


class CacheEntry:
    """One cache line's worth of state."""

    __slots__ = ("line", "dirty", "epoch", "values", "_lru")

    def __init__(self, line: int) -> None:
        self.line = line
        self.dirty = False
        # Epoch that last wrote the line, while that version is still
        # unpersisted.  None for clean lines and for dirty lines whose
        # epoch has already persisted this version.
        self.epoch: Optional["Epoch"] = None
        # Offset -> value token, populated only when value tracking is on.
        self.values: Optional[Dict[int, object]] = None
        self._lru = 0

    @property
    def unpersisted(self) -> bool:
        """True when this dirty version has not yet reached NVRAM."""
        return self.dirty and self.epoch is not None and not self.epoch.persisted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" epoch={self.epoch}" if self.epoch else ""
        return f"<line 0x{self.line:x}{' dirty' if self.dirty else ''}{tag}>"


# The replacement order: an entry's LRU tick (unique within one cache).
_BY_LRU = attrgetter("_lru")


class SetAssociativeCache:
    """An LRU set-associative cache array.

    Presence and replacement only; all coherence and persistence decisions
    live in the machine, which owns the interleaving of state changes with
    simulated time.
    """

    def __init__(
        self,
        name: str,
        num_sets: int,
        assoc: int,
        line_size: int,
        stats: StatDomain,
    ) -> None:
        if num_sets < 1 or num_sets & (num_sets - 1) or assoc < 1:
            raise ValueError(
                f"invalid cache geometry: {num_sets} sets x {assoc} "
                "(the set count must be a power of two)"
            )
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self._offset_bits = line_size.bit_length() - 1
        # A power-of-two set count turns the per-access modulo into a
        # mask.
        self._set_mask = num_sets - 1
        self._sets: list[Dict[int, CacheEntry]] = [{} for _ in range(num_sets)]
        self._stats = stats
        self._tick = 0
        # Fill count held as an attribute, merged into the stat domain
        # by flush_hot_stats at run end.
        self._n_fills = 0

    # ------------------------------------------------------------------
    # The set-index computation is inlined in every method below: they
    # sit under every memory request and a helper call per access is
    # measurable there.
    def lookup(self, line: int) -> Optional[CacheEntry]:
        """Return the entry for ``line`` or None, without touching LRU."""
        return self._sets[
            (line >> self._offset_bits) & self._set_mask].get(line)

    def dirty_under(self, lines, epoch) -> set:
        """Subset of ``lines`` resident, dirty, and tagged by ``epoch``.

        One pass replacing a per-line :meth:`lookup` loop (the flush
        begin probe walks every line of an epoch).
        """
        sets = self._sets
        offset = self._offset_bits
        mask = self._set_mask
        out = set()
        for line in lines:
            entry = sets[(line >> offset) & mask].get(line)
            if entry is not None and entry.dirty and entry.epoch is epoch:
                out.add(line)
        return out

    def touch(self, entry: CacheEntry) -> None:
        """Mark ``entry`` most-recently-used."""
        self._tick = tick = self._tick + 1
        entry._lru = tick

    def victim_for(self, line: int) -> Optional[CacheEntry]:
        """Entry that must be evicted before ``line`` can be inserted.

        Returns None when the set has a free way or already holds ``line``.
        Prefers clean victims over dirty ones (a standard writeback-cache
        replacement bias, and important here because evicting a dirty
        unpersisted line drags persist ordering into the critical path).
        """
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        if line in cache_set or len(cache_set) < self.assoc:
            return None
        # The least-recently-used entry, when clean, is also the
        # least-recently-used clean entry (LRU ticks are unique), so the
        # clean scan runs only when it is dirty.
        victim = min(cache_set.values(), key=_BY_LRU)
        if victim.dirty:
            victim = min((e for e in cache_set.values() if not e.dirty),
                         key=_BY_LRU, default=victim)
        return victim

    def insert(self, line: int) -> CacheEntry:
        """Insert (or return the existing) entry for ``line``.

        The caller must have removed any victim first; inserting into a
        full set raises, because silently dropping a possibly-dirty line
        would corrupt epoch bookkeeping.
        """
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        entry = cache_set.get(line)
        if entry is None:
            if len(cache_set) >= self.assoc:
                raise RuntimeError(
                    f"{self.name}: inserting 0x{line:x} into a full set; "
                    "evict the victim first"
                )
            entry = CacheEntry(line)
            cache_set[line] = entry
            self._n_fills += 1
        self.touch(entry)
        return entry

    def swap_in(self, line: int,
                victim: Optional[CacheEntry] = None) -> CacheEntry:
        """Replace ``victim`` (clean, same set, from ``victim_for``) with
        a fresh entry for ``line`` -- remove + insert with a single set
        resolution.  ``victim=None`` degenerates to a plain insert."""
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        if victim is not None:
            cache_set.pop(victim.line, None)
        entry = cache_set.get(line)
        if entry is None:
            if len(cache_set) >= self.assoc:
                raise RuntimeError(
                    f"{self.name}: inserting 0x{line:x} into a full set; "
                    "evict the victim first"
                )
            entry = CacheEntry(line)
            cache_set[line] = entry
            self._n_fills += 1
        self._tick = tick = self._tick + 1
        entry._lru = tick
        return entry

    def clean_fill(self, line: int):
        """Single-pass fill for the fused request paths: pick the victim
        and insert ``line`` with one set resolution.

        Returns ``(entry, victim_line)`` -- ``victim_line`` is -1 when a
        free way absorbed the fill -- or None, without mutating anything,
        when the only viable victim is dirty (the caller falls back to
        the general path, whose ``victim_for`` picks that same victim).
        The clean-victim choice matches ``victim_for``: least-recently-
        used clean entry.  The caller guarantees ``line`` misses.
        """
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        victim_line = -1
        if len(cache_set) >= self.assoc:
            # victim_for's pick, limited to clean entries.
            best = min(cache_set.values(), key=_BY_LRU)
            if best.dirty:
                best = min((e for e in cache_set.values() if not e.dirty),
                           key=_BY_LRU, default=None)
                if best is None:
                    return None
            victim_line = best.line
            del cache_set[victim_line]
        entry = CacheEntry(line)
        cache_set[line] = entry
        self._n_fills += 1
        self._tick = tick = self._tick + 1
        entry._lru = tick
        return entry, victim_line

    def remove(self, line: int) -> Optional[CacheEntry]:
        """Remove and return the entry for ``line`` if present."""
        return self._sets[
            (line >> self._offset_bits) & self._set_mask].pop(line, None)

    def flush_hot_stats(self) -> None:
        """Merge the attribute-held fill count into the stat domain."""
        if self._n_fills:
            self._stats.bump("fills", self._n_fills)
            self._n_fills = 0

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[CacheEntry]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_entries(self) -> Iterator[CacheEntry]:
        for entry in self.entries():
            if entry.dirty:
                yield entry

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
