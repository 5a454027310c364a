"""Set-associative cache arrays with epoch-tagged dirty lines.

This is the hardware extension of section 4.3: cache tags in both the L1
and the LLC carry an ``EpochID`` (and, in the LLC, a ``CoreID``) for
dirty lines.  In the simulator the tag pair is represented by a direct
reference to the :class:`~repro.core.epoch.Epoch` object that last wrote
the line -- exactly the information the (CoreID, EpochID) pair encodes in
hardware, without the 3-bit wraparound bookkeeping (the wraparound limit
is enforced separately by the per-core in-flight-epoch cap).

The arrays use true LRU replacement, held as each set's dict key order,
least recently used first: a fill appends its line, a touch moves the
line's key to the end, and a victim is the set's first clean key, else
its first key.  A per-set hint (``_mru``) names the line last appended;
every append writes it, so while that line is in its set it is the last
key, and a touch of it -- a run of hits on one line -- moves nothing.
The hottest touches (a core's own L1 hits in ``Core._next`` and
``Core._drain``, the machine's fused LLC touch and clean store) repeat
:meth:`SetAssociativeCache.touch` inline under the same rule;
:meth:`SetAssociativeCache.audit` checks the hint.

Insertion is split into ``victim_for`` / ``insert`` so the caller (the
machine) can resolve persist-ordering conflicts raised by evicting a
dirty, not-yet-persisted victim *before* mutating the array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.sim.stats import StatDomain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.epoch import Epoch


class CacheEntry:
    """One cache line's worth of state."""

    __slots__ = ("line", "dirty", "epoch", "values")

    def __init__(self, line: int) -> None:
        self.line = line
        self.dirty = False
        # Epoch that last wrote the line, while that version is still
        # unpersisted.  None for clean lines and for dirty lines whose
        # epoch has already persisted this version.
        self.epoch: Optional["Epoch"] = None
        # Offset -> value token, populated only when value tracking is on.
        self.values: Optional[Dict[int, object]] = None

    @property
    def unpersisted(self) -> bool:
        """True when this dirty version has not yet reached NVRAM."""
        return self.dirty and self.epoch is not None and not self.epoch.persisted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" epoch={self.epoch}" if self.epoch else ""
        return f"<line 0x{self.line:x}{' dirty' if self.dirty else ''}{tag}>"


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
        # line -> entry per set, least recently used first.
        self._sets: list[Dict[int, CacheEntry]] = [{} for _ in range(num_sets)]
        # Per set, the line last appended (-1: none yet).
        self._mru = [-1] * num_sets
        self._stats = stats
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
        """Mark ``entry`` most-recently-used: move its key to the end of
        its set, unless the set's hint names it (it is last already)."""
        line = entry.line
        index = (line >> self._offset_bits) & self._set_mask
        if self._mru[index] != line:
            cache_set = self._sets[index]
            del cache_set[line]
            cache_set[line] = entry
            self._mru[index] = line

    def victim_for(self, line: int) -> Optional[CacheEntry]:
        """Entry that must be evicted before ``line`` can be inserted.

        Returns None when the set has a free way or already holds ``line``.
        Prefers clean victims over dirty ones (a standard writeback-cache
        replacement bias, and important here because evicting a dirty
        unpersisted line drags persist ordering into the critical path):
        the first clean key in LRU order, else the first key.
        """
        cache_set = self._sets[(line >> self._offset_bits) & self._set_mask]
        if line in cache_set or len(cache_set) < self.assoc:
            return None
        for victim in cache_set.values():
            if not victim.dirty:
                return victim
        return next(iter(cache_set.values()))

    def insert(self, line: int) -> CacheEntry:
        """Insert (or touch and return the existing) entry for ``line``.

        The caller must have removed any victim first; inserting into a
        full set raises, because silently dropping a possibly-dirty line
        would corrupt epoch bookkeeping.
        """
        index = (line >> self._offset_bits) & self._set_mask
        cache_set = self._sets[index]
        entry = cache_set.get(line)
        if entry is None:
            if len(cache_set) >= self.assoc:
                raise RuntimeError(
                    f"{self.name}: inserting 0x{line:x} into a full set; "
                    "evict the victim first"
                )
            entry = CacheEntry(line)
            self._n_fills += 1
        elif self._mru[index] == line:
            return entry
        else:
            del cache_set[line]
        cache_set[line] = entry
        self._mru[index] = line
        return entry

    def clean_fill(self, line: int):
        """Pick a clean victim and insert ``line`` with one set
        resolution: the fused request paths' fill, and the general L1
        fill's once any dirty victim is written back.

        Returns ``(entry, victim_line)`` -- ``victim_line`` is -1 when a
        free way absorbed the fill -- or None, without mutating anything,
        when every way is dirty (the caller writes back or falls back to
        the general path, whose ``victim_for`` picks the LRU dirty line).
        The victim is ``victim_for``'s pick when that is clean: the
        first clean key in LRU order.  The caller guarantees ``line``
        misses.
        """
        index = (line >> self._offset_bits) & self._set_mask
        cache_set = self._sets[index]
        victim_line = -1
        if len(cache_set) >= self.assoc:
            for victim_line, victim in cache_set.items():
                if not victim.dirty:
                    break
            else:
                return None
            del cache_set[victim_line]
        entry = CacheEntry(line)
        cache_set[line] = entry
        self._mru[index] = line
        self._n_fills += 1
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

    def audit(self) -> None:
        """Check the recency hint: a set holding its hinted line holds it
        as its last key.  Raises AssertionError."""
        for cache_set, hinted in zip(self._sets, self._mru):
            if hinted in cache_set and next(reversed(cache_set)) != hinted:
                raise AssertionError(
                    f"{self.name}: stale recency hint 0x{hinted:x} is not "
                    "its set's most recently used line"
                )
