"""MSI directory coherence.

The LLC directory tracks, per line, which core (if any) holds the line
modified in its private L1 and which cores hold shared copies.  This is
the machinery that *detects* inter-thread conflicts: a request that finds
the line dirty under another core's unpersisted epoch (whether the dirty
copy sits in the remote L1 or has been written back to the LLC) creates a
new inter-thread persist-ordering constraint (section 3.1).

The directory here is behavioural, not message-accurate: the machine
consults and updates it atomically per transaction and accounts latency
separately (remote-L1 forwarding costs an extra mesh round trip).

Two implementations:

* :class:`Directory` (fast mode) keeps two flat dicts -- ``line ->
  owner core`` and ``line -> sharer bitmask`` -- so the hot queries the
  request path runs per access (``owner_of``, ``exclusive_ok``) are one
  dict probe plus integer arithmetic, with no per-line entry object and
  no sharer-set allocation anywhere on the clean path.  Only it serves
  the fused request paths (``exclusive_ok``, ``refill_sharer``,
  ``refill_owner``) and the ``peek`` snapshot the tests read.
* :class:`ReferenceDirectory` (``REPRO_SLOW_ENGINE=1``) is the
  original per-line :class:`DirectoryEntry` form, kept deliberately
  plain as the executable specification the determinism-digest tests
  compare against.  It answers only what the general request
  classifier asks (reference mode never runs the fused paths): the
  owner/sharer queries and the five state updates.

Shared invariants (asserted by the equivalence tests):

* an owner always appears in the sharer record, and an *exclusive*
  owner is the only sharer (``owner == c`` implies ``sharers == {c}``);
* a read by another core downgrades the owner to a sharer;
* a line with no owner and no sharers has no record at all -- entries
  are reclaimed eagerly so the table tracks only lines actually cached
  somewhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set


class DirectoryEntry:
    """Per-line coherence state (reference representation)."""

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        # Core whose L1 holds the line in M state, or None.
        self.owner: Optional[int] = None
        # Cores holding the line in S state in their L1.
        self.sharers: Set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<dir owner={self.owner} sharers={sorted(self.sharers)}>"


class Directory:
    """Machine-wide line -> coherence-state map (flat bitmask form).

    ``_owner`` maps a line to its M-state core; a line is present iff it
    has an owner.  ``_sharers`` maps a line to a bitmask of cores with a
    cached copy; a line is present iff the mask is nonzero.  Presence in
    ``_owner`` implies ``_sharers[line] == 1 << owner``.
    """

    __slots__ = ("_owner", "_sharers")

    def __init__(self) -> None:
        self._owner: Dict[int, int] = {}
        self._sharers: Dict[int, int] = {}

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        """A snapshot entry if the line is tracked, without creating one.

        Builds a fresh :class:`DirectoryEntry` view (tests and debugging
        only -- the hot paths use :meth:`owner_of` / :meth:`sharers_of`
        / :meth:`exclusive_ok`, which never allocate).
        """
        mask = self._sharers.get(line)
        if mask is None:
            return None
        ent = DirectoryEntry()
        ent.owner = self._owner.get(line)
        ent.sharers = set(_decode(mask))
        return ent

    def owner_of(self, line: int) -> Optional[int]:
        return self._owner.get(line)

    def sharers_of(self, line: int) -> List[int]:
        """Cores holding a copy of ``line`` (ascending, fresh list)."""
        mask = self._sharers.get(line)
        return _decode(mask) if mask else []

    def drop_core(self, line: int, core_id: int) -> None:
        """Remove all record of ``core_id`` caching ``line``."""
        sharers = self._sharers
        mask = sharers.get(line)
        if mask is None:
            return
        owner = self._owner
        if owner.get(line) == core_id:
            del owner[line]
        mask &= ~(1 << core_id)
        if mask:
            sharers[line] = mask
        else:
            del sharers[line]
            owner.pop(line, None)

    def set_owner(self, line: int, core_id: int) -> None:
        """Grant ``core_id`` exclusive (M) ownership of ``line``."""
        owner = self._owner
        if owner.get(line) == core_id:
            # Already the exclusive owner (an owner is always the sole
            # sharer).  Streaming store bursts hit this on every op.
            return
        owner[line] = core_id
        self._sharers[line] = 1 << core_id

    def add_sharer(self, line: int, core_id: int) -> None:
        sharers = self._sharers
        sharers[line] = sharers.get(line, 0) | (1 << core_id)
        cur = self._owner.get(line)
        if cur is not None and cur != core_id:
            # Owner downgraded to S by the read that added a sharer; its
            # bit is already in the mask (owner => sole sharer).
            del self._owner[line]

    def exclusive_ok(self, line: int, core_id: int) -> bool:
        """True when ``core_id`` could take M on ``line`` without any
        invalidation or forwarding: no record, or no *foreign* owner and
        no foreign sharers.  Two dict probes, no allocation -- the guard
        the fused store paths use to stay conflict-free."""
        cur = self._owner.get(line)
        if cur is not None and cur != core_id:
            return False
        mask = self._sharers.get(line)
        return mask is None or not (mask & ~(1 << core_id))

    def refill_sharer(self, line: int, victim_line: int,
                      core_id: int) -> None:
        """``drop_core(victim_line)`` + ``add_sharer(line)`` in one call
        -- the fused load-fill path's directory update (``victim_line``
        is -1 when a free way absorbed the fill)."""
        sharers = self._sharers
        owner = self._owner
        bit = 1 << core_id
        if victim_line >= 0:
            mask = sharers.get(victim_line)
            if mask is not None:
                if owner.get(victim_line) == core_id:
                    del owner[victim_line]
                mask &= ~bit
                if mask:
                    sharers[victim_line] = mask
                else:
                    del sharers[victim_line]
                    owner.pop(victim_line, None)
        sharers[line] = sharers.get(line, 0) | bit
        cur = owner.get(line)
        if cur is not None and cur != core_id:
            del owner[line]

    def refill_owner(self, line: int, victim_line: int,
                     core_id: int) -> None:
        """``drop_core(victim_line)`` + ``set_owner(line)`` in one call
        -- the fused store-fill path's directory update."""
        sharers = self._sharers
        owner = self._owner
        bit = 1 << core_id
        if victim_line >= 0:
            mask = sharers.get(victim_line)
            if mask is not None:
                if owner.get(victim_line) == core_id:
                    del owner[victim_line]
                mask &= ~bit
                if mask:
                    sharers[victim_line] = mask
                else:
                    del sharers[victim_line]
                    owner.pop(victim_line, None)
        if owner.get(line) != core_id:
            owner[line] = core_id
            sharers[line] = bit

    def drop_line(self, line: int) -> None:
        """Forget the line entirely (all copies invalidated)."""
        self._sharers.pop(line, None)
        self._owner.pop(line, None)

    def clear_owner(self, line: int) -> None:
        """Downgrade the owner to a sharer (after a writeback).

        The owner's bit is already in the sharer mask (an owner is the
        sole sharer), so dropping the owner mapping is the whole job.
        """
        self._owner.pop(line, None)


def _decode(mask: int) -> List[int]:
    """Core ids set in ``mask``, ascending."""
    cores: List[int] = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class ReferenceDirectory:
    """The per-line-entry directory (seed form, reference mode).

    Kept as the straightforward executable specification: one
    :class:`DirectoryEntry` per tracked line, a sharer *set* per entry.
    The determinism-digest matrix asserts :class:`Directory` changes
    nothing observable relative to this.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, line: int) -> DirectoryEntry:
        ent = self._entries.get(line)
        if ent is None:
            ent = DirectoryEntry()
            self._entries[line] = ent
        return ent

    def owner_of(self, line: int) -> Optional[int]:
        ent = self._entries.get(line)
        return ent.owner if ent else None

    def sharers_of(self, line: int) -> Iterable[int]:
        """Cores holding a copy of ``line`` (fresh list)."""
        ent = self._entries.get(line)
        return list(ent.sharers) if ent else []

    def drop_core(self, line: int, core_id: int) -> None:
        """Remove all record of ``core_id`` caching ``line``."""
        ent = self._entries.get(line)
        if ent is None:
            return
        if ent.owner == core_id:
            ent.owner = None
        ent.sharers.discard(core_id)
        if ent.owner is None and not ent.sharers:
            del self._entries[line]

    def set_owner(self, line: int, core_id: int) -> None:
        """Grant ``core_id`` exclusive (M) ownership of ``line``."""
        ent = self.entry(line)
        if ent.owner == core_id:
            # Already the exclusive owner (``owner == c`` implies
            # ``sharers == {c}``: any other sharer would have cleared the
            # owner field).  Streaming store bursts hit this on every op;
            # skip the per-call sharer-set allocation.
            return
        ent.owner = core_id
        ent.sharers = {core_id}

    def add_sharer(self, line: int, core_id: int) -> None:
        ent = self.entry(line)
        ent.sharers.add(core_id)
        if ent.owner is not None and ent.owner != core_id:
            # Owner was downgraded to S by the read that added a sharer.
            ent.sharers.add(ent.owner)
            ent.owner = None

    def drop_line(self, line: int) -> None:
        """Forget the line entirely (all copies invalidated)."""
        self._entries.pop(line, None)

    def clear_owner(self, line: int) -> None:
        """Downgrade the owner to a sharer (after a writeback)."""
        ent = self._entries.get(line)
        if ent and ent.owner is not None:
            ent.sharers.add(ent.owner)
            ent.owner = None
