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

One :class:`DirectoryEntry` per tracked line, created on demand, serves
both engine modes: the general request classifier asks ``owner_of`` and
``sharers_of``, and the fused request paths ask ``exclusive_ok``.

Invariants (``Multicore.audit`` checks them, together with the two that
tie the directory to the L1s: every L1 copy's core is a sharer, and a
dirty L1 line's core is the owner):

* an owner is the sole sharer (``owner == c`` implies ``sharers == {c}``);
* a read by another core downgrades the owner to a sharer;
* a line with no owner and no sharers has no record at all -- entries
  are reclaimed eagerly so the table tracks only lines actually cached
  somewhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class DirectoryEntry:
    """Per-line coherence state."""

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        # Core whose L1 holds the line in M state, or None.
        self.owner: Optional[int] = None
        # Cores holding the line in S state in their L1.
        self.sharers: Set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<dir owner={self.owner} sharers={sorted(self.sharers)}>"


class Directory:
    """Machine-wide line -> :class:`DirectoryEntry` map."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        """The line's live entry, or None if untracked (never creates
        one)."""
        return self._entries.get(line)

    def owner_of(self, line: int) -> Optional[int]:
        ent = self._entries.get(line)
        return ent.owner if ent is not None else None

    def sharers_of(self, line: int) -> List[int]:
        """Cores holding a copy of ``line`` (fresh list)."""
        ent = self._entries.get(line)
        return list(ent.sharers) if ent is not None else []

    def exclusive_ok(self, line: int, core_id: int) -> bool:
        """True when ``core_id`` could take M on ``line`` without any
        invalidation or forwarding: no record, or ``core_id`` is the
        only sharer (a foreign owner is a foreign sharer) -- the guard
        the fused store paths use to stay conflict-free."""
        ent = self._entries.get(line)
        if ent is None:
            return True
        sharers = ent.sharers
        return len(sharers) == 1 and core_id in sharers

    def drop_core(self, line: int, core_id: int) -> None:
        """Remove all record of ``core_id`` caching ``line``."""
        ent = self._entries.get(line)
        if ent is None:
            return
        if ent.owner == core_id:
            ent.owner = None
        ent.sharers.discard(core_id)
        if not ent.sharers:
            del self._entries[line]

    def set_owner(self, line: int, core_id: int) -> Set[int]:
        """Grant ``core_id`` exclusive (M) ownership of ``line``.

        Returns the sharer set the grant replaced (it may hold
        ``core_id``), for a caller that still has copies to invalidate.
        """
        ent = self._entries.get(line)
        if ent is None:
            self._entries[line] = ent = DirectoryEntry()
        replaced = ent.sharers
        ent.owner = core_id
        ent.sharers = {core_id}
        return replaced

    def add_sharer(self, line: int, core_id: int) -> None:
        ent = self._entries.get(line)
        if ent is None:
            self._entries[line] = ent = DirectoryEntry()
        ent.sharers.add(core_id)
        if ent.owner is not None and ent.owner != core_id:
            # Owner downgraded to S by the read that added a sharer; it
            # already is a sharer (an owner is the sole sharer).
            ent.owner = None

    def drop_line(self, line: int) -> None:
        """Forget the line entirely (all copies invalidated)."""
        self._entries.pop(line, None)

    def clear_owner(self, line: int) -> None:
        """Downgrade the owner to a sharer (after a writeback); it
        already is the sole sharer, so dropping the owner is the whole
        job."""
        ent = self._entries.get(line)
        if ent is not None:
            ent.owner = None

    def audit(self) -> None:
        """Check the per-entry invariants; raises AssertionError."""
        for line, ent in self._entries.items():
            if not ent.sharers:
                raise AssertionError(f"empty directory entry for 0x{line:x}")
            if ent.owner is not None and ent.sharers != {ent.owner}:
                raise AssertionError(
                    f"owner {ent.owner} of 0x{line:x} is not its sole "
                    f"sharer: {sorted(ent.sharers)}"
                )
