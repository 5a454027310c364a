"""The epoch flush protocol for multi-banked LLCs (section 4.1, Figure 8).

A flush of epoch E proceeds in four steps, orchestrated by the per-core
arbiter sitting in the L1 controller:

1. The arbiter broadcasts *FlushEpoch* to every LLC bank and the L1
   flush engine writes back E's lines still in the L1 (*FlushLines*).
2. Each bank flushes its share of E's lines to its memory controller;
   the controller answers each durable write with a *PersistAck*.
3. A bank that has collected PersistAcks for all the lines it flushed
   sends a *BankAck* to the arbiter.  Every bank participates -- a bank
   with no lines of E acks immediately -- because in a banked LLC no
   bank may move to the next epoch until *all* banks are done
   (Figure 7's violation is exactly a bank acting on local knowledge).
4. When the arbiter holds BankAcks from all banks it broadcasts
   *PersistCMP*; only then is the epoch persisted and its successor
   eligible to flush.

Flushes are non-invalidating by default (clwb-like): lines stay cached
and merely become clean.  In CLFLUSH mode the flush also invalidates
every cached copy, which the paper measures as ~30% slower because the
working set must be refetched from NVRAM.

Implementation notes (the flush fast path; docs/simulation-model.md has
the full invariant list):

* One :class:`FlushOperation` is owned and reused by each arbiter --
  ``begin(epoch)`` resets its array-indexed per-bank state instead of
  allocating dicts and closures per flush.  The reset is O(banks
  touched), not O(banks): the pool maintains the invariant that
  schedule/position/outstanding slots are clean between flushes
  (restored for exactly the banks the previous flush used), and the
  state byte-array resets with one template copy.
* The per-bank issue schedule is precomputed in ``begin``: issue times,
  controller arrival times, and the FIFO service reservation for every
  (bank -> controller) run are all known up front, so each bank needs
  one self-rescheduling walker event (:meth:`FlushOperation._issue_bank`)
  instead of an event per line, and the memory controller needs one
  commit-walker per run instead of a closure per line.  Every bank takes
  this one walk, one-line banks and one-line epochs included.
* Cache-side transitions still happen at each line's exact issue time
  (via the walker), and NVRAM commits at each line's exact completion
  time (via the run walker) -- which is what keeps conflict
  classification and crash truncation identical to per-line issue.
* Broadcast legs of the handshake cost O(banks *holding lines*)
  events, not O(banks): the FlushEpoch legs to idle banks and the
  whole PersistCMP broadcast are *virtual*, and so is BankAck
  delivery when fault injection is off -- an ack's arrival time is
  fully determined at send time and nothing observes it in flight, so
  each send folds into the ack count and a running arrival *deadline*
  instead of becoming an event, and
  :meth:`FlushOperation._acks_complete` schedules PersistCMP at the
  deadline.  Idle banks (immediate acks) are pre-counted at ``begin``
  the same way.  Fault-injected runs keep per-ack events (drops and
  detours perturb arrival times), which is also what keeps the retry
  state machine observable.  The virtual legs are part of the model,
  not only a saving: real fault-free ack events keep every cycle but
  move PersistCMP among the events of its cycle.
* Handshake *message* counts (as opposed to simulator events) are
  accounted per flush into the core's digest-invisible
  :class:`~repro.sim.stats.HandshakeStats`; batching never changes a
  count, because messages are counted per logical hop, not per event.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.epoch import Epoch
from repro.sim.config import FlushMode
from repro.sim.faults import ProtocolError, backoff_cycles
from repro.sim.stats import HandshakeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import Multicore

# Cycles between successive line writebacks issued by one flush engine
# (the engine walks its per-epoch set bitmap; section 4.3).
FLUSH_PIPELINE_INTERVAL = 4

# Per-bank handshake states, in strict forward order.  A bank that has
# left _ISSUING can never re-enter it within one flush, and _ACKED is
# terminal: the state machine makes a double BankAck structurally
# impossible (it raises instead of corrupting the ack count).
_IDLE = 0
_ISSUING = 1
_ISSUE_DONE = 2
_ACK_SENT = 3
_ACKED = 4

# Message-count sink for standalone FlushOperation construction (unit
# tests building the op without a full machine); real machines hand
# every flush op the per-core HandshakeStats instead.
_NULL_HANDSHAKE = HandshakeStats()


__all__ = ["FlushOperation", "ProtocolError", "FLUSH_PIPELINE_INTERVAL"]


class FlushOperation:
    """The flush-handshake engine of one arbiter (pooled, reusable).

    ``begin(epoch)`` starts one epoch flush; the object recycles itself
    when PersistCMP fires, so an arbiter drives all its flushes through
    a single instance.
    """

    __slots__ = (
        "_machine", "_on_done", "_engine", "_config", "_mesh", "_amap",
        "_stats", "_ideal", "_invalidate", "_num_banks", "_epoch",
        "_bank_outstanding", "_bank_state", "_bank_sched", "_bank_pos",
        "_bank_cbs", "_acks_received", "_line_shift", "_n_mcs",
        "_faults", "_arbiter", "_acked_template", "_used", "_delivery",
        "_bcast_delay", "_ack_deadline", "_rt_desc", "_rt_core",
        "_handshake_all", "_hs", "_flush_msgs",
    )

    def __init__(
        self,
        machine: "Multicore",
        on_done: Callable[[Epoch], None],
        arbiter=None,
    ) -> None:
        self._machine = machine
        self._on_done = on_done
        self._engine = machine.engine
        self._config = machine.config
        self._mesh = machine.mesh
        self._amap = machine.amap
        self._stats = machine.stats.domain("flush")
        # Fault injection (sim/faults.py): BankAck drops and detours.
        # ``arbiter`` owns the retry/drop/delay counters; it is None
        # only for standalone test construction, where faults are off.
        self._faults = getattr(machine, "faults", None)
        self._arbiter = arbiter
        self._ideal = self._config.ideal_flush_coordination
        self._invalidate = self._config.flush_mode is FlushMode.CLFLUSH
        n = self._config.llc_banks
        self._num_banks = n
        # Inlined address-map arithmetic for the begin() hot loop.
        self._line_shift = self._config.offset_bits
        self._n_mcs = self._config.num_memory_controllers
        self._epoch: Optional[Epoch] = None
        # Array-indexed per-bank accounting.  Invariant between
        # flushes: outstanding == 0, pos == 0, sched is None for every
        # bank (begin() relies on it; _persist_cmp restores it for the
        # banks the finished flush used).
        self._bank_outstanding = [0] * n
        self._bank_state = bytearray(n)
        # Idle banks' acks are virtual (counted at begin, arrival folded
        # into the deadline), so the template plants them directly in
        # the terminal state; begin() rewinds the flushing banks.
        self._acked_template = bytes([_ACKED]) * n
        # Per-bank issue schedule: [t_issue, line, write_run, run_pos,
        # in_l1] entries sorted by issue time, walked by _issue_bank.
        self._bank_sched: List[Optional[List[list]]] = [None] * n
        self._bank_pos = [0] * n
        # One PersistAck receiver per bank, built once for the pool's
        # lifetime (no per-line callback allocation).
        self._bank_cbs = [partial(self._line_persisted, b) for b in range(n)]
        self._acks_received = 0
        self._used: List[int] = []
        self._delivery = None
        self._bcast_delay = 0
        # Latest known BankAck arrival time (absolute) for the flush in
        # flight; _acks_complete honours it when scheduling PersistCMP.
        self._ack_deadline = 0
        # Banks in descending round-trip order for the initiating core
        # (built once -- the core is fixed per arbiter; _rt_core guards
        # the standalone-construction case).  The idle-ack deadline of
        # a flush is the first bank of this order that is not flushing.
        self._rt_desc: List[int] = []
        self._rt_core: Optional[int] = None
        self._handshake_all = getattr(machine, "handshake", None)
        self._hs: HandshakeStats = _NULL_HANDSHAKE
        self._flush_msgs = 0

    @property
    def epoch(self) -> Optional[Epoch]:
        return self._epoch

    # ------------------------------------------------------------------
    def _setup_core(self, core: int) -> None:
        """Per-flush latency/accounting context for the initiating core."""
        if self._handshake_all is not None:
            self._hs = self._handshake_all[core]
        self._delivery = self._mesh.c2b[core]
        self._bcast_delay = self._mesh.broadcast_from_core(core)
        if self._rt_core != core:
            delivery = self._delivery
            self._rt_desc = sorted(
                range(self._num_banks), key=lambda b: (-delivery[b], b)
            )
            self._rt_core = core

    def _idle_ack_deadline(self, now: int) -> int:
        """Arrival time of the last idle bank's BankAck for this flush.

        The banks with nothing to flush (everyone not in ``_used``) ack
        as soon as FlushEpoch reaches them, so each arrives back at
        ``now + 2 * delivery[bank]`` -- a pure core<->bank mesh round
        trip.  Those acks are *virtual*: nothing observes one in
        flight and their message cost is charged at ``begin``.  An idle
        ack usually lands before every flushing bank's, but not always:
        a flushing bank whose lines all left the caches before issue
        acks ``2 * delivery[bank]`` after ``begin`` (plus the L1 leg),
        and a farther idle bank lands later.  Completion is ``max`` over
        ack arrivals either way, so pre-counting the idle acks and
        folding this deadline into ``_ack_deadline`` (which only ever
        grows) is exact -- and costs zero simulator events per flush.
        """
        if self._ideal:
            return now
        used = self._used
        delivery = self._delivery
        for bank in self._rt_desc:
            if bank not in used:
                return now + 2 * delivery[bank]
        return now

    # ------------------------------------------------------------------
    def _fault_delivery_extras(
        self, core: int, seq: int, banks
    ) -> Tuple[Dict[int, int], int]:
        """FlushEpoch-leg fault perturbations for this flush's banks.

        Each bank's FlushEpoch copy independently draws its drop,
        duplication and link-delay faults.  Returns ``(extras, msgs)``:
        ``extras[bank]`` is the extra delivery latency of the bank's
        copy, and ``msgs`` the extra FlushEpoch messages
        (retransmissions plus duplicates) to charge.  A dropped copy is
        retransmitted by the arbiter after ``flush_epoch_timeout`` with
        exponential backoff; the watchdog turns a chain past
        ``max_flush_epoch_retries`` into a :class:`ProtocolError`.
        """
        faults = self._faults
        cfg = faults.config
        arb = self._arbiter
        extras: Dict[int, int] = {}
        msgs = 0
        for bank in banks:
            extra = 0
            resends = faults.flush_epoch_resends(core, bank, seq)
            if resends:
                if resends > cfg.max_flush_epoch_retries:
                    raise ProtocolError(
                        f"FlushEpoch retry chain for bank {bank} of "
                        f"core {core} epoch seq {seq} exceeded "
                        f"bound {cfg.max_flush_epoch_retries} "
                        f"({resends} resends)"
                    )
                extra += backoff_cycles(cfg.flush_epoch_timeout, resends)
                msgs += resends
                if arb is not None:
                    arb.note_fault("flush_epoch_drops", resends)
            if faults.flush_epoch_dup(core, bank, seq):
                # The duplicate copy is ignored by the bank (the
                # handshake is idempotent); only the message count
                # observes it.
                msgs += 1
                if arb is not None:
                    arb.note_fault("flush_epoch_dups")
            hops = faults.link_delay(core, bank, seq)
            if hops:
                extra += self._mesh.detour_latency(hops)
                if arb is not None:
                    arb.note_fault("flush_link_delays")
            if extra:
                extras[bank] = extra
        return extras, msgs

    # ------------------------------------------------------------------
    def begin(self, epoch: Epoch) -> None:
        if self._epoch is not None:
            raise RuntimeError(
                f"flush of {self._epoch} still in flight; cannot begin "
                f"{epoch}"
            )
        self._epoch = epoch
        epoch.flush_active = True
        machine = self._machine
        machine._note_epoch_flush(len(epoch.lines))

        core = epoch.core_id
        engine = self._engine
        now = engine.now
        ideal = self._ideal
        interval = FLUSH_PIPELINE_INTERVAL
        llc_latency = self._config.llc_latency
        self._setup_core(core)

        # Partition the epoch's lines by owning bank.
        num_banks = self._num_banks
        shift = self._line_shift
        epoch_lines = epoch.lines
        per_bank: Dict[int, List[int]] = {}
        for line in sorted(epoch_lines):
            bank = (line >> shift) % num_banks
            bucket = per_bank.get(bank)
            if bucket is None:
                per_bank[bank] = [line]
            else:
                bucket.append(line)

        delivery = self._delivery
        b2mc = self._mesh.b2mc
        mcs = machine.mcs
        l1 = machine.l1s[core]
        # Bulk residency probe: one pass over the epoch's lines instead
        # of a lookup call per line in the per-bank loop below.
        l1_resident = l1.dirty_under(epoch_lines, epoch)
        seq = epoch.seq
        faults = self._faults
        fault_extras: Optional[Dict[int, int]] = None
        fe_msgs = 0
        if faults is not None and faults.flush_epoch_active:
            fault_extras, fe_msgs = self._fault_delivery_extras(
                core, seq, sorted(per_bank)
            )
        state = self._bank_state
        state[:] = self._acked_template
        sched = self._bank_sched
        used = self._used
        used.clear()
        n_mcs = self._n_mcs
        for bank in sorted(per_bank):
            lines = per_bank[bank]
            used.append(bank)
            hop = 0 if ideal else delivery[bank]
            if fault_extras is not None:
                hop += fault_extras.get(bank, 0)
            state[bank] = _ISSUING
            base = now + hop
            entries: List[list] = []
            monotone = True
            prev = -1
            for i, line in enumerate(lines):
                t = base + i * interval
                in_l1 = line in l1_resident
                if in_l1:
                    # Step 1: FlushLines -- L1 writes the line back
                    # through the mesh to the bank before the bank can
                    # persist it.
                    t += llc_latency
                if t < prev:
                    monotone = False
                prev = t
                # The in_l1 bit lets the issue walker skip the L1 probe
                # for LLC-resident lines: the epoch is complete when its
                # flush begins, so a line can move L1 -> LLC mid-flush
                # (eviction writeback) but can never become newly dirty
                # in the L1 under this epoch.
                entries.append([t, line, None, 0, in_l1])
            # Stable sort by issue time: mixed L1/LLC residency can make
            # the raw sequence non-monotone, and both the walker and the
            # controller FIFO consume lines in issue order.  Uniform
            # residency (the common case) is already sorted.
            if not monotone:
                entries.sort(key=_issue_time)
            # Reserve the controller FIFO per (bank -> MC) run; each line
            # arrives at its issue time plus the bank->MC leg.
            on_line = self._bank_cbs[bank]
            runs: Dict[int, Tuple[List[int], List[int], List[list]]] = {}
            for entry in entries:
                mc_id = (entry[1] >> shift) % n_mcs
                run = runs.get(mc_id)
                if run is None:
                    run = runs[mc_id] = ([], [], [])
                run[0].append(entry[0] if ideal else
                              entry[0] + b2mc[bank][mc_id])
                run[1].append(entry[1])
                run[2].append(entry)
            for mc_id, (arrivals, run_lines, run_entries) in runs.items():
                write_run = mcs[mc_id].write_batch(
                    arrivals, run_lines, core, seq, "data", on_line
                )
                for run_pos, entry in enumerate(run_entries):
                    entry[2] = write_run
                    entry[3] = run_pos
            sched[bank] = entries
            engine.schedule(entries[0][0] - now, self._issue_bank, bank)

        # Message accounting (per logical hop, identical in both engine
        # modes): FlushEpoch reaches every bank -- n messages -- and
        # every idle bank answers with one BankAck.
        n_empty = num_banks - len(used)
        hs = self._hs
        hs.flush_epoch_msgs += num_banks
        hs.bank_ack_msgs += n_empty
        self._flush_msgs = num_banks + n_empty
        if fe_msgs:
            # Fault extras: FlushEpoch retransmissions and duplicates.
            hs.flush_epoch_msgs += fe_msgs
            self._flush_msgs += fe_msgs

        # Step 3 degenerate case: the idle banks ack the moment
        # FlushEpoch arrives.  Those acks are virtual -- pre-counted
        # here, latest arrival folded into the deadline (see
        # _idle_ack_deadline) -- so the idle broadcast costs no events.
        self._acks_received = n_empty
        self._ack_deadline = self._idle_ack_deadline(now) if n_empty else now
        if not used:
            # Every line left the epoch before begin (or the epoch was
            # empty): the handshake completes on idle acks alone.
            self._acks_complete()

    # ------------------------------------------------------------------
    def _issue_bank(self, bank: int) -> None:
        """Walk the bank's issue schedule at the current cycle.

        Performs the cache-side flush transition for every line whose
        issue time is now, then re-schedules itself for the next issue
        time (one in-flight event per bank, total, instead of one per
        line).
        """
        entries = self._bank_sched[bank]
        pos = self._bank_pos[bank]
        n = len(entries)
        engine = self._engine
        now = engine.now
        epoch = self._epoch
        machine = self._machine
        untag = machine._untag_line
        stats = self._stats
        invalidate = self._invalidate
        # locate_epoch_line inlined: the walker runs once per flushed
        # line, and the L1/LLC handles are loop-invariant.
        core = epoch.core_id
        l1 = machine.l1s[core]
        bank_cache = machine.llc_banks[bank]
        issued = 0
        while pos < n:
            entry = entries[pos]
            if entry[0] != now:
                break
            pos += 1
            line = entry[1]
            # _untag_line doubles as the membership test: False means
            # the line already left the epoch (evicted and persisted via
            # the eviction path while this flush was queued).
            if not untag(epoch, line):
                continue
            centry = l1.lookup(line) if entry[4] else None
            if centry is not None and centry.dirty and centry.epoch is epoch:
                level_core = core
            else:
                centry = bank_cache.lookup(line)
                if (
                    centry is not None
                    and centry.dirty
                    and centry.epoch is epoch
                ):
                    level_core = None
                else:
                    # The line left the caches since the epoch recorded
                    # it -- its NVRAM write is in flight via the
                    # eviction path.
                    stats.bump("flush_lines_already_inflight")
                    continue
            epoch.inflight_writes += 1
            issued += 1
            entry[2].mark_issued(
                entry[3],
                machine.flush_line_transition(
                    centry, line, invalidate, level_core
                ),
            )
        self._bank_pos[bank] = pos
        if issued:
            self._bank_outstanding[bank] += issued
        if pos < n:
            engine.schedule(entries[pos][0] - now,
                                 self._issue_bank, bank)
            return
        self._bank_state[bank] = _ISSUE_DONE
        if self._bank_outstanding[bank] == 0:
            self._schedule_bank_ack(bank)

    def _line_persisted(self, bank: int, _time: int) -> None:
        """PersistAck: one of the bank's lines committed to NVRAM.

        The flushing epoch's ``flush_active`` flag stays set until
        PersistCMP, so ``maybe_persist`` would be a guaranteed no-op
        here -- the persist check happens once, from the arbiter's
        ``_flush_done``.
        """
        self._hs.persist_ack_msgs += 1
        self._flush_msgs += 1
        self._epoch.inflight_writes -= 1
        remaining = self._bank_outstanding[bank] - 1
        self._bank_outstanding[bank] = remaining
        if remaining == 0 and self._bank_state[bank] == _ISSUE_DONE:
            self._schedule_bank_ack(bank)

    def _ack_delay(self, bank: int) -> int:
        if self._ideal:
            return 0
        delivery = self._delivery
        if delivery is None:
            # Standalone poking (tests drive the ack path without a
            # begin()); real flushes always pass through _setup_core.
            delivery = self._mesh.c2b[self._epoch.core_id]
        return delivery[bank]

    def _schedule_bank_ack(self, bank: int) -> None:
        """Send the bank's BankAck (step 3), exactly once per flush.

        Without fault injection the transmission is virtual: the
        arrival time is ``now + delay`` with certainty and no simulator
        state observes the ack in flight, so delivery folds into the
        ack count and the arrival deadline without consuming an event
        -- :meth:`_acks_complete` replays the latest arrival when it
        schedules PersistCMP.  Under fault injection arrival times
        depend on drop/detour draws, so the ack travels as a real event
        through :meth:`_send_bank_ack`.
        """
        if self._bank_state[bank] >= _ACK_SENT:
            return
        delay = self._ack_delay(bank)
        if self._faults is not None:
            self._bank_state[bank] = _ACK_SENT
            self._send_bank_ack(bank, delay, 0)
            return
        self._bank_state[bank] = _ACKED
        self._hs.bank_ack_msgs += 1
        self._flush_msgs += 1
        arrival = self._engine.now + delay
        if arrival > self._ack_deadline:
            self._ack_deadline = arrival
        self._acks_received += 1
        if self._acks_received == self._num_banks:
            self._acks_complete()

    def _send_bank_ack(self, bank: int, delay: int, attempt: int) -> None:
        """Fault-aware BankAck transmission with bounded retry.

        A dropped ack arms a timeout at the nominal delivery time plus
        ``ack_timeout``; the timeout resends with the attempt counter
        bumped.  The injector guarantees the attempt at the retry bound
        is delivered, so the chain is finite.  At most one transmission
        or timeout per bank is ever outstanding (the _ACK_SENT guard in
        :meth:`_schedule_bank_ack` serialises the chain), which is what
        lets :meth:`_ack_timeout` treat any other state as a
        :class:`ProtocolError`.

        Every transmission counts toward the message totals -- dropped
        acks were sent; the network lost them.
        """
        faults = self._faults
        if attempt > faults.config.max_ack_retries:
            # Simulated-time watchdog: the injector promises the
            # transmission at the bound is delivered, so a chain this
            # long means the retry machinery itself is broken.
            raise ProtocolError(
                f"BankAck retry chain for bank {bank} exceeded bound "
                f"{faults.config.max_ack_retries} (attempt {attempt})"
            )
        self._hs.bank_ack_msgs += 1
        self._flush_msgs += 1
        epoch = self._epoch
        core = epoch.core_id
        seq = epoch.seq
        if faults.drop_bank_ack(core, bank, seq, attempt):
            if self._arbiter is not None:
                self._arbiter.note_fault("flush_ack_drops")
            self._engine.schedule(
                delay + faults.config.ack_timeout,
                self._ack_timeout, bank, attempt,
            )
            return
        detour = faults.bank_ack_detour(core, bank, seq, attempt)
        if detour:
            if self._arbiter is not None:
                self._arbiter.note_fault("flush_ack_delays")
            delay += self._mesh.detour_latency(detour)
        self._engine.schedule(delay, self._bank_ack, bank)

    def _ack_timeout(self, bank: int, attempt: int) -> None:
        """The bank concluded its BankAck was lost; resend it."""
        if self._epoch is None or self._bank_state[bank] != _ACK_SENT:
            raise ProtocolError(
                f"ack-retry timeout for bank {bank} fired outside its "
                f"flush (state {self._bank_state[bank]}, "
                f"epoch {self._epoch})"
            )
        if self._arbiter is not None:
            self._arbiter.note_fault("flush_ack_retries")
        self._send_bank_ack(bank, self._ack_delay(bank), attempt + 1)

    def _bank_ack(self, bank: int) -> None:
        """A BankAck arrival event (fault-injected transmissions only;
        fault-free acks deliver virtually in :meth:`_schedule_bank_ack`)."""
        if self._bank_state[bank] == _ACKED:
            raise ProtocolError(
                f"bank {bank} sent a second BankAck for {self._epoch}"
            )
        self._bank_state[bank] = _ACKED
        self._acks_received += 1
        if self._acks_received == self._num_banks:
            self._acks_complete()

    def _acks_complete(self) -> None:
        # Step 4: PersistCMP broadcast, one message per bank.  The last
        # ack may be virtual -- its arrival recorded only in the
        # deadline -- so the broadcast leaves when the deadline passes,
        # not necessarily at the cycle this ran.
        self._hs.persist_cmp_msgs += self._num_banks
        self._flush_msgs += self._num_banks
        faults = self._faults
        extra = 0
        if faults is not None and faults.persist_cmp_active:
            extra = self._persist_cmp_fault_extra()
        engine = self._engine
        lag = self._ack_deadline - engine.now
        if lag < 0:
            lag = 0
        bcast = 0 if self._ideal else self._bcast_delay
        engine.schedule(lag + bcast + extra, self._persist_cmp)

    def _persist_cmp_fault_extra(self) -> int:
        """PersistCMP-loss fold: retransmission cost of the completion
        broadcast.

        Each bank's copy of PersistCMP independently draws its loss
        chain; a lost copy is retransmitted after
        ``persist_cmp_timeout`` with exponential backoff.  The epoch is
        complete only when every bank heard the broadcast, so the
        completion event slips by the *worst* per-bank chain; every
        retransmission is charged as a message.  Bounded by
        ``max_persist_cmp_retries`` with the watchdog raising
        :class:`ProtocolError` past it.
        """
        faults = self._faults
        cfg = faults.config
        epoch = self._epoch
        core = epoch.core_id
        seq = epoch.seq
        worst = 0
        total = 0
        for bank in range(self._num_banks):
            resends = faults.persist_cmp_resends(core, bank, seq)
            if not resends:
                continue
            if resends > cfg.max_persist_cmp_retries:
                raise ProtocolError(
                    f"PersistCMP retry chain for bank {bank} of core "
                    f"{core} epoch seq {seq} exceeded bound "
                    f"{cfg.max_persist_cmp_retries} ({resends} resends)"
                )
            total += resends
            stall = backoff_cycles(cfg.persist_cmp_timeout, resends)
            if stall > worst:
                worst = stall
        if total:
            self._hs.persist_cmp_msgs += total
            self._flush_msgs += total
            if self._arbiter is not None:
                self._arbiter.note_fault("flush_cmp_drops", total)
        return worst

    def _persist_cmp(self) -> None:
        epoch = self._epoch
        epoch.flush_active = False
        if epoch.lines:
            raise RuntimeError(f"{epoch} finished flush with lines remaining")
        self._hs.note_flush(self._flush_msgs)
        # Recycle before notifying: on_done re-pumps the arbiter, which
        # may immediately begin() the next flush on this same object.
        # Only the banks this flush actually used need their slots
        # restored (outstanding is already back to zero by accounting).
        self._epoch = None
        sched = self._bank_sched
        pos = self._bank_pos
        for bank in self._used:
            sched[bank] = None
            pos[bank] = 0
        self._on_done(epoch)


def _issue_time(entry: list) -> int:
    return entry[0]
