"""Deterministic, seeded fault injection for the persist pipeline.

The robustness story of the flush protocol (section 4.1, Figure 8) rests
on every message of the handshake arriving: a lost BankAck would wedge
the arbiter, a stalled memory controller stretches the persist window a
crash can land in.  This module injects exactly those hazards, one knob
per protocol leg:

* **dropped FlushEpoch broadcasts** -- the copy sent to one bank is
  lost; the arbiter retransmits after ``flush_epoch_timeout`` with
  exponential backoff, bounded by ``max_flush_epoch_retries``.
* **duplicated FlushEpoch broadcasts** -- the bank receives a second
  copy.  The protocol is idempotent (a bank already issuing ignores the
  duplicate), so the only observable is the message count -- which is
  exactly what the injection proves.
* **FlushEpoch link delays** -- the copy sent to one bank is rerouted
  ``link_delay_hops`` extra mesh hops (congestion / adaptive routing).
* **dropped BankAcks** -- the bank's ack is lost in the mesh; the bank
  times out and resends, bounded by ``max_ack_retries`` (the attempt at
  the retry bound is always delivered, so forward progress is
  guaranteed);
* **delayed BankAcks** -- the ack is rerouted ``delay_ack_hops`` extra
  mesh hops;
* **dropped PersistAcks** -- the controller's per-line ack back to the
  owning bank is lost; the controller retransmits after
  ``persist_ack_timeout`` with exponential backoff, bounded by
  ``max_persist_ack_retries``.  The line is already durable (the commit
  happened); only its acknowledgement is late.
* **dropped PersistCMP broadcasts** -- the completion broadcast to one
  bank is lost and retransmitted (bounded); the epoch's persist
  completion is delayed by the worst per-bank retry chain.
* **transient NVRAM bank stalls** -- a controller transaction's service
  start slips by ``mc_stall_cycles`` (media-level retries, thermal
  throttling);
* **torn line writes** -- the media write is detected torn
  (verify-after-write / ECC) and rewritten; each rewrite costs
  ``torn_write_cycles``, bounded by ``max_torn_write_retries``.
* **media write retries** -- a single transient retry costing
  ``write_retry_cycles`` (no chain).
* **persist reordering** -- a deliberately *unsound* fault: the NVRAM
  image buffers ``reorder_window`` data persists and records them in
  reversed order, modelling hardware that ignores the epoch ordering
  protocol.  Its sole purpose is the checker self-test: the crash sweep
  (:mod:`repro.recovery.crashsweep`) MUST raise
  :class:`~repro.recovery.checker.ConsistencyViolation` under it,
  proving the oracle can actually fail.

Every decision is a pure function of the seed and stable simulated
coordinates (core, bank, epoch sequence, line, attempt number,
controller write ordinal) via a splitmix64-style integer hash -- never
of wall clock, Python hashes, or a shared sequential PRNG stream.  Both
engine modes (fast paths and the ``REPRO_SLOW_ENGINE=1`` reference
heap) therefore make bit-identical fault decisions, which is what keeps
the determinism digests comparable across modes *with faults enabled*.

Besides the rate knobs, :attr:`FaultConfig.inject` targets *specific*
coordinates: ``(("persist_ack_drop", (core, seq, line)), ...)`` faults
exactly those protocol events (at attempt 0; the bounded retry machinery
then recovers).  The campaign driver
(:mod:`repro.recovery.campaign`) enumerates the injectable coordinates
of a captured run and probes them one at a time this way.

Every retry chain is bounded *twice*: the injector never faults an
attempt at or past the leg's retry bound, and the consuming state
machine independently raises :class:`ProtocolError` if a chain somehow
exceeds the bound (the simulated-time watchdog) -- a buggy injector
turns into a typed error, never a hang.

Fault injection deliberately does not cover the degenerate empty-bank
acks (a bank with no lines of the epoch): those model the arbiter's own
bookkeeping rather than mesh traffic, and faulting them would only
re-exercise the same retry path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags: one per decision kind, so the same coordinates never
# share a draw across kinds.
_STREAM_DROP = 1
_STREAM_DELAY = 2
_STREAM_MC = 3
_STREAM_FLUSH_EPOCH = 4
_STREAM_FLUSH_DUP = 5
_STREAM_LINK = 6
_STREAM_PERSIST_ACK = 7
_STREAM_PERSIST_CMP = 8
_STREAM_TORN = 9
_STREAM_WRETRY = 10

# The injectable protocol legs, by the name the targeted-injection
# tuples and the campaign driver use.  Coordinates per leg:
#
#   bank_ack_drop / bank_ack_detour : (core, bank, epoch_seq)
#   flush_epoch_drop / flush_epoch_dup / link_delay
#                                   : (core, bank, epoch_seq)
#   persist_cmp_drop                : (core, bank, epoch_seq)
#   persist_ack_drop                : (core, epoch_seq, line)
#   mc_stall / torn_write / write_retry : (mc_id, ordinal)
FAULT_LEGS: Tuple[str, ...] = (
    "bank_ack_drop",
    "bank_ack_detour",
    "flush_epoch_drop",
    "flush_epoch_dup",
    "link_delay",
    "persist_ack_drop",
    "persist_cmp_drop",
    "mc_stall",
    "torn_write",
    "write_retry",
)


class ProtocolError(RuntimeError):
    """The flush/persist protocol's state machine was violated.

    Raised when a bank acks twice, when an ack-retry timeout fires for
    a bank that is no longer waiting, or when any bounded retry chain
    (FlushEpoch, BankAck, PersistAck, PersistCMP, torn-write rewrite)
    exceeds its configured bound -- the simulated-time watchdog that
    turns a non-terminating retry chain into a typed error instead of a
    hang.  All of these indicate a simulator bug (or a fault-injection
    hole), never a legal protocol state.
    """


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong 64-bit integer mixer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def backoff_cycles(timeout: int, resends: int) -> int:
    """Total stall of a retry chain with ``resends`` retransmissions.

    Exponential backoff: retry ``i`` waits ``timeout * 2**i``, so the
    cumulative extra is ``timeout * (2**resends - 1)`` -- zero when the
    first transmission got through.
    """
    return timeout * ((1 << resends) - 1)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault-injection layer.  All rates default to 0
    (no faults); ``reorder_window=0`` disables the unsound fault."""

    seed: int = 0
    # BankAck loss: probability per (data-bearing) BankAck transmission.
    drop_ack_rate: float = 0.0
    # Cycles the sending bank waits (past the nominal delivery time)
    # before concluding its ack was lost and resending.
    ack_timeout: int = 200
    # Retry bound: the ack sent at attempt == max_ack_retries is always
    # delivered, so a flush can stall at most max_ack_retries timeouts.
    max_ack_retries: int = 3
    # BankAck rerouting: probability and detour length in mesh hops.
    delay_ack_rate: float = 0.0
    delay_ack_hops: int = 2
    # FlushEpoch delivery loss, per bank.
    drop_flush_epoch_rate: float = 0.0
    flush_epoch_timeout: int = 300
    max_flush_epoch_retries: int = 3
    # FlushEpoch duplication, per bank.
    dup_flush_epoch_rate: float = 0.0
    # FlushEpoch link congestion: probability and detour length per bank.
    link_delay_rate: float = 0.0
    link_delay_hops: int = 3
    # PersistAck loss: probability per flush-handshake line ack.
    drop_persist_ack_rate: float = 0.0
    persist_ack_timeout: int = 400
    max_persist_ack_retries: int = 3
    # PersistCMP loss: probability per per-bank completion broadcast.
    drop_persist_cmp_rate: float = 0.0
    persist_cmp_timeout: int = 300
    max_persist_cmp_retries: int = 3
    # Transient NVRAM stalls: probability per controller transaction,
    # and the service-start slip in cycles.
    mc_stall_rate: float = 0.0
    mc_stall_cycles: int = 100
    # Torn media writes: probability per rewrite attempt, rewrite cost,
    # and the rewrite-chain bound.
    torn_write_rate: float = 0.0
    torn_write_cycles: int = 150
    max_torn_write_retries: int = 3
    # Single-shot transient media retry.
    write_retry_rate: float = 0.0
    write_retry_cycles: int = 60
    # The unsound reorder-persists fault (checker self-test only):
    # buffer this many data/eviction persists and record them reversed.
    reorder_window: int = 0
    # Targeted injection: ((leg_name, coords), ...) faults exactly
    # those coordinates at attempt 0 (see FAULT_LEGS for the coordinate
    # scheme per leg), independently of the rate knobs.  The campaign
    # driver's exhaustive enumeration runs one such config per point.
    inject: Tuple[Tuple[str, Tuple[int, ...]], ...] = field(
        default_factory=tuple
    )


class FaultInjector:
    """Stateless-per-decision fault oracle built from a
    :class:`FaultConfig`.

    Decisions are order-independent: each is a hash of its coordinates,
    so replaying the same simulated events in a different wall-clock
    interleaving (fast vs reference engine) yields the same faults.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._base = _mix64(config.seed * _GOLDEN + 0x1234567)
        targets: Dict[str, Set[Tuple[int, ...]]] = {}
        for leg, coords in config.inject:
            if leg not in FAULT_LEGS:
                raise ValueError(
                    f"unknown fault leg {leg!r}; choose from {FAULT_LEGS}"
                )
            targets.setdefault(leg, set()).add(tuple(coords))
        self._targets = targets
        # Per-leg activity flags: consumers skip the whole fold (and
        # its draws) when a leg can never fire, which is what keeps an
        # all-zero FaultConfig digest-neutral and cheap.
        self.flush_epoch_active = (
            config.drop_flush_epoch_rate > 0.0
            or config.dup_flush_epoch_rate > 0.0
            or config.link_delay_rate > 0.0
            or "flush_epoch_drop" in targets
            or "flush_epoch_dup" in targets
            or "link_delay" in targets
        )
        self.persist_ack_active = (
            config.drop_persist_ack_rate > 0.0
            or "persist_ack_drop" in targets
        )
        self.persist_cmp_active = (
            config.drop_persist_cmp_rate > 0.0
            or "persist_cmp_drop" in targets
        )
        self.media_active = (
            config.torn_write_rate > 0.0
            or config.write_retry_rate > 0.0
            or "torn_write" in targets
            or "write_retry" in targets
        )

    # ------------------------------------------------------------------
    def _draw(self, stream: int, *coords: int) -> float:
        """A uniform [0, 1) draw keyed on (seed, stream, coords)."""
        x = self._base ^ (stream * _GOLDEN)
        for c in coords:
            x = _mix64(x ^ ((c & _MASK64) * _GOLDEN))
        return _mix64(x) / float(1 << 64)

    def _target(self, leg: str, coords: Tuple[int, ...]) -> bool:
        bucket = self._targets.get(leg)
        return bucket is not None and coords in bucket

    # ------------------------------------------------------------------
    # Flush-handshake faults (core/flush.py)
    # ------------------------------------------------------------------
    def drop_bank_ack(self, core_id: int, bank: int, epoch_seq: int,
                      attempt: int) -> bool:
        """True when this BankAck transmission is lost in the mesh.

        Bounded: the transmission at ``attempt == max_ack_retries`` is
        never dropped, so the retry chain always terminates.
        """
        cfg = self.config
        if attempt >= cfg.max_ack_retries:
            return False
        if attempt == 0 and self._target(
                "bank_ack_drop", (core_id, bank, epoch_seq)):
            return True
        if cfg.drop_ack_rate <= 0.0:
            return False
        return (
            self._draw(_STREAM_DROP, core_id, bank, epoch_seq, attempt)
            < cfg.drop_ack_rate
        )

    def bank_ack_detour(self, core_id: int, bank: int, epoch_seq: int,
                        attempt: int) -> int:
        """Extra mesh hops this BankAck is rerouted (0 = direct)."""
        cfg = self.config
        if attempt == 0 and self._target(
                "bank_ack_detour", (core_id, bank, epoch_seq)):
            return cfg.delay_ack_hops
        if cfg.delay_ack_rate <= 0.0:
            return 0
        if (
            self._draw(_STREAM_DELAY, core_id, bank, epoch_seq, attempt)
            < cfg.delay_ack_rate
        ):
            return cfg.delay_ack_hops
        return 0

    def flush_epoch_resends(self, core_id: int, bank: int,
                            epoch_seq: int) -> int:
        """Retransmissions of the FlushEpoch copy sent to one bank.

        0 means the first copy arrived; the chain is bounded by
        ``max_flush_epoch_retries`` (the copy at the bound is never
        dropped).
        """
        cfg = self.config
        resends = 0
        if self._target("flush_epoch_drop", (core_id, bank, epoch_seq)):
            resends = 1
        if cfg.drop_flush_epoch_rate > 0.0:
            while (
                resends < cfg.max_flush_epoch_retries
                and self._draw(_STREAM_FLUSH_EPOCH, core_id, bank,
                               epoch_seq, resends)
                < cfg.drop_flush_epoch_rate
            ):
                resends += 1
        return resends

    def flush_epoch_dup(self, core_id: int, bank: int,
                        epoch_seq: int) -> bool:
        """True when the bank receives a duplicate FlushEpoch copy."""
        cfg = self.config
        if self._target("flush_epoch_dup", (core_id, bank, epoch_seq)):
            return True
        if cfg.dup_flush_epoch_rate <= 0.0:
            return False
        return (
            self._draw(_STREAM_FLUSH_DUP, core_id, bank, epoch_seq)
            < cfg.dup_flush_epoch_rate
        )

    def link_delay(self, core_id: int, bank: int, epoch_seq: int) -> int:
        """Extra mesh hops the FlushEpoch copy to this bank detours."""
        cfg = self.config
        if self._target("link_delay", (core_id, bank, epoch_seq)):
            return cfg.link_delay_hops
        if cfg.link_delay_rate <= 0.0:
            return 0
        if (
            self._draw(_STREAM_LINK, core_id, bank, epoch_seq)
            < cfg.link_delay_rate
        ):
            return cfg.link_delay_hops
        return 0

    def persist_cmp_resends(self, core_id: int, bank: int,
                            epoch_seq: int) -> int:
        """Retransmissions of the PersistCMP broadcast to one bank."""
        cfg = self.config
        resends = 0
        if self._target("persist_cmp_drop", (core_id, bank, epoch_seq)):
            resends = 1
        if cfg.drop_persist_cmp_rate > 0.0:
            while (
                resends < cfg.max_persist_cmp_retries
                and self._draw(_STREAM_PERSIST_CMP, core_id, bank,
                               epoch_seq, resends)
                < cfg.drop_persist_cmp_rate
            ):
                resends += 1
        return resends

    # ------------------------------------------------------------------
    # Memory-controller faults (mem/nvram.py)
    # ------------------------------------------------------------------
    def persist_ack_resends(self, core_id: int, epoch_seq: int,
                            line: int) -> int:
        """Retransmissions of one flush-handshake PersistAck."""
        cfg = self.config
        resends = 0
        if self._target("persist_ack_drop", (core_id, epoch_seq, line)):
            resends = 1
        if cfg.drop_persist_ack_rate > 0.0:
            while (
                resends < cfg.max_persist_ack_retries
                and self._draw(_STREAM_PERSIST_ACK, core_id, epoch_seq,
                               line, resends)
                < cfg.drop_persist_ack_rate
            ):
                resends += 1
        return resends

    def mc_stall(self, mc_id: int, ordinal: int) -> int:
        """Service-start slip (cycles) for the controller's
        ``ordinal``-th transaction; 0 = no stall."""
        cfg = self.config
        if self._target("mc_stall", (mc_id, ordinal)):
            return cfg.mc_stall_cycles
        if cfg.mc_stall_rate <= 0.0:
            return 0
        if self._draw(_STREAM_MC, mc_id, ordinal) < cfg.mc_stall_rate:
            return cfg.mc_stall_cycles
        return 0

    def torn_write_retries(self, mc_id: int, ordinal: int) -> int:
        """Rewrites the controller's ``ordinal``-th write needed before
        it verified intact (0 = clean first write; bounded)."""
        cfg = self.config
        tears = 0
        if self._target("torn_write", (mc_id, ordinal)):
            tears = 1
        if cfg.torn_write_rate > 0.0:
            while (
                tears < cfg.max_torn_write_retries
                and self._draw(_STREAM_TORN, mc_id, ordinal, tears)
                < cfg.torn_write_rate
            ):
                tears += 1
        return tears

    def write_retry(self, mc_id: int, ordinal: int) -> bool:
        """True when the ``ordinal``-th write takes one transient media
        retry."""
        cfg = self.config
        if self._target("write_retry", (mc_id, ordinal)):
            return True
        if cfg.write_retry_rate <= 0.0:
            return False
        return self._draw(_STREAM_WRETRY, mc_id, ordinal) < \
            cfg.write_retry_rate

    # ------------------------------------------------------------------
    @property
    def reorder_window(self) -> int:
        return self.config.reorder_window
