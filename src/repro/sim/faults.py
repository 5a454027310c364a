"""Deterministic, seeded fault injection for the persist pipeline.

The robustness story of the flush protocol (section 4.1, Figure 8) rests
on every message of the handshake arriving: a lost BankAck would wedge
the arbiter, a stalled memory controller stretches the persist window a
crash can land in.  This module injects exactly those hazards.  Each
protocol leg is one yes/no decision, :meth:`FaultInjector.fires`, and a
leg that fires adds one fixed cost (the module constants below):

* **dropped FlushEpoch** -- the copy sent to one bank is lost; the
  arbiter resends it ``FLUSH_EPOCH_TIMEOUT`` cycles later (one extra
  message).
* **duplicated FlushEpoch** -- the bank receives a second copy.  The
  protocol is idempotent (a bank already issuing ignores the duplicate),
  so the only observable is the message count.
* **FlushEpoch link delay** -- the copy sent to one bank detours
  ``LINK_DELAY_HOPS`` extra mesh hops (congestion / adaptive routing).
* **dropped BankAck** -- the bank's ack is lost in the mesh; the bank
  times out after ``ACK_TIMEOUT`` cycles and resends.  This is the one
  message retried as events: the flush engine never drops the attempt
  at ``MAX_ACK_RETRIES``, so the chain always ends.
* **BankAck detour** -- the ack is rerouted ``BANK_ACK_DETOUR_HOPS``
  extra mesh hops.
* **dropped PersistAck** -- the controller's per-line ack back to the
  owning bank is lost and resent ``PERSIST_ACK_TIMEOUT`` cycles later.
  The line is already durable; only its acknowledgement is late.
* **dropped PersistCMP** -- the completion broadcast to one bank is lost
  and resent ``PERSIST_CMP_TIMEOUT`` cycles later.
* **NVRAM bank stall** -- a controller transaction's service start slips
  ``MC_STALL_CYCLES`` (media-level retries, thermal throttling).
* **torn line write** -- verify-after-write detects a torn line and
  rewrites it once, costing ``TORN_WRITE_CYCLES``.
* **media write retry** -- one transient retry costing
  ``WRITE_RETRY_CYCLES``.
* **persist reordering** -- a deliberately *unsound* fault: the NVRAM
  image buffers ``reorder_window`` data persists and records them in
  reversed order, modelling hardware that ignores the epoch ordering
  protocol.  Its sole purpose is the checker self-test: the crash sweep
  (:mod:`repro.recovery.crashsweep`) MUST raise
  :class:`~repro.recovery.checker.ConsistencyViolation` under it,
  proving the oracle can actually fail.

Every decision is a pure function of the seed and stable simulated
coordinates (core, bank, epoch sequence, line, BankAck attempt number,
controller transaction ordinal) via a splitmix64-style integer hash --
never of wall clock, Python hashes, or a shared sequential PRNG stream.
Both engine modes (fast paths and the ``REPRO_SLOW_ENGINE=1`` reference
heap) therefore make bit-identical fault decisions, which is what keeps
the determinism digests comparable across modes *with faults enabled*.

Besides per-leg rates, :attr:`FaultConfig.inject` targets *specific*
coordinates: ``(("persist_ack_drop", (core, seq, line)), ...)`` faults
exactly those protocol events.  The campaign driver
(:mod:`repro.recovery.campaign`) enumerates the injectable coordinates
of a captured run and probes them one at a time this way.

Fault injection deliberately does not cover the degenerate empty-bank
acks (a bank with no lines of the epoch): those model the arbiter's own
bookkeeping rather than mesh traffic, and faulting them would only
re-exercise the same retry path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# The injectable protocol legs, by the name the targeted-injection
# tuples and the campaign driver use: name -> (stream tag, coordinate
# names).  The stream tag keys each leg's draws apart, so the same
# coordinates never share a draw across legs.
_HANDSHAKE = ("core", "bank", "seq")
_MEDIA = ("mc", "ordinal")
_LEGS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "bank_ack_drop": (1, _HANDSHAKE),
    "bank_ack_detour": (2, _HANDSHAKE),
    "flush_epoch_drop": (4, _HANDSHAKE),
    "flush_epoch_dup": (5, _HANDSHAKE),
    "link_delay": (6, _HANDSHAKE),
    "persist_ack_drop": (7, ("core", "seq", "line")),
    "persist_cmp_drop": (8, _HANDSHAKE),
    "mc_stall": (3, _MEDIA),
    "torn_write": (9, _MEDIA),
    "write_retry": (10, _MEDIA),
}
FAULT_LEGS: Tuple[str, ...] = tuple(_LEGS)

# What one fault costs, per leg.
ACK_TIMEOUT = 200            # cycles a bank waits per lost BankAck
MAX_ACK_RETRIES = 3          # the BankAck attempt that always delivers
BANK_ACK_DETOUR_HOPS = 2
FLUSH_EPOCH_TIMEOUT = 300
LINK_DELAY_HOPS = 3
PERSIST_ACK_TIMEOUT = 400
PERSIST_CMP_TIMEOUT = 300
MC_STALL_CYCLES = 100
TORN_WRITE_CYCLES = 150
WRITE_RETRY_CYCLES = 60


class ProtocolError(RuntimeError):
    """The flush/persist protocol's state machine was violated.

    Raised when a bank acks twice, when an ack-retry timeout fires for
    a bank that is no longer waiting, or when a BankAck retry chain
    runs past ``MAX_ACK_RETRIES`` -- the simulated-time watchdog that
    turns a non-terminating chain into a typed error instead of a hang.
    All of these indicate a simulator bug (or a fault-injection hole),
    never a legal protocol state.
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


def check_leg(leg: str, coords: Optional[Tuple[int, ...]] = None) -> None:
    """Raise ValueError unless ``leg`` is a fault leg and ``coords``
    (when given) has as many coordinates as the leg takes."""
    if leg not in _LEGS:
        raise ValueError(f"unknown fault leg {leg!r}; choose from {FAULT_LEGS}")
    names = _LEGS[leg][1]
    if coords is not None and len(coords) != len(names):
        raise ValueError(
            f"fault leg {leg!r} takes {len(names)} coordinates "
            f"({','.join(names)}), got {len(coords)}"
        )


@dataclass(frozen=True)
class FaultConfig:
    """What to inject.  The default injects nothing.

    ``rates`` gives ``(leg, probability)`` pairs for randomized stress;
    ``inject`` gives ``(leg, coords)`` pairs that fire exactly at those
    coordinates (see the leg table above).  ``reorder_window > 0``
    enables the unsound reorder fault (checker self-test only).
    """

    seed: int = 0
    rates: Tuple[Tuple[str, float], ...] = ()
    inject: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    reorder_window: int = 0


class FaultInjector:
    """Stateless-per-decision fault oracle built from a
    :class:`FaultConfig`.

    Decisions are order-independent: each is a hash of its coordinates,
    so replaying the same simulated events in a different wall-clock
    interleaving (fast vs reference engine) yields the same faults.
    """

    def __init__(self, config: FaultConfig) -> None:
        self._base = _mix64(config.seed * _GOLDEN + 0x1234567)
        self._rates: Dict[str, float] = {}
        for leg, rate in config.rates:
            check_leg(leg)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate for {leg!r} must lie in [0, 1], got {rate}"
                )
            if rate > 0.0:
                self._rates[leg] = rate
        self._targets: Dict[str, Set[Tuple[int, ...]]] = {}
        for leg, coords in config.inject:
            coords = tuple(coords)
            check_leg(leg, coords)
            self._targets.setdefault(leg, set()).add(coords)
        # The legs that can fire at all: consumers skip a leg's whole
        # fold (and its draws) when it cannot, which keeps an all-zero
        # FaultConfig digest-neutral and cheap.
        self.active = frozenset(self._rates) | frozenset(self._targets)

    def fires(self, leg: str, *coords: int,
              attempt: Optional[int] = None) -> bool:
        """True when ``leg`` faults the event at ``coords``.

        A target fires on its coordinates; otherwise a uniform draw keyed
        on (seed, the leg's stream tag, coords) falls under the leg's
        rate.  The BankAck legs pass their retry ``attempt``: a target
        fires at attempt 0 only, and the draw is keyed on the attempt too.
        """
        if not attempt:
            targets = self._targets.get(leg)
            if targets is not None and coords in targets:
                return True
        rate = self._rates.get(leg)
        if rate is None:
            return False
        x = self._base ^ (_LEGS[leg][0] * _GOLDEN)
        if attempt is not None:
            coords += (attempt,)
        for c in coords:
            x = _mix64(x ^ ((c & _MASK64) * _GOLDEN))
        return _mix64(x) / float(1 << 64) < rate
