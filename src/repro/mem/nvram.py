"""NVRAM: memory controllers and the persistent-memory image.

The memory controllers model the bandwidth side of persistence.  Each
controller is a FIFO server: a line write occupies the controller for
``mc_write_occupancy`` cycles and completes (PersistAck, in the Figure 6/8
protocol) ``nvram_write_latency`` cycles after it starts service.  Under
flush storms -- exactly what small BSP epochs produce -- the queue grows
and persist latency balloons, which is the effect behind Figure 13.

:class:`NVRAMImage` is the correctness oracle.  Every line write that the
controller acknowledges is recorded with a global persist sequence number
and the epoch that produced the value.  The recovery checker replays this
record to verify that the persisted state at any crash point respects the
epoch happens-before order (and, for BSP, that undo logging restores
epoch atomicity).  Per-line :class:`PersistRecord` bookkeeping
(``last_persist``, ``history``) is only maintained when ``track_order``
is on -- it exists for the recovery checker, and skipping it keeps the
common untracked run allocation-free per persist.

Epoch flushes reserve each (bank -> controller) run of line writes at
once through :meth:`MemoryController.write_batch`, one-line runs
included: the FIFO service starts for all k lines are computed in one
arithmetic pass (no per-line arrival events), and a single
self-rescheduling :class:`_WriteRun` event commits each line at its
exact completion time.  Committing per line -- rather than once at
the end of the run -- is what keeps crash truncation exact: a crash at
cycle C observes precisely the commits with time <= C.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.sim.config import MachineConfig
from repro.sim.engine import Engine
from repro.sim.faults import (
    MC_STALL_CYCLES,
    PERSIST_ACK_TIMEOUT,
    TORN_WRITE_CYCLES,
    WRITE_RETRY_CYCLES,
)
from repro.sim.stats import StatDomain


class PersistRecord(NamedTuple):
    """One acknowledged NVRAM line write."""

    index: int          # global persist sequence number
    time: int           # cycle at which the write became durable
    line: int
    core_id: int        # core whose epoch produced the value (-1: none)
    epoch_seq: int      # per-core epoch sequence number (-1: none)
    kind: str           # "data", "log", "checkpoint", "eviction"


class NVRAMImage:
    """Durable state: what survives a crash.

    Tracks the last persisted value tokens per line and, when
    ``track_order`` is on, the per-line record of the last persist and
    the full ordered history for the recovery checker.  Two parallel
    structures make the history *replayable* so the crash sweep can
    reconstruct the durable state at any truncation point without
    re-running the machine:

    * ``history_values[i]`` is the value snapshot ``history[i]``
      committed (None when the commit carried no values);
    * ``history_log[i]`` is the ``(data_line, old_values)`` payload of
      an undo-log commit at index ``i``.

    Both hold references to the same objects the live ``values`` /
    ``log_entries`` maps do (ownership already transferred at commit),
    so the extra tracking is one list append per persist.

    ``reorder_window > 0`` enables the deliberately *unsound* fault of
    :mod:`repro.sim.faults`: data/eviction commits are buffered and
    recorded in reversed order once the window fills.  Only the
    *recorded image* is perturbed -- simulation timing, acks, and stats
    are untouched -- modelling ordering-oblivious hardware under the
    same traffic.  On a crashed run, still-buffered persists are simply
    lost (in flight inside the reordering hardware).
    """

    def __init__(self, track_order: bool = False,
                 reorder_window: int = 0) -> None:
        self.track_order = track_order
        self._next_index = 0
        # line -> (offset -> token) of the last persisted version.
        self.values: Dict[int, Dict[int, object]] = {}
        # line -> PersistRecord of the last persist (track_order only).
        self.last_persist: Dict[int, PersistRecord] = {}
        self.history: List[PersistRecord] = []
        # Per-record replay payloads, parallel to ``history``
        # (track_order only).
        self.history_values: List[Optional[Dict[int, object]]] = []
        self.history_log: Dict[int, Tuple[int, Dict[int, object]]] = {}
        # Undo-log region contents: log_line -> (data_line, old values).
        self.log_entries: Dict[int, Tuple[int, Dict[int, object]]] = {}
        self._reorder_window = reorder_window
        self._deferred: List[tuple] = []

    def commit(
        self,
        time: int,
        line: int,
        core_id: int,
        epoch_seq: int,
        kind: str,
        values: Optional[Dict[int, object]] = None,
    ) -> Optional[PersistRecord]:
        """Record ``line`` becoming durable.

        ``values`` ownership transfers to the image: callers pass a
        private snapshot and must not mutate it afterwards (this is what
        lets the common path avoid a second ``dict(values)`` copy).
        """
        if self._reorder_window and kind in ("data", "eviction"):
            self._deferred.append(
                (time, line, core_id, epoch_seq, kind, values)
            )
            if len(self._deferred) >= self._reorder_window:
                self.flush_reorder_buffer()
            return None
        return self._commit(time, line, core_id, epoch_seq, kind, values)

    def _commit(
        self,
        time: int,
        line: int,
        core_id: int,
        epoch_seq: int,
        kind: str,
        values: Optional[Dict[int, object]],
    ) -> Optional[PersistRecord]:
        index = self._next_index
        self._next_index += 1
        if values is not None:
            self.values[line] = values
        if not self.track_order:
            return None
        record = PersistRecord(index, time, line, core_id, epoch_seq, kind)
        self.last_persist[line] = record
        self.history.append(record)
        self.history_values.append(values)
        return record

    def flush_reorder_buffer(self) -> int:
        """Drain the reorder fault's window, committing it *reversed*.

        Called when the window fills and at end-of-run drain; returns
        the number of records committed.  A no-op without the fault.
        """
        batch = self._deferred
        if not batch:
            return 0
        self._deferred = []
        for args in reversed(batch):
            self._commit(*args)
        return len(batch)

    def commit_log(
        self,
        time: int,
        log_line: int,
        data_line: int,
        core_id: int,
        epoch_seq: int,
        old_values: Optional[Dict[int, object]],
    ) -> Optional[PersistRecord]:
        """Record an undo-log entry becoming durable.

        Like :meth:`commit`, takes ownership of ``old_values``.
        """
        payload = (data_line, old_values if old_values is not None else {})
        self.log_entries[log_line] = payload
        record = self._commit(time, log_line, core_id, epoch_seq, "log",
                              None)
        if record is not None:
            self.history_log[record.index] = payload
        return record

    @property
    def persist_count(self) -> int:
        return self._next_index


class _WriteRun:
    """A reserved FIFO run of flush writes walking to completion.

    The controller computed every completion time when the run was
    reserved; one event per line then commits it at exactly that time.
    Lines whose cache copy vanished before issue (``issued`` stays 0 --
    the eviction path persisted them meanwhile) keep their reserved slot
    but commit nothing.
    """

    __slots__ = (
        "_mc", "_lines", "_dones", "_values", "_issued",
        "_core_id", "_epoch_seq", "_kind", "_on_line", "_pos",
    )

    def __init__(
        self,
        mc: "MemoryController",
        lines: List[int],
        dones: List[int],
        core_id: int,
        epoch_seq: int,
        kind: str,
        on_line: Callable[[int], None],
    ) -> None:
        self._mc = mc
        self._lines = lines
        self._dones = dones
        self._values: List[Optional[Dict[int, object]]] = [None] * len(lines)
        self._issued = bytearray(len(lines))
        self._core_id = core_id
        self._epoch_seq = epoch_seq
        self._kind = kind
        self._on_line = on_line
        self._pos = 0

    def mark_issued(self, pos: int,
                    values: Optional[Dict[int, object]]) -> None:
        """The flush engine issued slot ``pos``; ``values`` is a private
        snapshot taken at issue time (ownership passes to the image)."""
        self._issued[pos] = 1
        self._values[pos] = values

    def step(self) -> None:
        pos = self._pos
        mc = self._mc
        time = self._dones[pos]
        if self._issued[pos]:
            mc._account_write(self._kind)
            mc._image.commit(
                time, self._lines[pos], self._core_id, self._epoch_seq,
                self._kind, self._values[pos],
            )
            self._values[pos] = None
            if mc._faults is None:
                self._on_line(time)
            else:
                mc._deliver_persist_ack(
                    time, self._lines[pos], self._core_id,
                    self._epoch_seq, self._on_line,
                )
        pos += 1
        self._pos = pos
        if pos < len(self._dones):
            mc._engine.schedule(self._dones[pos] - time, self.step)


class MemoryController:
    """One NVRAM memory controller: a FIFO server with fixed latencies."""

    def __init__(
        self,
        mc_id: int,
        config: MachineConfig,
        engine: Engine,
        image: NVRAMImage,
        stats: StatDomain,
        faults=None,
    ) -> None:
        self.mc_id = mc_id
        self._config = config
        self._engine = engine
        self._image = image
        self._stats = stats
        self._busy_until = 0
        # Fault injection (sim/faults.py): transient service-start
        # stalls, keyed on the controller's transaction ordinal so both
        # engine modes stall the same transactions.  None (the default)
        # keeps the hot path untouched; the rare fault counters bump the
        # stat domain directly.
        self._faults = faults
        self._txn_ordinal = 0
        # Hot-path accounting: every controller transaction counts a
        # read/write and records its queue wait.  These live in plain
        # attributes, merged into the stat domain by flush_hot_stats()
        # at run end.
        self._n_reads = 0
        self._n_writes = 0
        self._writes_by_kind: Dict[str, int] = {}
        self._qw_sum = 0
        self._qw_count = 0
        self._qw_max = 0

    def _fault_stall(self, write: bool = False) -> int:
        """Stall cycles for the next transaction (0 without faults).

        Write transactions additionally draw the media faults: a torn
        line detected by verify-after-write is rewritten once (costing
        ``TORN_WRITE_CYCLES``), and a transient media retry costs
        ``WRITE_RETRY_CYCLES``.  The data always commits intact -- only
        durability *timing* slips, the image never records a torn value.
        """
        fires = self._faults.fires
        mc_id = self.mc_id
        ordinal = self._txn_ordinal
        self._txn_ordinal = ordinal + 1
        stall = 0
        if fires("mc_stall", mc_id, ordinal):
            stall = MC_STALL_CYCLES
            self._stats.bump("fault_stalls")
            self._stats.bump("fault_stall_cycles", stall)
        if write:
            extra = 0
            if fires("torn_write", mc_id, ordinal):
                extra += TORN_WRITE_CYCLES
                self._stats.bump("fault_torn_writes")
            if fires("write_retry", mc_id, ordinal):
                extra += WRITE_RETRY_CYCLES
                self._stats.bump("fault_write_retries")
            if extra:
                self._stats.bump("fault_media_cycles", extra)
                stall += extra
        return stall

    def _deliver_persist_ack(
        self,
        time: int,
        line: int,
        core_id: int,
        epoch_seq: int,
        on_line: Callable[[int], None],
    ) -> None:
        """Deliver a flush-handshake PersistAck, possibly late.

        A lost ack is resent by the controller ``PERSIST_ACK_TIMEOUT``
        cycles later (the line is already durable; only its
        acknowledgement slips).  Eviction-path persists (``core_id < 0``
        / ``epoch_seq < 0``) have no handshake ack to lose and always
        deliver directly.
        """
        if (
            core_id < 0
            or epoch_seq < 0
            or not self._faults.fires("persist_ack_drop", core_id,
                                      epoch_seq, line)
        ):
            on_line(time)
            return
        self._stats.bump("fault_persist_ack_drops")
        self._engine.schedule(PERSIST_ACK_TIMEOUT, on_line,
                              time + PERSIST_ACK_TIMEOUT)

    def _service_start(self, occupancy: int, write: bool = False) -> int:
        now = self._engine.now
        start = max(now, self._busy_until)
        if self._faults is not None:
            start += self._fault_stall(write)
        self._busy_until = start + occupancy
        queue_wait = start - now
        self._qw_sum += queue_wait
        self._qw_count += 1
        if queue_wait > self._qw_max:
            self._qw_max = queue_wait
        return start

    def _account_write(self, kind: str) -> None:
        self._n_writes += 1
        by_kind = self._writes_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def flush_hot_stats(self) -> None:
        """Merge the attribute-held counters into the stat domain.

        Idempotent (counters reset as they merge); the machine calls
        this at run end so post-run readers see exactly what per-call
        ``bump``/``record`` would have produced.
        """
        stats = self._stats
        if self._n_reads:
            stats.bump("reads", self._n_reads)
            self._n_reads = 0
        if self._n_writes:
            stats.bump("writes", self._n_writes)
            self._n_writes = 0
        for kind, count in self._writes_by_kind.items():
            stats.bump(f"writes_{kind}", count)
        self._writes_by_kind.clear()
        if self._qw_count:
            stats.merge_samples(
                "queue_wait", self._qw_sum, self._qw_count, self._qw_max
            )
            self._qw_sum = 0
            self._qw_count = 0
            self._qw_max = 0

    # ------------------------------------------------------------------
    def read(self, line: int, callback: Callable[..., None],
             *cb_args: object) -> None:
        """Schedule a line read; ``callback(*cb_args, completion_time)``
        fires when the data is available at the controller.

        Without faults the FIFO reservation of :meth:`_service_start`
        is inlined: a read is every full miss's one controller visit."""
        config = self._config
        if self._faults is None:
            now = self._engine.now
            start = self._busy_until
            if start < now:
                start = now
            self._busy_until = start + config.mc_read_occupancy
            wait = start - now
            self._qw_sum += wait
            self._qw_count += 1
            if wait > self._qw_max:
                self._qw_max = wait
        else:
            start = self._service_start(config.mc_read_occupancy)
        done = start + config.nvram_read_latency
        self._n_reads += 1
        self._engine.schedule(
            done - self._engine.now, callback, *cb_args, done
        )

    def write(
        self,
        line: int,
        core_id: int,
        epoch_seq: int,
        kind: str,
        values: Optional[Dict[int, object]] = None,
        callback: Optional[Callable[..., None]] = None,
        cb_args: Tuple = (),
    ) -> None:
        """Schedule a durable line write (a persist).

        The write is committed to the :class:`NVRAMImage` at its
        completion time, then ``callback(*cb_args, completion_time)``
        fires (the PersistAck).  ``values`` ownership transfers to the
        image at commit.
        """
        start = self._service_start(self._config.mc_write_occupancy,
                                    write=True)
        done = start + self._config.nvram_write_latency
        self._account_write(kind)
        self._engine.schedule(
            done - self._engine.now, self._commit_write,
            done, line, core_id, epoch_seq, kind, values, callback, cb_args,
        )

    def _commit_write(
        self,
        time: int,
        line: int,
        core_id: int,
        epoch_seq: int,
        kind: str,
        values: Optional[Dict[int, object]],
        callback: Optional[Callable[..., None]],
        cb_args: Tuple,
    ) -> None:
        if kind == "log":
            # ``line`` would be a log-region address; the data line and
            # old values ride along separately, which write_log handles.
            raise AssertionError("log writes must go through write_log()")
        self._image.commit(time, line, core_id, epoch_seq, kind, values)
        if callback is not None:
            callback(*cb_args, time)

    def write_batch(
        self,
        arrivals: List[int],
        lines: List[int],
        core_id: int,
        epoch_seq: int,
        kind: str,
        on_line: Callable[[int], None],
    ) -> _WriteRun:
        """Reserve a FIFO run of ``k`` line writes in one arithmetic pass.

        ``arrivals`` are the (ascending-issue-order) cycles at which each
        line reaches the controller; service starts follow the same
        ``max(arrival, busy)`` FIFO rule as :meth:`write`, but the whole
        run claims its slots now -- the flush engine reserves controller
        bandwidth for its line run up front instead of contending per
        line.  One :class:`_WriteRun` event then commits each line at its
        exact completion time and calls ``on_line(time)`` for it.

        Write counts are accounted per *committed* line (a reserved slot
        whose line was persisted through the eviction path meanwhile
        commits nothing); queue waits are recorded per reserved slot.
        """
        config = self._config
        occupancy = config.mc_write_occupancy
        latency = config.nvram_write_latency
        faults = self._faults
        busy = self._busy_until
        dones: List[int] = []
        qw_sum = self._qw_sum
        qw_max = self._qw_max
        for arrival in arrivals:
            start = arrival if arrival > busy else busy
            if faults is not None:
                start += self._fault_stall(True)
            busy = start + occupancy
            wait = start - arrival
            qw_sum += wait
            if wait > qw_max:
                qw_max = wait
            dones.append(start + latency)
        self._qw_sum = qw_sum
        self._qw_max = qw_max
        self._qw_count += len(arrivals)
        self._busy_until = busy
        run = _WriteRun(self, lines, dones, core_id, epoch_seq, kind,
                        on_line)
        self._engine.schedule(dones[0] - self._engine.now, run.step)
        return run

    def write_log(
        self,
        log_line: int,
        data_line: int,
        core_id: int,
        epoch_seq: int,
        old_values: Optional[Dict[int, object]],
        callback: Optional[Callable[..., None]] = None,
        cb_args: Tuple = (),
    ) -> None:
        """Schedule an undo-log entry write (section 5.2.1)."""
        start = self._service_start(self._config.mc_write_occupancy,
                                    write=True)
        done = start + self._config.nvram_write_latency
        self._account_write("log")
        self._engine.schedule(
            done - self._engine.now, self._commit_log,
            done, log_line, data_line, core_id, epoch_seq, old_values,
            callback, cb_args,
        )

    def _commit_log(
        self,
        time: int,
        log_line: int,
        data_line: int,
        core_id: int,
        epoch_seq: int,
        old_values: Optional[Dict[int, object]],
        callback: Optional[Callable[..., None]],
        cb_args: Tuple,
    ) -> None:
        self._image.commit_log(
            time, log_line, data_line, core_id, epoch_seq, old_values
        )
        if callback is not None:
            callback(*cb_args, time)
