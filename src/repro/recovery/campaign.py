"""Systematic fault campaigns over the persist-barrier protocol.

A single faulted run proves one hand-picked hazard is survivable.  A
*campaign* proves the protocol against the whole fault space of a
workload: capture one fault-free baseline run, enumerate every
injectable coordinate its protocol traffic exposes (every FlushEpoch
copy, BankAck, PersistAck, PersistCMP copy, and controller transaction
-- see :data:`repro.sim.faults.FAULT_LEGS`), then re-run the workload
once per coordinate with exactly that fault targeted
(:attr:`~repro.sim.faults.FaultConfig.inject`).  Seeded randomized
multi-fault rounds compose several coordinates per run on top of the
exhaustive singles.

Every probed run is triaged into one of three verdicts:

* ``survived`` -- the run completed, the machine's structural audit
  passed, every truncation point of its persist history satisfies the
  recovery checkers (:func:`~repro.recovery.crashsweep.
  sweep_crash_points`, including the workload's semantic queue checks),
  and the final durable image equals the baseline's: the fault cost
  time, not correctness.
* ``aborted-clean`` -- a retry chain exceeded its configured bound and
  the simulated-time watchdog raised
  :class:`~repro.sim.faults.ProtocolError`; the partial durable state
  left behind still passes every checker.  The machine failed *stop*,
  not *silent*.
* ``violation`` -- anything else: a wedged run, a checker rejection, or
  a diverged durable image.  Each violation carries a minimized repro
  command (greedy fixed-point removal of injected faults while the
  verdict still fails) so the failure is one paste away from a
  debugger.

Verdicts are pure functions of the spec: the injector draws from stable
simulated coordinates (never wall clock), so the fast and reference
engines -- and any process, any shard -- produce identical verdict
maps, which ``python -m repro campaign --check-digests`` asserts.

The deliberately unsound ``reorder_window`` fault is the campaign's
self-test (:func:`campaign_selftest`): it must be triaged as a
violation, proving the triage can actually fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.recovery.crash import CrashOutcome, snapshot_epochs
from repro.recovery.crashsweep import sweep_crash_points
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.faults import (
    _GOLDEN,
    FaultConfig,
    ProtocolError,
    _mix64,
)
from repro.system import Multicore, RunResult
from repro.workloads.micro import make_benchmark

# Verdict strings (stable: they appear in reports, digests, and CI logs).
SURVIVED = "survived"
ABORTED_CLEAN = "aborted-clean"
VIOLATION = "violation"

_PINGPONG_CONFLICT_RATE = 1.0


class FaultPoint(NamedTuple):
    """One injectable coordinate of a captured run."""

    leg: str
    coords: Tuple[int, ...]


Inject = Tuple[Tuple[str, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's workload and fault-space parameters.

    ``mc_stride`` thins the controller-transaction legs (stall / torn /
    retry), which otherwise dominate the point count: only every
    ``mc_stride``-th ordinal is probed.
    """

    workload: str = "pingpong"          # "pingpong" | "queue"
    design: BarrierDesign = BarrierDesign.LB_PP
    num_cores: int = 4
    transactions: int = 6
    seed: int = 1
    fault_seed: int = 0
    mc_stride: int = 1

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.design.name.lower()} "
            f"{self.num_cores}c x{self.transactions} seed={self.seed} "
            f"fault_seed={self.fault_seed}"
        )


@dataclass
class CampaignEntry:
    """Verdict for one probed fault combination."""

    inject: Inject
    verdict: str
    detail: str = ""
    repro: Optional[str] = None

    def key(self) -> Tuple:
        """The cross-engine parity key: what was injected, what came
        of it."""
        return (self.inject, self.verdict)


@dataclass
class CampaignReport:
    """Outcome of one campaign."""

    spec: CampaignSpec
    entries: List[CampaignEntry] = field(default_factory=list)
    exhaustive_points: int = 0
    random_rounds: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> List[CampaignEntry]:
        return [e for e in self.entries if e.verdict == VIOLATION]

    @property
    def survived(self) -> int:
        return sum(1 for e in self.entries if e.verdict == SURVIVED)

    @property
    def aborted(self) -> int:
        return sum(1 for e in self.entries if e.verdict == ABORTED_CLEAN)

    def verdict_map(self) -> Dict[Inject, str]:
        """Injected-faults -> verdict, the map two engines must agree
        on exactly."""
        return {e.inject: e.verdict for e in self.entries}

    def summary(self) -> str:
        return (
            f"campaign {self.spec.describe()}: {len(self.entries)} runs "
            f"({self.exhaustive_points} exhaustive, "
            f"{self.random_rounds} randomized) -> "
            f"{self.survived} survived, {self.aborted} aborted-clean, "
            f"{len(self.violations)} violation(s)"
        )


@dataclass
class _RunProbe:
    """One faulted run plus everything the triage inspects."""

    machine: Multicore
    result: Optional[RunResult]
    outcome: CrashOutcome
    queues: Sequence
    error: Optional[ProtocolError]


# ----------------------------------------------------------------------
# Workload setup (kept local: recovery must not import the harness)
# ----------------------------------------------------------------------
def _setup(spec: CampaignSpec):
    """Config, per-core programs, and semantic-check queues for a spec.

    ``pingpong`` replicates the bench's contended multicore shape (one
    LLC bank per tile on a 2-row mesh, fully conflicting
    producer/consumer pairs); ``queue`` is the Figure 10 durable queue,
    whose recovered head/slot values the sweep validates semantically.
    """
    if spec.workload == "pingpong":
        config = MachineConfig.tiny(
            persistency=PersistencyModel.BEP,
            barrier_design=spec.design,
            num_cores=spec.num_cores,
            llc_banks=spec.num_cores,
            mesh_rows=2,
        )
        programs = [
            list(
                make_benchmark(
                    "pingpong", thread_id=tid, seed=spec.seed,
                    line_size=config.line_size,
                    conflict_rate=_PINGPONG_CONFLICT_RATE,
                ).ops(spec.transactions)
            )
            for tid in range(config.num_cores)
        ]
        return config, programs, ()
    if spec.workload == "queue":
        config = MachineConfig.tiny(
            persistency=PersistencyModel.BEP,
            barrier_design=spec.design,
        )
        queue = make_benchmark(
            "queue", thread_id=0, seed=spec.seed,
            line_size=config.line_size,
        )
        programs = [list(queue.ops(spec.transactions))]
        return config, programs, (queue,)
    raise ValueError(
        f"unknown campaign workload {spec.workload!r} "
        "(choose pingpong or queue)"
    )


def _run_probe(spec: CampaignSpec,
               fault_config: Optional[FaultConfig]) -> _RunProbe:
    """Run the spec's workload under ``fault_config`` and capture the
    persist history; a watchdog :class:`ProtocolError` aborts the run
    but still yields its partial outcome for triage."""
    config, programs, queues = _setup(spec)
    machine = Multicore(
        config, track_values=True, track_persist_order=True,
        keep_epoch_log=True, faults=fault_config,
    )
    error: Optional[ProtocolError] = None
    result: Optional[RunResult] = None
    try:
        result = machine.run(programs)
    except ProtocolError as exc:
        error = exc
    outcome = CrashOutcome(
        crash_cycle=machine.engine.now,
        image=machine.image,
        epochs=snapshot_epochs(machine),
    )
    return _RunProbe(machine, result, outcome, queues, error)


def run_baseline(spec: CampaignSpec) -> _RunProbe:
    """The fault-free capture the campaign enumerates and compares
    against.  Built with an all-zero :class:`FaultConfig` (digest-
    neutral by test) so the protocol walks the same event-level ack
    paths the faulted probes do."""
    probe = _run_probe(spec, FaultConfig(seed=spec.fault_seed))
    if probe.error is not None or probe.result is None \
            or not probe.result.finished:
        raise RuntimeError(
            f"campaign baseline did not complete: {spec.describe()}"
        )
    report = sweep_crash_points(probe.outcome, queues=probe.queues,
                                raise_on_violation=False)
    if not report.ok:
        raise RuntimeError(
            "campaign baseline fails its own crash sweep at point "
            f"{report.first_violation}: {report.violation}"
        )
    return probe


# ----------------------------------------------------------------------
# Fault-space enumeration
# ----------------------------------------------------------------------
def enumerate_points(spec: CampaignSpec,
                     baseline: _RunProbe) -> List[FaultPoint]:
    """Every injectable coordinate the baseline run's traffic exposes.

    Derived from stable simulated coordinates only -- the persist
    history's (core, epoch seq, line) triples and the controllers'
    transaction ordinals -- so the same spec enumerates the same points
    in any process and either engine mode.  Handshake legs enumerate
    per flushed epoch and per *used* bank (idle-bank acks are virtual
    and deliberately unfaulted), keyed by (core, bank, seq).
    PersistCMP covers every bank -- the completion broadcast reaches
    idle banks too.
    """
    machine = baseline.machine
    config = machine.config
    shift = config.offset_bits
    num_banks = config.llc_banks

    # (core, seq) -> used banks, plus per-line PersistAck coordinates,
    # straight from the flush-handshake persists of the history.
    epoch_banks: Dict[Tuple[int, int], List[int]] = {}
    points: List[FaultPoint] = []
    seen_ack: set = set()
    for record in baseline.outcome.image.history:
        if record.kind != "data" or record.epoch_seq < 0:
            continue
        key = (record.core_id, record.epoch_seq)
        bank = (record.line >> shift) % num_banks
        banks = epoch_banks.setdefault(key, [])
        if bank not in banks:
            banks.append(bank)
        ack = (record.core_id, record.epoch_seq, record.line)
        if ack not in seen_ack:
            seen_ack.add(ack)
            points.append(FaultPoint("persist_ack_drop", ack))

    for (core, seq), banks in sorted(epoch_banks.items()):
        banks.sort()
        for bank in banks:
            coords = (core, bank, seq)
            points.append(FaultPoint("flush_epoch_drop", coords))
            points.append(FaultPoint("flush_epoch_dup", coords))
            points.append(FaultPoint("link_delay", coords))
        for bank in banks:
            coords = (core, bank, seq)
            points.append(FaultPoint("bank_ack_drop", coords))
            points.append(FaultPoint("bank_ack_detour", coords))
        for bank in range(num_banks):
            points.append(FaultPoint("persist_cmp_drop",
                                     (core, bank, seq)))

    stride = max(1, spec.mc_stride)
    for mc in machine.mcs:
        for ordinal in range(0, mc._txn_ordinal, stride):
            coords = (mc.mc_id, ordinal)
            points.append(FaultPoint("mc_stall", coords))
            points.append(FaultPoint("torn_write", coords))
            points.append(FaultPoint("write_retry", coords))
    return points


# ----------------------------------------------------------------------
# Triage
# ----------------------------------------------------------------------
def repro_command(spec: CampaignSpec, inject: Inject,
                  reorder_window: int = 0) -> str:
    """The one-paste reproduction command for a probed combination."""
    parts = [
        "python -m repro campaign",
        f"--workload {spec.workload}",
        f"--design {spec.design.name.lower()}",
        f"--cores {spec.num_cores}",
        f"--transactions {spec.transactions}",
        f"--seed {spec.seed}",
        f"--fault-seed {spec.fault_seed}",
    ]
    for leg, coords in inject:
        parts.append(
            "--inject " + leg + ":" + ",".join(str(c) for c in coords)
        )
    if reorder_window:
        parts.append(f"--reorder-window {reorder_window}")
    return " ".join(parts)


def triage(spec: CampaignSpec, inject: Inject,
           baseline_values: Optional[Dict[int, Dict[int, object]]],
           probe: Optional[_RunProbe] = None) -> CampaignEntry:
    """Run ``inject`` (unless ``probe`` is supplied) and classify it.

    ``baseline_values`` enables the byte-exact final-image comparison.
    It is only sound for race-free workloads (``queue``): on contended
    ones a fault legitimately shifts which core's store lands last on a
    shared line, so callers pass None there and the crash sweep's
    order/semantic checks carry the verdict alone.
    """
    if probe is None:
        probe = _run_probe(
            spec, FaultConfig(seed=spec.fault_seed, inject=inject)
        )
    if probe.error is not None:
        # Watchdog abort: survivable iff what made it to NVRAM is
        # still a consistent crash state.
        report = sweep_crash_points(probe.outcome, queues=probe.queues,
                                    raise_on_violation=False)
        if report.ok:
            return CampaignEntry(
                inject, ABORTED_CLEAN,
                detail=f"watchdog: {probe.error}",
            )
        return CampaignEntry(
            inject, VIOLATION,
            detail=(
                f"watchdog abort left an inconsistent image (point "
                f"{report.first_violation}: {report.violation})"
            ),
            repro=repro_command(spec, inject),
        )
    if probe.result is None or not probe.result.finished:
        return CampaignEntry(
            inject, VIOLATION,
            detail="run wedged: the event queue drained before every "
                   "core finished",
            repro=repro_command(spec, inject),
        )
    report = sweep_crash_points(probe.outcome, queues=probe.queues,
                                raise_on_violation=False)
    if not report.ok:
        return CampaignEntry(
            inject, VIOLATION,
            detail=(
                f"crash sweep rejects point {report.first_violation} "
                f"of {report.history_len}: {report.violation}"
            ),
            repro=repro_command(spec, inject),
        )
    try:
        probe.machine.audit()
    except AssertionError as exc:
        return CampaignEntry(
            inject, VIOLATION,
            detail=f"machine audit failed: {exc}",
            repro=repro_command(spec, inject),
        )
    if (
        baseline_values is not None
        and probe.machine.image.values != baseline_values
    ):
        return CampaignEntry(
            inject, VIOLATION,
            detail="final durable image diverged from the fault-free "
                   "baseline",
            repro=repro_command(spec, inject),
        )
    return CampaignEntry(inject, SURVIVED)


def minimize_inject(inject: Inject,
                    still_fails: Callable[[Inject], bool]) -> Inject:
    """Greedy fixed-point 1-minimization of a failing combination.

    Repeatedly drops any single fault whose removal keeps
    ``still_fails`` true, until no single removal does.  The result is
    1-minimal (every remaining fault is necessary), which for the
    single-digit combinations randomized rounds produce is the full
    minimum in practice.  Pure: the caller supplies the failure oracle.
    """
    current = list(inject)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current)):
            trial = tuple(current[:i] + current[i + 1:])
            if still_fails(trial):
                current = list(trial)
                shrunk = True
                break
    return tuple(current)


# ----------------------------------------------------------------------
# Campaign drivers
# ----------------------------------------------------------------------
def random_injects(points: Sequence[FaultPoint], rounds: int,
                   faults_per_round: int, fault_seed: int) -> List[Inject]:
    """Seeded multi-fault combinations drawn from the enumerated
    points -- a pure function of (points, rounds, size, seed), so every
    engine and process probes the same combinations."""
    if not points or rounds <= 0:
        return []
    injects: List[Inject] = []
    base = _mix64(fault_seed * _GOLDEN + 0xC0FFEE)
    for r in range(rounds):
        chosen: List[FaultPoint] = []
        for j in range(faults_per_round):
            draw = _mix64(base ^ _mix64(r * 0x10001 + j))
            point = points[draw % len(points)]
            if point not in chosen:
                chosen.append(point)
        injects.append(tuple((p.leg, p.coords) for p in chosen))
    return injects


def run_campaign(
    spec: CampaignSpec,
    exhaustive: bool = True,
    random_rounds: int = 0,
    faults_per_round: int = 3,
    max_points: Optional[int] = None,
    minimize: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Explore the spec's fault space and triage every probe.

    ``max_points`` caps the exhaustive enumeration (taking a
    deterministic prefix) for smoke-sized runs; ``minimize`` controls
    whether multi-fault violations are shrunk before reporting (single
    faults are already minimal).
    """
    baseline = run_baseline(spec)
    # Byte-exact image comparison only for race-free workloads (see
    # triage): a contended run's shared-line winners may shift.
    baseline_values = (
        baseline.machine.image.values if spec.workload == "queue"
        else None
    )
    points = enumerate_points(spec, baseline)
    report = CampaignReport(spec=spec)

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    singles: List[FaultPoint] = []
    if exhaustive:
        singles = points if max_points is None else points[:max_points]
        note(f"exhaustive: {len(singles)} of {len(points)} injectable "
             f"coordinates")
        for i, point in enumerate(singles):
            entry = triage(spec, ((point.leg, point.coords),),
                           baseline_values)
            report.entries.append(entry)
            if entry.verdict == VIOLATION:
                note(f"  VIOLATION at {point.leg}{point.coords}: "
                     f"{entry.detail}")
            if (i + 1) % 200 == 0:
                note(f"  ... {i + 1}/{len(singles)} probed")
    report.exhaustive_points = len(singles)

    combos = random_injects(points, random_rounds, faults_per_round,
                            spec.fault_seed)
    if combos:
        note(f"randomized: {len(combos)} multi-fault rounds "
             f"(<= {faults_per_round} faults each)")
    for inject in combos:
        entry = triage(spec, inject, baseline_values)
        if entry.verdict == VIOLATION and minimize and len(inject) > 1:
            def still_fails(trial: Inject) -> bool:
                return (
                    triage(spec, trial, baseline_values).verdict
                    == VIOLATION
                )
            minimal = minimize_inject(inject, still_fails)
            if minimal != inject:
                entry = triage(spec, minimal, baseline_values)
                entry.detail = (
                    f"(minimized from {len(inject)} faults) "
                    + entry.detail
                )
        report.entries.append(entry)
        if entry.verdict == VIOLATION:
            note(f"  VIOLATION at {entry.inject}: {entry.detail}")
    report.random_rounds = len(combos)
    return report


def campaign_selftest(spec: CampaignSpec,
                      reorder_window: int = 6) -> CampaignEntry:
    """The triage's own negative control: the unsound reorder fault.

    Runs the spec under ``reorder_window`` (data persists recorded out
    of order) and triages the result exactly as :func:`triage` does.
    A healthy checker MUST return a ``violation`` entry here; the
    campaign CLI's ``--expect-violation`` asserts it.
    """
    baseline = run_baseline(spec)
    baseline_values = (
        baseline.machine.image.values if spec.workload == "queue"
        else None
    )
    probe = _run_probe(
        spec,
        FaultConfig(seed=spec.fault_seed, reorder_window=reorder_window),
    )
    entry = triage(spec, (), baseline_values, probe=probe)
    if entry.verdict == VIOLATION:
        entry.repro = repro_command(spec, (),
                                    reorder_window=reorder_window)
    return entry
