"""Fast mode vs the reference mode.

A core's clock claims and drain sessions, and the machine's fused
request paths, claim to be *observationally identical* to the reference
mode selected by ``REPRO_SLOW_ENGINE=1``.  These tests run one small
workload per persistency model both ways and assert:

* identical determinism digests (stats, cycles, NVRAM image, persist
  order -- see :mod:`repro.sim.digest`);
* identical recovery-checker verdicts on a mid-run crash.

They also run the contended multicore matrix, the perfbench workloads
cut at cycle bounds and a faulted 16-core run both ways, and check that
no epoch completion reaches a clock claim while nothing holds the
clock.
"""

from dataclasses import replace

import pytest

from repro.harness.bench import _multicore_setup
from repro.recovery.checker import ConsistencyViolation, check_epoch_order
from repro.recovery.crash import run_with_crash
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import run_digest, state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.micro import make_benchmark
from tests.test_perfbench_pins import WORKLOADS as PERFBENCH_WORKLOADS

MODELS = [
    PersistencyModel.NP,
    PersistencyModel.SP,
    PersistencyModel.EP,
    PersistencyModel.BEP,
    PersistencyModel.BSP,
    PersistencyModel.BSP_WT,
]

_TXNS = 10
_CRASH_CYCLE = 3000


def _config(model: PersistencyModel) -> MachineConfig:
    overrides = {}
    if model is PersistencyModel.BSP:
        overrides["bsp_epoch_stores"] = 25
    return MachineConfig.tiny(
        persistency=model, barrier_design=BarrierDesign.LB_IDT, **overrides
    )


def _programs(config: MachineConfig):
    return [
        list(
            make_benchmark(
                "queue", thread_id=tid, seed=7, line_size=config.line_size
            ).ops(_TXNS)
        )
        for tid in range(config.num_cores)
    ]


def _full_run_digest(model: PersistencyModel) -> str:
    config = _config(model)
    machine = Multicore(config, track_values=True, track_persist_order=True)
    result = machine.run(_programs(config))
    return state_digest(machine, result)


def _crash_verdict(model: PersistencyModel):
    """(checker outcome, persist count at crash) for a mid-run crash."""
    config = _config(model)
    machine = Multicore(config, track_values=True, track_persist_order=True,
                        keep_epoch_log=True)
    outcome = run_with_crash(machine, _programs(config), _CRASH_CYCLE)
    try:
        checked = check_epoch_order(outcome)
        return ("ok", checked, outcome.image.persist_count)
    except ConsistencyViolation as exc:
        return ("violation", str(exc), outcome.image.persist_count)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_digest_matches_reference_engine(model):
    fast = _full_run_digest(model)
    with reference_mode():
        ref = _full_run_digest(model)
    assert fast == ref


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_crash_verdict_matches_reference_engine(model):
    fast = _crash_verdict(model)
    with reference_mode():
        ref = _crash_verdict(model)
    assert fast == ref
    if model in (PersistencyModel.BEP, PersistencyModel.BSP,
                 PersistencyModel.EP):
        # The epoch models must actually pass the ordering check, not
        # merely agree on a verdict.
        assert fast[0] == "ok"


# ----------------------------------------------------------------------
# Multicore conflict-path matrix: contended pingpong from 4 up to 64
# cores, with (LB++) and without (LB) inter-thread dependence tracking.
# This is the regime where the fused paths' directory guard, the
# per-line epoch-tag probe and the deadlock-avoiding split path all
# fire; the high-core-count rows additionally cover the virtualised
# handshake broadcast legs at real scale.  The digests prove the fast
# formulations are observationally identical to the reference walk.
# Transaction counts shrink with core count so the matrix stays in the
# unit-test wall-time band.
# ----------------------------------------------------------------------
MULTICORE_CONFIGS = [
    (4, BarrierDesign.LB),
    (4, BarrierDesign.LB_PP),
    (8, BarrierDesign.LB),
    (8, BarrierDesign.LB_PP),
    (16, BarrierDesign.LB),
    (16, BarrierDesign.LB_PP),
    (32, BarrierDesign.LB),
    (32, BarrierDesign.LB_PP),
    (64, BarrierDesign.LB),
    (64, BarrierDesign.LB_PP),
]

_MULTI_TXNS = 25


def _multi_txns(cores: int) -> int:
    return _MULTI_TXNS if cores <= 8 else max(6, 192 // cores)


@pytest.mark.parametrize(
    "cores,design", MULTICORE_CONFIGS,
    ids=[f"{c}c-{d.value}" for c, d in MULTICORE_CONFIGS],
)
def test_multicore_digest_matches_reference_engine(cores, design):
    config, programs = _multicore_setup(
        seed=3, transactions=_multi_txns(cores),
        num_cores=cores, barrier_design=design,
    )
    fast = run_digest(config, programs)
    with reference_mode():
        ref = run_digest(config, programs)
    assert fast == ref


# ----------------------------------------------------------------------
# Runs cut at a cycle bound.  run(max_cycles=..., drain=False) stops the
# clock at the bound, so every fast path that claims the clock must
# refuse a cycle past it -- a core's op loop included, in the middle of
# a stretch of L1 hits.  Each perfbench workload, shortened so the
# largest bound still falls inside it, is cut at four bounds.
# ----------------------------------------------------------------------
_CUT_BOUNDS = (1_000, 12_345, 50_001, 77_777)
_CUT_TXNS = {"hotset": 500, "serving": 70, "pingpong4": 70,
             "bsp_stream": 2500}


def _cut_run(workload, bound: int, slow: bool):
    with reference_mode(slow):
        config = workload.config()
        machine = Multicore(config, track_values=True,
                            track_persist_order=True)
    result = machine.run(workload.programs(1, config.line_size),
                         max_cycles=bound, drain=False)
    return state_digest(machine, result), machine.engine.now, result.finished


@pytest.mark.parametrize("name", sorted(_CUT_TXNS))
def test_cut_runs_match_reference_engine(name):
    workload = replace(PERFBENCH_WORKLOADS[name],
                       transactions=_CUT_TXNS[name])
    for bound in _CUT_BOUNDS:
        fast = _cut_run(workload, bound, slow=False)
        assert fast == _cut_run(workload, bound, slow=True), bound
        assert fast[1:] == (bound, False), bound


# ----------------------------------------------------------------------
# Clock holds.  Only a core claims the clock: its op loop reads
# Engine.horizon and its drain session opens with Engine.ff_begin.  An
# epoch's completion (EpochManager._complete) takes no hold, so its
# hooks -- the proactive flush and the persist check -- must reach
# neither unheld; a persist they trigger holds the clock across its own
# waiters (EpochManager.mark_persisted).
# ----------------------------------------------------------------------
_HOLD_CASES = sorted(_CUT_TXNS) + ["EP", "BEP", "BSP"]


def _unheld_claims_in_completions(case: str):
    """Run ``case`` (a shortened perfbench workload, or the queue run of
    an epoch model) on a fast engine; returns (epoch completions, the
    claim entry points reached inside one with no clock hold)."""
    with reference_mode(False):
        if case in _CUT_TXNS:
            workload = replace(PERFBENCH_WORKLOADS[case],
                               transactions=_CUT_TXNS[case])
            config = workload.config()
            programs = workload.programs(1, config.line_size)
        else:
            config = _config(PersistencyModel(case))
            programs = _programs(config)
        machine = Multicore(config)
    engine = machine.engine
    inside = [0]
    completions = [0]
    unheld = []
    for name in ("horizon", "ff_begin"):
        def watched(*args, _method=getattr(engine, name), _name=name):
            if inside[0] and not engine.advance_holds:
                unheld.append(_name)
            return _method(*args)
        setattr(engine, name, watched)
    for mgr in machine.managers:
        def complete(epoch, _complete=mgr._complete):
            inside[0] += 1
            completions[0] += 1
            try:
                _complete(epoch)
            finally:
                inside[0] -= 1
        mgr._complete = complete
    assert machine.run(programs).finished
    return completions[0], unheld


@pytest.mark.parametrize("case", _HOLD_CASES)
def test_epoch_completions_claim_nothing_unheld(case):
    completions, unheld = _unheld_claims_in_completions(case)
    assert completions > 0
    assert unheld == []


def conflict_counters(stats):
    """The conflict-path counters a fast path could silently skew.

    Inter-/intra-thread conflict detections and IDT trackings live in
    the machine-wide ``conflicts`` domain; edge recordings and register
    overflows in ``idt``; splits and persisted-epoch counts are summed
    across the per-core domains.  Each counter names one mechanism, so a
    mismatch is more legible than a digest mismatch.
    """
    conflicts = stats.domain("conflicts")
    idt = stats.domain("idt")
    return {
        "inter_thread": int(conflicts.get("inter_thread")),
        "intra_thread": int(conflicts.get("intra_thread")),
        "idt_tracked": int(conflicts.get("idt_tracked")),
        "idt_edges": int(idt.get("idt_edges")),
        "idt_register_overflow": int(idt.get("idt_register_overflow")),
        "epoch_splits": int(stats.total("epoch_splits")),
        "epochs_persisted": int(stats.total("epochs_persisted")),
    }


def test_multicore_conflict_counters_match_reference_engine():
    """Paper-semantics parity on the contended run.

    The digest already covers the full stats dump; this spells out the
    headline claim -- the fast conflict path neither loses nor invents
    inter-thread conflicts, IDT edges, or epoch splits -- and pins that
    the workload actually exercises all three.
    """
    config, programs = _multicore_setup(seed=3, transactions=_MULTI_TXNS)

    def counters(slow):
        with reference_mode(slow):
            machine = Multicore(config)
            result = machine.run(programs)
        return conflict_counters(result.stats)

    fast = counters(False)
    assert fast == counters(True)
    assert fast["inter_thread"] > 0
    assert fast["idt_edges"] > 0
    assert fast["epoch_splits"] > 0


def test_faulted_16core_pingpong_digest_matches_reference():
    """Fault injection at 16 cores: identical digests in both modes.

    Faulted runs keep real per-ack events (the virtual-ack fold is
    fault-free-only), so this pins that the two paths coexist at a core
    count where most banks take the virtual path and the faulted ones
    do not.
    """
    from repro.sim.faults import FaultConfig

    faults = FaultConfig(seed=5, rates=(
        ("bank_ack_drop", 0.25), ("bank_ack_detour", 0.15),
        ("mc_stall", 0.05)))
    config, programs = _multicore_setup(
        seed=3, transactions=8, num_cores=16,
        barrier_design=BarrierDesign.LB_PP,
    )

    def one(slow):
        with reference_mode(slow):
            machine = Multicore(config, faults=faults)
            result = machine.run(programs)
        stats = result.stats
        return (
            result.finished,
            state_digest(machine, result),
            int(stats.total("flush_ack_drops")),
            int(stats.total("flush_ack_retries")),
        )

    fast = one(False)
    assert fast == one(True)
    assert fast[0]
    assert fast[2] > 0  # faults actually fired


def test_fault_coordinates_are_core_count_stable():
    """A fault decision is a pure function of its coordinates.

    The splitmix64 oracle hashes (core, bank, epoch seq, attempt) --
    never the machine's core count or any enumeration order -- so the
    decisions for cores 0..3 must be bit-identical whether they are
    queried alone, inside a 64-core scan, or in reverse order.  This is
    what makes faulted digests comparable across the scaling matrix.
    """
    from repro.sim.faults import FaultConfig, FaultInjector

    cfg = FaultConfig(seed=11, rates=(
        ("bank_ack_drop", 0.3), ("bank_ack_detour", 0.2), ("mc_stall", 0.1)))

    def decisions(injector, cores, reverse=False):
        coords = [
            (c, b, s, a)
            for c in range(cores)
            for b in range(4)
            for s in range(3)
            for a in range(2)
        ]
        if reverse:
            coords.reverse()
        return {
            (c, b, s, a): (
                injector.fires("bank_ack_drop", c, b, s, attempt=a),
                injector.fires("bank_ack_detour", c, b, s, attempt=a),
                injector.fires("mc_stall", b, s),
            )
            for c, b, s, a in coords
        }

    small = decisions(FaultInjector(cfg), 4)
    wide = decisions(FaultInjector(cfg), 64)
    wide_rev = decisions(FaultInjector(cfg), 64, reverse=True)
    assert wide == wide_rev
    assert {k: wide[k] for k in small} == small
    # The oracle must actually be firing at these rates, not vacuously
    # returning "no fault" everywhere.
    assert any(v[0] for v in wide.values())
    assert any(v[1] for v in wide.values())


def test_digest_sensitive_to_run_shape():
    """Different workloads must not collide to one digest."""
    config = _config(PersistencyModel.BEP)
    machine = Multicore(config, track_values=True, track_persist_order=True)
    result = machine.run(_programs(config))
    base = state_digest(machine, result)

    other_cfg = _config(PersistencyModel.BEP)
    other = Multicore(other_cfg, track_values=True, track_persist_order=True)
    programs = [
        list(
            make_benchmark(
                "hash", thread_id=tid, seed=7, line_size=other_cfg.line_size
            ).ops(_TXNS)
        )
        for tid in range(other_cfg.num_cores)
    ]
    assert state_digest(other, other.run(programs)) != base
