"""Soundness of the epoch-granular fast-forward drain engine.

The fast-forward session (cpu/processor.py) claims to be
*observationally invisible*: any stretch of the write-buffer drain it
advances analytically must leave stats, cycle counts, the NVRAM image,
and the persist order byte-identical to the event-per-op reference
engine (``REPRO_SLOW_ENGINE=1``).  These tests attack that claim from
three sides:

* randomized interleavings -- serving and pingpong program prefixes
  across seeds and core counts, plus the miss- and flush-heavy
  ``flushbound`` and ``sps`` micros, fast vs reference digests;
* the guard predicates, one by one -- a conflict in the window, a line
  still tagged by an unpersisted (flushing) epoch, and a configured
  fault injector must each force the session to refuse or fall back,
  without perturbing the outcome;
* the counters -- fast-forward diagnostics are plain attributes, never
  digest inputs, so a fast run and a reference run of the same program
  still digest identically even though only one of them fast-forwards.
"""

import pytest

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import run_digest, state_digest
from repro.sim.engine import reference_mode
from repro.sim.faults import FaultConfig
from repro.system import _REFUSED, Multicore
from repro.workloads.micro import make_benchmark


def _programs(benchmark, config, seed, transactions, **kwargs):
    return [
        list(
            make_benchmark(
                benchmark,
                thread_id=tid,
                seed=seed,
                line_size=config.line_size,
                **kwargs,
            ).ops(transactions)
        )
        for tid in range(config.num_cores)
    ]


def ff_counters(machine):
    """Fast-forward session counters summed across cores.

    Diagnostics only: they live as plain attributes on the ``Core``
    objects, never in the stat domains, so the reference engine (which
    has no fast-forward sessions and leaves them at zero) still digests
    identically.
    """
    return {
        "batches": sum(c.ff_batches for c in machine.cores),
        "stores": sum(c.ff_stores for c in machine.cores),
        "fallbacks": sum(c.ff_fallbacks for c in machine.cores),
    }


def _fast_and_reference(config, programs):
    """Run the same programs both ways; return (fast machine, digests).

    Fast mode is forced explicitly so the comparison stays meaningful
    when the whole suite runs under ``REPRO_SLOW_ENGINE=1``.
    """
    with reference_mode(False):
        machine = Multicore(config, track_values=True,
                            track_persist_order=True)
        result = machine.run([list(p) for p in programs])
    fast_digest = state_digest(machine, result)
    with reference_mode():
        ref_machine = Multicore(
            config, track_values=True, track_persist_order=True
        )
        ref_result = ref_machine.run([list(p) for p in programs])
        ref_digest = state_digest(ref_machine, ref_result)
    return machine, fast_digest, ref_digest


# ----------------------------------------------------------------------
# Randomized interleavings: fast == reference, digest for digest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload,seed,transactions", [
    ("serving", 2, 120),
    ("serving", 11, 120),
    ("serving", 29, 120),
    # The flush-bound single-core shapes: a footprint 4x the L1 with a
    # barrier every 8 lines (nearly every access an L1 miss, every
    # epoch a multi-line flush), and the Table 2 SPS swap micro.
    ("flushbound", 1, 200),
    ("sps", 1, 60),
], ids=["2", "11", "29", "flushbound", "sps"])
def test_serving_prefix_digest_parity(workload, seed, transactions):
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs(workload, config, seed, transactions)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    if workload == "serving":
        assert ff_counters(machine)["stores"] > 0


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("cores,design", [
    (2, BarrierDesign.LB_PP),
    (2, BarrierDesign.LB_IDT),
])
def test_pingpong_prefix_digest_parity(seed, cores, design):
    # The contended extreme: both cores of a pair hammer shared mailbox
    # lines, so sessions constantly abort mid-burst on foreign tags and
    # re-enter -- the interleaving stress case for re-materialization.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=design,
        num_cores=cores,
    )
    programs = _programs("pingpong", config, seed, 80)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["stores"] > 0
    assert counters["fallbacks"] > 0


@pytest.mark.parametrize("model", [
    PersistencyModel.EP,
    PersistencyModel.BSP,
])
def test_stalling_models_digest_parity(model):
    # EP stalls at every barrier and BSP closes epochs by store count:
    # both interleave drain bursts with flush traffic, exercising the
    # session's stop/until and flush-in-window exits.
    config = MachineConfig.tiny(
        persistency=model,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("queue", config, 5, 60)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref


# ----------------------------------------------------------------------
# Guard predicates, one by one
# ----------------------------------------------------------------------
def test_faults_configured_refuses_every_session():
    # Fault decisions are keyed by splitmix64 coordinates that include
    # per-event attempt counts; fast-forwarding could shift a draw, so a
    # configured injector (even an all-zero one) disables the engine.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs("serving", config, 7, 60)
    faults = FaultConfig(seed=9)
    with reference_mode(False):
        machine = Multicore(config, track_values=True,
                            track_persist_order=True, faults=faults)
        result = machine.run([list(p) for p in programs])
    counters = ff_counters(machine)
    assert counters["stores"] == 0
    assert counters["batches"] == 0
    assert counters["fallbacks"] > 0
    # The refusal is also invisible: same digest as the reference
    # engine under the same (all-zero) fault plan.
    with reference_mode():
        ref_machine = Multicore(config, track_values=True,
                                track_persist_order=True,
                                faults=FaultConfig(seed=9))
        ref_result = ref_machine.run([list(p) for p in programs])
    assert state_digest(machine, result) == state_digest(
        ref_machine, ref_result
    )


def test_foreign_tag_refuses_the_store():
    # The epoch-tag probe is the conflict *and* flush-in-window guard: a
    # line whose previous version belongs to any unpersisted epoch is
    # still in the tag map, so try_clean_store must refuse it and leave
    # no trace.  Stage it directly: core 1 dirties a line under its epoch,
    # then core 0's session asks for the same line.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    with reference_mode(False):
        machine = Multicore(config)
    line = 0x0C00_0000
    done = []
    machine.engine.schedule(
        0, lambda: machine.store(
            1, line, None, machine.managers[1].current_or_new(),
            on_done=done.append,
        )
    )
    machine.engine.run()
    assert done, "staging store never completed"
    assert line in machine._epoch_tags
    epoch0 = machine.managers[0].current_or_new()
    tags_before = dict(machine._epoch_tags)
    assert machine.try_clean_store(0, line, None, epoch0) == _REFUSED
    assert machine._epoch_tags == tags_before
    assert not epoch0.lines


def test_contended_run_falls_back_and_recovers():
    # End-to-end version of the conflict guard: full-rate pingpong
    # forces mid-session fallbacks, after which sessions must re-enter
    # and keep absorbing the uncontended payload stores.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("pingpong", config, 13, 60, conflict_rate=1.0)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["fallbacks"] > 0
    assert counters["stores"] > 0


def test_ep_flush_stalls_fall_back():
    # Under EP every barrier waits for the closed epoch to persist, so
    # drains regularly start while flush handshakes are in flight; the
    # session must yield those windows to the event-per-op path.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.EP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("queue", config, 5, 60)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    assert ff_counters(machine)["fallbacks"] > 0


# ----------------------------------------------------------------------
# Counters are diagnostics, not state
# ----------------------------------------------------------------------
def test_ff_counters_never_reach_the_digest():
    # A reference run never fast-forwards, so if the counters leaked
    # into the digest the two modes could not match -- this pins the
    # invariant the parity tests above rely on.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs("serving", config, 19, 80)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert ff_counters(machine)["stores"] > 0  # fast run did fast-forward
    assert fast == ref                          # ...and it cannot be seen
