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
  whose older version an unpersisted epoch still holds in some cache,
  and a configured fault injector must each force the session to
  refuse or fall back, without perturbing the outcome;
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
from repro.workloads.base import Program
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
    assert all(core.ff_fallback_reasons["faults"] == core.ff_fallbacks
               for core in machine.cores)
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


def _line_state(machine, line):
    """Everything ``try_clean_store`` could change about ``line``."""
    def cached(cache):
        entry = cache.lookup(line)
        return None if entry is None else (entry.dirty, entry.epoch,
                                           entry._lru)
    ent = machine.directory.peek(line)
    return (
        [cached(cache) for cache in machine.l1s + machine.llc_banks],
        None if ent is None else (ent.owner, set(ent.sharers)),
        [(epoch.key, set(epoch.lines), set(epoch.all_lines))
         for mgr in machine.managers for epoch in mgr.window],
        list(machine._lat_counts),
    )


def test_cache_state_guard_refuses_a_foreign_dirty_line():
    # The cache-state guard is the conflict *and* flush-in-window guard:
    # a line whose previous version belongs to an unpersisted epoch sits
    # dirty in some cache, so try_clean_store must refuse it and leave no
    # trace.  Stage it directly: core 1 dirties a line under its epoch,
    # which makes core 1 the line's owner, then core 0's drain asks for
    # the same line.
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
    assert line in machine.managers[1].current.lines
    epoch0 = machine.managers[0].current_or_new()
    before = _line_state(machine, line)
    entry = machine.l1s[0].lookup(line)
    assert machine.try_clean_store(0, line, entry, None, epoch0) == _REFUSED
    assert _line_state(machine, line) == before
    assert not epoch0.lines
    machine.audit()


@pytest.mark.parametrize("l1_copy", [True, False],
                         ids=["s_copy_upgrade", "l1_miss"])
def test_cache_state_guard_refuses_an_older_version_in_the_llc(l1_copy):
    # The one place an unpersisted version hides from the L1 checks.
    # Core 1's load wrote core 0's dirty line back to the LLC (the IDT
    # case: core 0 keeps a clean copy), then core 1 evicted its clean
    # copy, and without ``l1_copy`` core 0 evicted its own.  The
    # directory lets core 0 take the line exclusively, so only the LLC
    # copy, still dirty under core 0's closed and unpersisted epoch,
    # refuses core 0's next store: the general classifier owes it an
    # intra-thread conflict.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_IDT,
        num_cores=2,
    )
    with reference_mode(False):
        machine = Multicore(config)
    line = 0x1000
    machine.run([Program().store(line).barrier(),
                 Program().compute(2000).load(line)], drain=False)
    older = machine.managers[0].window[0]
    assert older.complete and not older.persisted
    for core in (1,) if l1_copy else (1, 0):
        machine.l1s[core].remove(line)
        machine.directory.drop_core(line, core)
    llc_entry = machine.llc_banks[machine.amap.bank_of(line)].lookup(line)
    assert llc_entry.unpersisted and llc_entry.epoch is older
    assert machine.directory.exclusive_ok(line, 0)
    entry = machine.l1s[0].lookup(line)
    assert (entry is not None) is l1_copy
    assert entry is None or not entry.dirty
    machine.audit()
    epoch = machine.managers[0].current_or_new()
    assert epoch is not older
    before = _line_state(machine, line)
    assert machine.try_clean_store(0, line, entry, None, epoch) == _REFUSED
    assert _line_state(machine, line) == before
    machine.audit()


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
