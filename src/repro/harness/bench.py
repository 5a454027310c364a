"""Bench check registry: the checks ``python -m repro bench`` runs.

Host time is measured in one place, ``perfbench/`` (median and spread
over fresh processes, gated on a reference digest; see
``perfbench/README.md``).  This module measures no host time.  It is a
registry of the checks nothing else in the repo runs, each a *family*:
one function that returns an exact, reproducible record whose ``ok``
entry is the family's verdict.

* ``scaling`` -- handshake messages per flush for contended pingpong
  and sharded serving at 4..64 cores, the all-to-all strawman derived
  from the arbiter counters
  (:func:`repro.harness.report.all_to_all_counters`), a log-log slope
  fit (arbiter ~linear, all-to-all ~quadratic), and fast-vs-reference
  digest + handshake-counter parity at the largest core count.
* ``crash`` -- exhaustive crash-point sweeps over six captured runs on
  both engines, each cross-checked against the truncate-and-recheck
  oracle, the reorder-fault checker self-test, and a faulted pingpong
  run that must complete through the BankAck retry path.
* ``figures`` -- the exact :class:`~repro.harness.executor.RunSummary`
  of every deduplicated spec of the tiny figure build and of a
  five-run small-scale probe, so a change that moves a paper-facing
  number in both engine modes alike shows up in the record.

``python -m repro bench`` runs every family (``--only`` picks one),
writes ``BENCH_sweep.json``, and exits nonzero when any family it ran
is not ok.  A restricted run carries the other families' records
forward from the existing file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.executor import RunSpec, run_specs
from repro.harness.report import all_to_all_counters, scaling_table
from repro.harness.runner import BSP_EPOCH_SIZES, Scale
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.micro import make_benchmark

DEFAULT_OUTPUT = "BENCH_sweep.json"

# Contended pingpong: producer/consumer pairs hammering a shared mailbox
# under BEP + LB++, every transaction leading with a contended ack --
# the shape that exercises inter-thread conflicts, IDT edges, and epoch
# splits.
_PINGPONG_CORES = 4
_PINGPONG_CONFLICT_RATE = 1.0

# Core-count scaling sweep: pingpong and the sharded-serving migration
# workload at {4..64} cores x {LB, LB++}, recording handshake
# messages-per-flush.  Transaction counts shrink with core count so
# every point stays small (the statistic converges after a handful of
# flushes per core).
_SCALING_CORES = (4, 8, 16, 32, 64)
_SCALING_DESIGNS = (BarrierDesign.LB, BarrierDesign.LB_PP)
_SCALING_TXN_BUDGET = 768       # ~transactions x cores per point
_SCALING_TXN_MIN = 12
_SCALING_SHARDED_KEYS = 1024
_SCALING_MIGRATE_FRACTION = 0.2
# Log-log slope acceptance bands: the arbiter's per-flush message count
# must grow ~linearly in cores, the all-to-all strawman ~quadratically.
_SCALING_LINEAR_MAX_SLOPE = 1.35
_SCALING_QUADRATIC_MIN_SLOPE = 1.65

# Crash sweeps: transactions per scenario, sized so the captured
# histories stay in the hundreds-to-low-thousands of persists -- every
# truncation point is still validated (both incrementally and by the
# truncate-and-recheck oracle) in seconds.
_SWEEP_QUEUE_TRANSACTIONS = 15
_SWEEP_MULTI_TRANSACTIONS = 12
_SWEEP_FAULT_TRANSACTIONS = 8
# Serving is ~70% reads; 60 transactions yield a persist history in the
# low hundreds (one 9-line epoch per PUT), same band as the others.
_SWEEP_SERVING_TRANSACTIONS = 60


# ----------------------------------------------------------------------
# Workload setups
# ----------------------------------------------------------------------
def _multicore_setup(
    seed: int, transactions: int,
    num_cores: int = _PINGPONG_CORES,
    barrier_design: BarrierDesign = BarrierDesign.LB_PP,
    conflict_rate: float = _PINGPONG_CONFLICT_RATE,
) -> Tuple[MachineConfig, List[list]]:
    """Contended-pingpong configuration."""
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=barrier_design,
        num_cores=num_cores,
        # One LLC bank per tile and a 2D mesh, as in Figure 2 (the stock
        # tiny config is a 2-tile chain, which undersells the flush
        # handshake's bank fan-out and gives every bank a distinct hop
        # distance, so the ack fan-outs would never batch).
        llc_banks=num_cores,
        mesh_rows=2,
    )
    programs = [
        list(
            make_benchmark(
                "pingpong", thread_id=tid, seed=seed,
                line_size=config.line_size,
                conflict_rate=conflict_rate,
            ).ops(transactions)
        )
        for tid in range(config.num_cores)
    ]
    return config, programs


def _sharded_setup(
    seed: int, transactions: int, num_cores: int,
) -> Tuple[MachineConfig, List[list]]:
    """Sharded-serving configuration: one shard per core, cross-shard
    ownership migration driving inter-thread handshake traffic."""
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=num_cores,
        llc_banks=num_cores,
        mesh_rows=2,
    )
    programs = [
        list(
            make_benchmark(
                "sharded_serving", thread_id=tid, seed=seed,
                line_size=config.line_size,
                num_keys=_SCALING_SHARDED_KEYS,
                num_shards=num_cores,
                migrate_fraction=_SCALING_MIGRATE_FRACTION,
            ).ops(transactions)
        )
        for tid in range(config.num_cores)
    ]
    return config, programs


# ----------------------------------------------------------------------
# ``crash``: exhaustive crash-point sweeps + fault injection
# ----------------------------------------------------------------------
def _sweep_scenarios(seed: int) -> List[tuple]:
    """(name, build) pairs for the sweep matrix.

    ``build()`` returns ``(config, programs, queues, bsp)``.  The queue
    semantic check applies only under BEP: BSP's atomicity is *via the
    undo log* -- a torn epoch may durably advance the head cursor before
    the entry, relying on rollback -- so the BSP scenario checks undo
    coverage instead.
    """
    def one_program(benchmark, transactions, model=PersistencyModel.BEP,
                    **overrides):
        """Thread 0's program under LB++, plus its workload object."""
        config = MachineConfig.tiny(
            persistency=model, barrier_design=BarrierDesign.LB_PP,
            **overrides,
        )
        bench = make_benchmark(benchmark, thread_id=0, seed=seed,
                               line_size=config.line_size)
        return config, [list(bench.ops(transactions))], bench

    def queue_bep():
        config, programs, bench = one_program(
            "queue", _SWEEP_QUEUE_TRANSACTIONS)
        return config, programs, [bench], False

    def queue_bsp():
        config, programs, _ = one_program(
            "queue", _SWEEP_QUEUE_TRANSACTIONS, PersistencyModel.BSP,
            bsp_epoch_stores=30)
        return config, programs, [], True

    def single_core(benchmark, transactions):
        config, programs, _ = one_program(benchmark, transactions,
                                          num_cores=1)
        return config, programs, [], False

    def pingpong(design):
        config, programs = _multicore_setup(
            seed, _SWEEP_MULTI_TRANSACTIONS, barrier_design=design)
        return config, programs, [], False

    return [
        ("queue_bep", queue_bep),
        ("queue_bsp", queue_bsp),
        ("flushbound_bep",
         lambda: single_core("flushbound", _SWEEP_QUEUE_TRANSACTIONS)),
        ("pingpong4_lb", lambda: pingpong(BarrierDesign.LB)),
        ("pingpong4_lbpp", lambda: pingpong(BarrierDesign.LB_PP)),
        ("serving_bep",
         lambda: single_core("serving", _SWEEP_SERVING_TRANSACTIONS)),
    ]


def _sweep_once(build) -> dict:
    """Capture one run, sweep it incrementally, and cross-check the
    verdict against the truncate-and-recheck oracle at stride 1."""
    from repro.recovery import (
        capture_run,
        sweep_crash_points,
        sweep_reference,
    )

    config, programs, queues, bsp = build()
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True)
    outcome = capture_run(machine, programs)
    fast = sweep_crash_points(outcome, queues=queues, bsp=bsp,
                              raise_on_violation=False)
    oracle = sweep_reference(outcome, queues=queues, bsp=bsp, stride=1,
                             raise_on_violation=False)
    digest = hashlib.sha256()
    for line, value in sorted(outcome.image.values.items()):
        digest.update(f"{line:x}={value!r};".encode())
    return {
        "points": fast.points,
        "history_len": fast.history_len,
        "data_persists": fast.data_persists,
        "queue_checks": fast.queue_checks,
        "bsp_checked": fast.bsp_checked,
        "ok": fast.ok,
        "first_violation": fast.first_violation,
        "oracle_match": (fast.merge_key() == oracle.merge_key()
                         and fast.data_persists == oracle.data_persists),
        "image": digest.hexdigest()[:16],
    }


def _fault_run(seed: int, fault_config) -> dict:
    """One faulted pingpong run: completion, counters, state digest."""
    config, programs = _multicore_setup(seed, _SWEEP_FAULT_TRANSACTIONS)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, faults=fault_config)
    result = machine.run(programs)
    return {
        "finished": result.finished,
        "digest": state_digest(machine, result),
        "ack_drops": int(result.stats.total("flush_ack_drops")),
        "ack_retries": int(result.stats.total("flush_ack_retries")),
        "ack_delays": int(result.stats.total("flush_ack_delays")),
        "mc_stalls": int(result.stats.total("fault_stalls")),
        "mc_stall_cycles": int(result.stats.total("fault_stall_cycles")),
    }


def _reorder_selftest(seed: int) -> dict:
    """The checker self-test: a reorder-persists fault must make the
    sweep raise."""
    from repro.recovery import capture_run, sweep_crash_points
    from repro.sim.faults import FaultConfig

    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
    )
    queue = make_benchmark("queue", thread_id=0, seed=seed,
                           line_size=config.line_size)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True,
                        faults=FaultConfig(reorder_window=6))
    outcome = capture_run(machine,
                          [list(queue.ops(_SWEEP_QUEUE_TRANSACTIONS))])
    report = sweep_crash_points(outcome, queues=[queue],
                                raise_on_violation=False)
    return {
        "raised": not report.ok,
        "first_violation": report.first_violation,
        "history_len": report.history_len,
    }


def _both_engines(check: Callable[[], dict]) -> Tuple[dict, dict]:
    """``check()`` on the fast engine, then on the reference engine."""
    with reference_mode(False):
        fast = check()
    with reference_mode():
        ref = check()
    return fast, ref


def run_crash_sweep_bench(seed: int = 1) -> dict:
    """The ``crash`` family: exhaustive sweeps fast vs reference engine,
    the reorder-fault self-test, and faulted runs exercising the
    BankAck retry/timeout path.

    Every scenario is captured and swept under both engine modes; the
    verdicts (and the incremental-vs-oracle cross-check inside each)
    must agree exactly.  The faulted runs must *complete* -- the retry
    path bounds every dropped ack -- with identical state digests
    across modes and nonzero retry counters in the report.
    """
    from repro.sim.faults import FaultConfig

    sweeps: Dict[str, dict] = {}
    for name, build in _sweep_scenarios(seed):
        fast, ref = _both_engines(lambda: _sweep_once(build))
        sweeps[name] = {
            "fast": fast,
            "reference": ref,
            "match": fast == ref and fast["ok"] and fast["oracle_match"],
        }
    matched = sum(r["match"] for r in sweeps.values())
    total_points = sum(r["fast"]["points"] for r in sweeps.values())
    print(f"[bench] crash sweeps: {matched}/{len(sweeps)} scenarios "
          f"accept all {total_points} truncation points in both modes")

    fast, ref = _both_engines(lambda: _reorder_selftest(seed))
    selftest = {"fast": fast, "reference": ref,
                "match": fast == ref and fast["raised"]}
    print(f"[bench] reorder-fault self-test: "
          f"{'caught' if selftest['match'] else 'MISSED'} at point "
          f"{fast['first_violation']}")

    rates = {"bank_ack_drop": 0.3, "bank_ack_detour": 0.2, "mc_stall": 0.1}
    fault_config = FaultConfig(seed, rates=tuple(rates.items()))
    fast, ref = _both_engines(lambda: _fault_run(seed, fault_config))
    faults = {
        "config": {
            "drop_ack_rate": rates["bank_ack_drop"],
            "delay_ack_rate": rates["bank_ack_detour"],
            "mc_stall_rate": rates["mc_stall"],
        },
        "fast": fast,
        "reference": ref,
        "match": fast == ref and fast["finished"] and fast["ack_retries"] > 0,
    }
    print(f"[bench] faulted pingpong: finished={fast['finished']}, "
          f"{fast['ack_drops']} drops / {fast['ack_retries']} retries / "
          f"{fast['ack_delays']} delays / {fast['mc_stalls']} MC stalls, "
          f"digest {'match' if fast['digest'] == ref['digest'] else 'MISMATCH'}")

    ok = (matched == len(sweeps) and selftest["match"] and faults["match"])
    return {"sweeps": sweeps, "reorder_selftest": selftest,
            "faults": faults, "ok": ok}


# ----------------------------------------------------------------------
# ``scaling``: handshake messages per flush at 4..64 cores
# ----------------------------------------------------------------------
def parse_cores(text: str) -> Tuple[int, ...]:
    """Validate a ``--cores`` list: powers of two between 2 and 64.

    Raises :class:`argparse.ArgumentTypeError` with a usable message on
    anything else.
    """
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--cores wants a comma-separated list of core counts "
            f"(e.g. 4,8,16,32,64), got {text!r}"
        )
    for v in values:
        if v < 2 or v > 64 or v & (v - 1):
            raise argparse.ArgumentTypeError(
                f"--cores values must be powers of two between 2 and 64 "
                f"(e.g. 4,8,16,32,64), got {v}"
            )
    if not values:
        raise argparse.ArgumentTypeError("--cores list is empty")
    return tuple(sorted(set(values)))


def _scaling_txns(cores: int) -> int:
    """Per-thread transactions for one sweep point (bounded total work)."""
    return max(_SCALING_TXN_MIN, _SCALING_TXN_BUDGET // cores)


def handshake_summary(hs: dict) -> Dict[str, float]:
    """The machine-wide handshake totals one sweep point records, from
    :meth:`~repro.system.Multicore.handshake_counters`."""
    return {
        "flushes": hs["flushes"],
        "flush_epoch_msgs": hs["flush_epoch_msgs"],
        "bank_ack_msgs": hs["bank_ack_msgs"],
        "persist_ack_msgs": hs["persist_ack_msgs"],
        "persist_cmp_msgs": hs["persist_cmp_msgs"],
        "idt_notify_msgs": hs["idt_notify_msgs"],
        "total_msgs": hs["total_msgs"],
        "mean_flush_msgs": round(hs["mean_flush_msgs"], 2),
        "max_flush_msgs": hs["max_flush_msgs"],
    }


def _scaling_point(config: MachineConfig, programs: List[list],
                   transactions: int) -> dict:
    """Run one sweep point and read its handshake counters."""
    machine = Multicore(config)
    machine.run(programs)
    return {
        "transactions": transactions,
        "ops": sum(len(p) for p in programs),
        "handshake": handshake_summary(machine.handshake_counters()),
    }


def handshake_parity(config: MachineConfig,
                     programs: List[list]) -> Dict[str, object]:
    """Fast-vs-reference digest *and* handshake-counter comparison.

    The handshake counters are digest-invisible by design (they are
    bumped from batched fast paths), so the digest alone cannot catch a
    fast path that miscounts messages -- this is the explicit parity
    check.
    """

    def one() -> dict:
        machine = Multicore(config)
        result = machine.run(programs)
        return {"digest": state_digest(machine, result),
                "counters": machine.handshake_counters()}

    fast, ref = _both_engines(one)
    return {
        "digest_match": fast["digest"] == ref["digest"],
        "counters_match": fast["counters"] == ref["counters"],
        "counters": handshake_summary(fast["counters"]),
    }


def _loglog_slope(xs: List[float], ys: List[float]) -> Optional[float]:
    """Least-squares slope of log(y) against log(x); None under 3 points."""
    if len(xs) < 3:
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    den = sum((a - mx) ** 2 for a in lx)
    if not den:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def run_scaling_bench(seed: int = 1,
                      cores: Tuple[int, ...] = _SCALING_CORES) -> dict:
    """The ``scaling`` family.

    Measures the paper's O(n) claim directly: per-flush handshake
    message counts at each core count for pingpong (contended mailbox
    handoff) and sharded serving (cross-shard ownership migration),
    under both barrier designs.  The all-to-all strawman's counts are
    derived from the LB++ pingpong counters; a log-log slope fit
    asserts the complexity of both, and the largest point is re-run on
    the reference engine with digest + handshake-counter parity
    checked.  Every number is simulated state, so two runs write
    identical records.
    """
    cores = tuple(sorted(cores))
    lbpp = BarrierDesign.LB_PP.value
    record: dict = {"cores": list(cores), "pingpong": {},
                    "sharded_serving": {}, "all_to_all": {}}

    for design in _SCALING_DESIGNS:
        rows: Dict[str, dict] = {}
        for n in cores:
            txns = _scaling_txns(n)
            config, programs = _multicore_setup(
                seed, txns, num_cores=n, barrier_design=design)
            rows[str(n)] = _scaling_point(config, programs, txns)
        record["pingpong"][design.value] = rows

    sharded: Dict[str, dict] = {}
    for n in cores:
        txns = max(_SCALING_TXN_MIN, _scaling_txns(n) // 2)
        config, programs = _sharded_setup(seed, txns, n)
        sharded[str(n)] = _scaling_point(config, programs, txns)
    record["sharded_serving"][lbpp] = sharded

    # The quadratic strawman: the arbiter run's counters re-accounted
    # (one bank per core, so ``banks == n``).
    arb = record["pingpong"][lbpp]
    record["all_to_all"][lbpp] = {
        str(n): {"handshake": all_to_all_counters(arb[str(n)]["handshake"],
                                                  banks=n)}
        for n in cores
    }

    xs = [float(n) for n in cores]
    arb_slope = _loglog_slope(
        xs, [arb[str(n)]["handshake"]["mean_flush_msgs"] for n in cores])
    a2a_slope = _loglog_slope(
        xs, [record["all_to_all"][lbpp][str(n)]["handshake"]
             ["mean_flush_msgs"] for n in cores])
    # None means too few points for a fit; only an explicit False fails.
    slopes = {
        "arbiter": round(arb_slope, 3) if arb_slope is not None else None,
        "all_to_all": round(a2a_slope, 3) if a2a_slope is not None else None,
        "linear_ok": (arb_slope < _SCALING_LINEAR_MAX_SLOPE
                      if arb_slope is not None else None),
        "quadratic_ok": (a2a_slope > _SCALING_QUADRATIC_MIN_SLOPE
                         if a2a_slope is not None else None),
    }
    record["slopes"] = slopes

    top = cores[-1]
    config, programs = _multicore_setup(
        seed, _scaling_txns(top), num_cores=top,
        barrier_design=BarrierDesign.LB_PP)
    parity = handshake_parity(config, programs)
    parity["cores"] = top
    record["parity"] = parity
    record["ok"] = bool(parity["digest_match"] and parity["counters_match"]
                        and slopes["linear_ok"] is not False
                        and slopes["quadratic_ok"] is not False)

    print(f"[bench] scaling sweep (pingpong + sharded_serving, "
          f"cores {','.join(str(n) for n in cores)}):")
    for line in scaling_table(record).render(precision=2).splitlines():
        print(f"[bench]   {line}")
    if arb_slope is not None:
        print(f"[bench]   log-log slope: arbiter {slopes['arbiter']:.3f} "
              f"(~linear: {'OK' if slopes['linear_ok'] else 'FAIL'}), "
              f"all-to-all {slopes['all_to_all']:.3f} "
              f"(~quadratic: {'OK' if slopes['quadratic_ok'] else 'FAIL'})")
    print(f"[bench]   parity @ {top} cores: digest "
          f"{'MATCH' if parity['digest_match'] else 'MISMATCH'}, "
          f"handshake counters "
          f"{'MATCH' if parity['counters_match'] else 'MISMATCH'}")
    return record


# ----------------------------------------------------------------------
# ``figures``: every run of the tiny figure build, and a small-scale probe
# ----------------------------------------------------------------------
def _small_probe_specs(seed: int) -> List[RunSpec]:
    """Five small-scale figure runs that moved at three commits where
    every tiny run but one stayed put: hash under LB, LB+PF and LB+IDT
    (Figures 11 and 12), and ssca2 under LB with the smallest Figure 13
    epochs and under NP (the 8-thread app generator)."""
    return [
        *(RunSpec.bep("hash", design, Scale.SMALL, seed=seed)
          for design in (BarrierDesign.LB, BarrierDesign.LB_PF,
                         BarrierDesign.LB_IDT)),
        RunSpec.bsp("ssca2", BarrierDesign.LB, Scale.SMALL, seed=seed,
                    epoch_stores=BSP_EPOCH_SIZES[Scale.SMALL][0]),
        RunSpec.bsp("ssca2", BarrierDesign.LB, Scale.SMALL, seed=seed,
                    model=PersistencyModel.NP),
    ]


def run_figures_bench(seed: int = 1) -> dict:
    """The ``figures`` family: every deduplicated spec of ``figures all
    --scale tiny`` plus a small-scale probe, run uncached on every CPU,
    each exact summary keyed by
    :meth:`~repro.harness.executor.RunSpec.describe`.  Every field is
    simulated state, so any moved cycle, conflict or NVRAM write shows
    up as a diff."""
    from repro.harness.experiments import figure_plan_specs

    tiny = list(dict.fromkeys(
        spec for specs in figure_plan_specs(Scale.TINY, seed).values()
        for spec in specs))
    small = _small_probe_specs(seed)
    summaries = run_specs(tiny + small)
    records = [(spec.describe(), summary.to_dict())
               for spec, summary in zip(tiny + small, summaries)]
    finished = sum(summary.finished for summary in summaries)
    print(f"[bench] figures: {finished}/{len(summaries)} runs finished "
          f"({len(tiny)} tiny-scale, {len(small)} small-scale)")
    return {"scale": Scale.TINY.value, "runs": dict(records[:len(tiny)]),
            "small_probe": dict(records[len(tiny):]),
            "ok": len(dict(records)) == finished == len(summaries)}


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
# name -> family(seed, cores) -> record with an ``ok`` verdict.
FAMILIES: Dict[str, Callable[[int, Tuple[int, ...]], dict]] = {
    "scaling": lambda seed, cores: run_scaling_bench(seed, cores),
    "crash": lambda seed, cores: run_crash_sweep_bench(seed),
    "figures": lambda seed, cores: run_figures_bench(seed),
}


def run_bench(only: Optional[str] = None, seed: int = 1,
              cores: Optional[Tuple[int, ...]] = None,
              output: str = DEFAULT_OUTPUT) -> Dict[str, dict]:
    """Run every family (or just ``only``) and write ``output``.

    Returns the records of the families that ran.  The file holds one
    record per family in registry order; a family this run skipped
    keeps the record the existing file has for it.
    """
    path = Path(output)
    old = None
    if only is not None and path.exists():
        try:
            old = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            pass
    if not isinstance(old, dict):
        old = {}
    ran = {
        name: family(seed, cores or _SCALING_CORES)
        for name, family in FAMILIES.items()
        if only in (None, name)
    }
    record = {
        name: ran.get(name, old.get(name))
        for name in FAMILIES
        if name in ran or isinstance(old.get(name), dict)
    }
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"[bench] wrote {path}")
    return ran
