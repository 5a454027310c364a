"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run``     -- run one workload on one machine configuration and print
  the result (throughput, conflicts, NVRAM traffic).
* ``figures`` -- regenerate the paper's figures (delegates to
  :mod:`repro.harness.experiments`; sweeps fan out over ``--jobs``
  worker processes, reuse cached results from ``.repro-cache/``, and
  stop dispatching at ``--budget`` seconds; rerun to resume).
* ``bench``   -- run the check registry (handshake scaling, crash
  sweeps), write ``BENCH_sweep.json``, and exit nonzero if any check
  fails.  Host time is measured by ``perfbench/``, not here.
* ``crash``   -- crash a workload at a given cycle, check consistency,
  and (for BSP) perform undo-log recovery.
* ``crashsweep`` -- run a workload once, capture its persist history,
  and validate the recovery invariants at *every* crash point (with an
  optional injected reorder fault as a checker self-test).
* ``campaign`` -- systematic fault campaign: enumerate every injectable
  protocol coordinate of a captured run (FlushEpoch copies, BankAcks,
  PersistAcks, PersistCMP copies, controller transactions), probe each
  one plus seeded multi-fault rounds, and triage every probe into
  survived / aborted-clean / violation (exit nonzero on any violation,
  each with a minimized repro command).
* ``inspect`` -- print the machine configuration at each scale.

Examples::

    python -m repro run --workload queue --design LB++ --scale small
    python -m repro run --workload ssca2 --model BSP --design LB
    python -m repro figures fig11 fig12 --scale tiny --jobs 4
    python -m repro bench --only scaling --cores 4,8,16,32,64
    python -m repro crash --workload queue --cycle 20000
    python -m repro crashsweep --workload pingpong --transactions 10
    python -m repro crashsweep --reorder-window 6 --expect-violation
    python -m repro campaign --workload pingpong --cores 4 --check-digests
    python -m repro campaign --reorder-window 6 --expect-violation
    python -m repro campaign --inject bank_ack_drop:0,1,2
    python -m repro inspect --scale paper
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.harness.runner import Scale, run_bep, run_bsp
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.system import Multicore, RunResult
from repro.workloads.apps.profiles import APP_PROFILES
from repro.workloads.micro import MICROBENCHMARKS

_DESIGNS = {d.value: d for d in BarrierDesign}
_MODELS = {m.value: m for m in PersistencyModel}


def _print_result(result: RunResult) -> None:
    print(f"cycles (visible) : {result.cycles_visible}")
    print(f"cycles (durable) : {result.cycles_durable}")
    print(f"transactions     : {result.transactions}")
    if result.transactions:
        print(f"throughput       : {result.throughput:.3f} txn/kcycle")
    print(f"epochs persisted : {result.total_epochs}")
    print(f"conflicting      : {result.conflict_epoch_pct:.1f}%")
    print(f"conflicts        : intra={result.intra_conflicts} "
          f"inter={result.inter_conflicts}")
    nvram = result.stats.domain("nvram")
    print(f"NVRAM writes     : {result.nvram_writes} "
          f"(data={nvram.get('writes_data')} "
          f"log={nvram.get('writes_log')} "
          f"ckpt={nvram.get('writes_checkpoint')} "
          f"evict={nvram.get('writes_eviction')})")


def cmd_run(args: argparse.Namespace) -> int:
    scale = Scale(args.scale)
    design = _DESIGNS[args.design]
    if args.workload in MICROBENCHMARKS:
        model = PersistencyModel.BEP
        if args.model and args.model != model.value:
            print("note: microbenchmarks run under BEP (the paper's "
                  "programmer-annotated workloads)", file=sys.stderr)
        result = run_bep(args.workload, design, scale=scale,
                         seed=args.seed, transactions=args.transactions)
    elif args.workload in APP_PROFILES:
        model = _MODELS[args.model] if args.model else PersistencyModel.BSP
        result = run_bsp(args.workload, design, scale=scale,
                         seed=args.seed, persistency=model,
                         epoch_stores=args.epoch_stores,
                         mem_ops=args.mem_ops)
    else:
        known = sorted(MICROBENCHMARKS) + sorted(APP_PROFILES)
        print(f"unknown workload {args.workload!r}; choose from {known}",
              file=sys.stderr)
        return 2
    print(f"== {args.workload} / {design.value} / {model.value} "
          f"@ {scale.value} ==")
    _print_result(result)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness.experiments import main as experiments_main
    argv = list(args.figures) + ["--seed", str(args.seed),
                                 "--cache-dir", args.cache_dir]
    if args.scale is not None:
        argv += ["--scale", args.scale]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.no_cache:
        argv.append("--no-cache")
    if args.refresh:
        argv.append("--refresh")
    if args.budget is not None:
        argv += ["--budget", str(args.budget)]
    if args.csv_dir is not None:
        argv += ["--csv-dir", args.csv_dir]
    return experiments_main(argv)


def _positive_int(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """A flag whose value 0 means "off": an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.bench import run_bench
    ran = run_bench(only=args.only, seed=args.seed, cores=args.cores,
                    output=args.output)
    failed = [name for name, record in ran.items() if not record["ok"]]
    if failed:
        print(f"[bench] ERROR: check failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    from repro.recovery import (
        check_bsp_recoverable,
        check_epoch_order,
        recover_bsp,
        recover_queue,
        run_with_crash,
    )
    from repro.workloads.micro import QueueWorkload
    from repro.workloads.apps import app_programs

    design = _DESIGNS[args.design]
    if args.workload in MICROBENCHMARKS:
        config = MachineConfig.tiny(
            barrier_design=design, persistency=PersistencyModel.BEP,
        )
        machine = Multicore(config, track_values=True,
                            track_persist_order=True, keep_epoch_log=True)
        if args.workload == "queue":
            queues = [QueueWorkload(thread_id=t, seed=args.seed)
                      for t in range(config.num_cores)]
            outcome = run_with_crash(
                machine, [q.ops(80) for q in queues], args.cycle
            )
            checked = check_epoch_order(outcome)
            print(f"crash @ {outcome.crash_cycle}: {checked} persists in "
                  "valid epoch order")
            for q in queues:
                recovered = recover_queue(outcome, q)
                print(f"  thread {q.thread_id}: recovered queue "
                      f"[{recovered.tail}, {recovered.head}) = "
                      f"{recovered.length} intact entries")
            return 0
        from repro.workloads.micro import make_benchmark
        benches = [make_benchmark(args.workload, thread_id=t,
                                  seed=args.seed)
                   for t in range(config.num_cores)]
        outcome = run_with_crash(
            machine, [b.ops(80) for b in benches], args.cycle
        )
        checked = check_epoch_order(outcome)
        print(f"crash @ {outcome.crash_cycle}: {checked} persists in "
              "valid epoch order")
        return 0
    if args.workload in APP_PROFILES:
        config = MachineConfig.tiny(
            barrier_design=design, persistency=PersistencyModel.BSP,
            bsp_epoch_stores=args.epoch_stores,
        )
        machine = Multicore(config, track_values=True,
                            track_persist_order=True, keep_epoch_log=True)
        outcome = run_with_crash(
            machine,
            app_programs(args.workload, config.num_cores, 2000,
                         seed=args.seed),
            args.cycle,
        )
        checked = check_epoch_order(outcome)
        covered = check_bsp_recoverable(outcome)
        state = recover_bsp(outcome)
        print(f"crash @ {outcome.crash_cycle}: {checked} persists in valid "
              f"epoch order, {covered} torn lines log-covered")
        print(f"recovery rolled back {len(state.rolled_back)} epochs, "
              f"restored {len(state.restored_lines)} lines")
        for core_id in sorted(state.survivor_epoch):
            print(f"  core {core_id} restarts from epoch "
                  f"{state.survivor_epoch[core_id]}'s checkpoint")
        return 0
    print(f"unknown workload {args.workload!r}", file=sys.stderr)
    return 2


def cmd_crashsweep(args: argparse.Namespace) -> int:
    """Capture one run and validate every crash point of its history."""
    from repro.harness.bench import _multicore_setup
    from repro.recovery import capture_run, sweep_crash_points
    from repro.sim.faults import FaultConfig
    from repro.workloads.micro import make_benchmark

    design = _DESIGNS[args.design]
    faults = (FaultConfig(reorder_window=args.reorder_window)
              if args.reorder_window else None)
    queues: list = []
    if args.workload == "pingpong":
        config, programs = _multicore_setup(
            args.seed, args.transactions, barrier_design=design)
    elif args.workload in MICROBENCHMARKS:
        config = MachineConfig.tiny(
            barrier_design=design, persistency=PersistencyModel.BEP,
        )
        bench = make_benchmark(args.workload, thread_id=0, seed=args.seed,
                               line_size=config.line_size)
        programs = [list(bench.ops(args.transactions))]
        if args.workload == "queue":
            queues = [bench]
    else:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(MICROBENCHMARKS)}", file=sys.stderr)
        return 2
    machine = Multicore(config, track_values=True, track_persist_order=True,
                        keep_epoch_log=True, faults=faults)
    outcome = capture_run(machine, programs)
    report = sweep_crash_points(outcome, queues=queues,
                                raise_on_violation=False)
    print(f"== crashsweep {args.workload} / {design.value} "
          f"({config.num_cores} core(s), {args.transactions} txns"
          f"{', reorder fault' if faults else ''}) ==")
    print(f"persist history  : {report.history_len} records")
    print(f"crash points     : {report.points} "
          f"({report.data_persists} epoch-tagged persists, "
          f"{report.queue_checks} queue re-checks)")
    if report.ok:
        print("verdict          : consistent at every crash point")
    else:
        print(f"verdict          : VIOLATION at point "
              f"{report.first_violation}: {report.violation}")
    if args.expect_violation:
        if report.ok:
            print("error: expected the sweep to flag a violation "
                  "(checker self-test failed)", file=sys.stderr)
            return 1
        return 0
    return 0 if report.ok else 1


def _parse_inject(text: str):
    """``leg:c1,c2,...`` -> ``(leg, (c1, c2, ...))``, validated."""
    from repro.sim.faults import FAULT_LEGS
    try:
        leg, coords_s = text.split(":", 1)
        coords = tuple(int(c) for c in coords_s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--inject expects leg:c1,c2,... got {text!r}"
        ) from None
    if leg not in FAULT_LEGS:
        raise argparse.ArgumentTypeError(
            f"unknown fault leg {leg!r}; choose from {sorted(FAULT_LEGS)}"
        )
    return leg, coords


def cmd_campaign(args: argparse.Namespace) -> int:
    """Fault campaign: exhaustive singles + randomized combos, or one
    injected combination (repro mode), or the reorder self-test."""
    from repro.recovery import (
        VIOLATION,
        CampaignSpec,
        campaign_selftest,
        run_campaign,
        triage,
    )
    from repro.recovery.campaign import run_baseline

    designs = {d.name.lower(): d for d in BarrierDesign}
    designs.update(_DESIGNS)
    spec = CampaignSpec(
        workload=args.workload,
        design=designs[args.design],
        num_cores=args.cores,
        transactions=args.transactions,
        seed=args.seed,
        fault_seed=args.fault_seed,
        mc_stride=args.mc_stride,
    )

    def print_entry(entry) -> None:
        print(f"verdict          : {entry.verdict}")
        if entry.detail:
            print(f"detail           : {entry.detail}")
        if entry.repro:
            print(f"repro            : {entry.repro}")

    if args.reorder_window:
        # Checker self-test: the unsound reorder fault MUST be flagged.
        entry = campaign_selftest(spec,
                                  reorder_window=args.reorder_window)
        print(f"== campaign self-test {spec.describe()} "
              f"(reorder window {args.reorder_window}) ==")
        print_entry(entry)
        flagged = entry.verdict == VIOLATION
        if args.expect_violation:
            if not flagged:
                print("error: expected the triage to flag a violation "
                      "(campaign self-test failed)", file=sys.stderr)
            return 0 if flagged else 1
        return 1 if flagged else 0

    if args.inject:
        inject = tuple(args.inject)
        baseline_values = (
            run_baseline(spec).machine.image.values
            if spec.workload == "queue" else None
        )
        print(f"== campaign repro {spec.describe()} ==")
        for leg, coords in inject:
            print(f"inject           : {leg}{coords}")
        entry = triage(spec, inject, baseline_values)
        print_entry(entry)
        return 1 if entry.verdict == VIOLATION else 0

    def progress(message: str) -> None:
        if not args.quiet:
            print(f"[campaign] {message}")

    def run_once():
        return run_campaign(
            spec,
            exhaustive=True,
            random_rounds=args.random_rounds,
            max_points=args.max_points,
            progress=progress,
        )

    report = run_once()
    print(f"== {report.summary()} ==")
    for entry in report.violations:
        print(f"VIOLATION {entry.inject}: {entry.detail}")
        if entry.repro:
            print(f"  repro: {entry.repro}")
    if args.check_digests:
        from repro.sim.engine import reference_mode
        with reference_mode():
            reference = run_once()
        if reference.verdict_map() != report.verdict_map():
            print("[campaign] ERROR: fast/reference verdict maps "
                  "differ", file=sys.stderr)
            return 1
        print(f"[campaign] fast/reference parity: "
              f"{len(report.entries)} verdicts identical")
    return 0 if report.ok else 1


def cmd_inspect(args: argparse.Namespace) -> int:
    builders = {
        "tiny": MachineConfig.tiny,
        "small": MachineConfig.small,
        "paper": MachineConfig.paper,
    }
    config = builders[args.scale]()
    print(f"== MachineConfig.{args.scale}() ==")
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, (BarrierDesign, PersistencyModel)):
            value = value.value
        print(f"  {field.name:28s} {value}")
    print(f"  {'l1_sets (derived)':28s} {config.l1_sets}")
    print(f"  {'llc_bank_sets (derived)':28s} {config.llc_bank_sets}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient Persist Barriers for Multicores "
                    "(MICRO 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--design", default="LB++", choices=_DESIGNS)
    run_p.add_argument("--model", default=None, choices=_MODELS)
    run_p.add_argument("--scale", default="small",
                       choices=[s.value for s in Scale])
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--transactions", type=int, default=None)
    run_p.add_argument("--mem-ops", type=int, default=None)
    run_p.add_argument("--epoch-stores", type=int, default=1500)
    run_p.set_defaults(func=cmd_run)

    fig_p = sub.add_parser("figures", help="regenerate paper figures")
    fig_p.add_argument("figures", nargs="+")
    fig_p.add_argument("--scale", default=None,
                       choices=[s.value for s in Scale],
                       help="machine scale (default: small)")
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.add_argument("--csv-dir", default=None,
                       help="write each figure's data as CSV here")
    from repro.harness.experiments import add_executor_args
    add_executor_args(fig_p)
    fig_p.set_defaults(func=cmd_figures)

    from repro.harness.bench import DEFAULT_OUTPUT, FAMILIES, parse_cores
    bench_p = sub.add_parser(
        "bench",
        help="run the check registry (writes BENCH_sweep.json; exit "
             "nonzero if any check fails)",
    )
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument("--only", choices=tuple(FAMILIES), default=None,
                         help="run one family; the output file keeps the "
                              "other families' existing records")
    bench_p.add_argument("--cores", type=parse_cores, default=None,
                         metavar="N,N,...",
                         help="core counts for the scaling family: powers "
                              "of two between 2 and 64 "
                              "(default 4,8,16,32,64)")
    bench_p.add_argument("--output", default=DEFAULT_OUTPUT)
    bench_p.set_defaults(func=cmd_bench)

    crash_p = sub.add_parser("crash", help="crash + recovery demo")
    crash_p.add_argument("--workload", default="queue")
    crash_p.add_argument("--design", default="LB++", choices=_DESIGNS)
    crash_p.add_argument("--cycle", type=int, default=20_000)
    crash_p.add_argument("--seed", type=int, default=1)
    crash_p.add_argument("--epoch-stores", type=int, default=100)
    crash_p.set_defaults(func=cmd_crash)

    sweep_p = sub.add_parser(
        "crashsweep",
        help="validate every crash point of one captured run",
    )
    sweep_p.add_argument("--workload", default="queue",
                         help="a microbenchmark; 'pingpong' uses the "
                              "contended 4-core configuration")
    sweep_p.add_argument("--design", default="LB++", choices=_DESIGNS)
    sweep_p.add_argument("--transactions", type=_positive_int, default=15)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--reorder-window", type=_non_negative_int, default=0,
                         help="enable the unsound reorder-persists fault "
                              "with this window (checker self-test)")
    sweep_p.add_argument("--expect-violation", action="store_true",
                         help="exit 0 only if the sweep flags a violation")
    sweep_p.set_defaults(func=cmd_crashsweep)

    camp_p = sub.add_parser(
        "campaign",
        help="fault campaign: probe every injectable protocol "
             "coordinate of a captured run (exit nonzero on any "
             "violation)",
    )
    camp_p.add_argument("--workload", default="pingpong",
                        choices=("pingpong", "queue"))
    camp_p.add_argument("--design", default="lb_pp",
                        help="barrier design (lb, lb_pp, LB, LB++, ...)")
    camp_p.add_argument("--cores", type=_positive_int, default=4,
                        help="core count for the pingpong workload")
    camp_p.add_argument("--transactions", type=_positive_int, default=6)
    camp_p.add_argument("--seed", type=int, default=1)
    camp_p.add_argument("--fault-seed", type=int, default=0)
    camp_p.add_argument("--mc-stride", type=_positive_int, default=1,
                        help="probe every Nth controller transaction "
                             "ordinal (thins the mc legs)")
    camp_p.add_argument("--max-points", type=_positive_int, default=None,
                        help="cap the exhaustive enumeration "
                             "(deterministic prefix; smoke mode)")
    camp_p.add_argument("--random-rounds", type=_non_negative_int, default=0,
                        help="seeded multi-fault rounds on top of the "
                             "exhaustive singles")
    camp_p.add_argument("--inject", action="append", type=_parse_inject,
                        default=None, metavar="LEG:C1,C2,...",
                        help="repro mode: triage exactly this fault "
                             "combination (repeatable)")
    camp_p.add_argument("--reorder-window", type=_non_negative_int, default=0,
                        help="self-test mode: run the unsound reorder "
                             "fault through the triage")
    camp_p.add_argument("--expect-violation", action="store_true",
                        help="with --reorder-window: exit 0 only if "
                             "the triage flags a violation")
    camp_p.add_argument("--check-digests", action="store_true",
                        help="re-run the campaign on the reference "
                             "engine and require identical verdicts")
    camp_p.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    camp_p.set_defaults(func=cmd_campaign)

    inspect_p = sub.add_parser("inspect", help="print a machine config")
    inspect_p.add_argument("--scale", default="small",
                           choices=[s.value for s in Scale])
    inspect_p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
