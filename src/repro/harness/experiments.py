"""Drivers that regenerate each figure/table of the paper.

Each ``figNN`` function runs the corresponding sweep and returns
:class:`~repro.harness.report.FigureTable` objects whose rows mirror the
paper's bar groups.  Every sweep is expressed as a list of
:class:`~repro.harness.executor.RunSpec` values and executed through
:func:`~repro.harness.executor.run_specs`, so independent runs fan out
across a process pool (``--jobs``) and completed results are served from
the content-addressed disk cache (``.repro-cache/``, disable with
``--no-cache``, recompute with ``--refresh``).  The module is runnable::

    python -m repro.harness.experiments fig11 fig12 --scale small
    python -m repro.harness.experiments all --scale tiny --jobs 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.harness.executor import RunSpec, RunSummary, run_specs
from repro.harness.plan import (
    PLAN_FILENAME,
    build_plan,
    parse_shard,
    run_plan,
    shard_plan,
)
from repro.harness.report import FigureTable, normalize_rows, plan_table
from repro.harness.runner import (
    BSP_EPOCH_SIZES,
    Scale,
    default_bsp_epoch_size,
)
from repro.sim.config import BarrierDesign, FlushMode, PersistencyModel
from repro.workloads.apps.profiles import APP_NAMES
from repro.workloads.micro import MICROBENCHMARKS

# The Table 2 microbenchmarks the paper's figures sweep.  Pinned
# explicitly rather than derived from the registry: the registry also
# carries simulator-only workloads (``hotset``) that the figures must
# not pick up.
BEP_BENCHMARKS = ["hash", "queue", "rbtree", "sdg", "sps"]
assert all(b in MICROBENCHMARKS for b in BEP_BENCHMARKS)
BEP_DESIGNS = [
    BarrierDesign.LB,
    BarrierDesign.LB_IDT,
    BarrierDesign.LB_PF,
    BarrierDesign.LB_PP,
]

# A plan pairs each spec with the key the figure indexes it by.
_Plan = Tuple[List[RunSpec], List[tuple]]


def _np_baseline_spec(app: str, scale: Scale, seed: int,
                      mem_ops: Optional[int]) -> RunSpec:
    """The shared NP baseline run (identical across fig13/fig14/WT, so
    the cache computes it once per app)."""
    return RunSpec.bsp(
        app, BarrierDesign.LB, scale, seed=seed,
        model=PersistencyModel.NP, mem_ops=mem_ops,
    )


def _run_plan(plan: _Plan, jobs: Optional[int], cache: Optional[ResultCache],
              refresh: bool) -> Dict[tuple, RunSummary]:
    specs, keys = plan
    summaries = run_specs(specs, jobs=jobs, cache=cache, refresh=refresh)
    return dict(zip(keys, summaries))


# ----------------------------------------------------------------------
# Figures 11 and 12: BEP microbenchmarks
# ----------------------------------------------------------------------
def bep_sweep_plan(scale: Scale, seed: int = 1,
                   transactions: Optional[int] = None,
                   benchmarks: Optional[Sequence[str]] = None) -> _Plan:
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for bench in benchmarks or BEP_BENCHMARKS:
        for design in BEP_DESIGNS:
            specs.append(RunSpec.bep(
                bench, design, scale, seed=seed, transactions=transactions,
            ))
            keys.append((bench, design.value))
    return specs, keys


def run_bep_sweep(
    scale: Scale = Scale.SMALL,
    seed: int = 1,
    transactions: Optional[int] = None,
    benchmarks: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """benchmark -> design -> (throughput, conflict_pct)."""
    by_key = _run_plan(
        bep_sweep_plan(scale, seed, transactions, benchmarks),
        jobs, cache, refresh,
    )
    results: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for (bench, design), summary in by_key.items():
        results.setdefault(bench, {})[design] = (
            summary.throughput, summary.conflict_epoch_pct
        )
    return results


def fig11(scale: Scale = Scale.SMALL, seed: int = 1,
          transactions: Optional[int] = None,
          sweep: Optional[Dict] = None,
          jobs: Optional[int] = None,
          cache: Optional[ResultCache] = None,
          refresh: bool = False) -> FigureTable:
    """Figure 11: BEP transaction throughput normalized to LB."""
    sweep = sweep or run_bep_sweep(scale, seed, transactions,
                                   jobs=jobs, cache=cache, refresh=refresh)
    raw = {
        bench: {design: vals[0] for design, vals in row.items()}
        for bench, row in sweep.items()
    }
    normalized = normalize_rows(raw, BarrierDesign.LB.value)
    table = FigureTable(
        "Figure 11: transaction throughput normalized to LB",
        [d.value for d in BEP_DESIGNS], summary="gmean",
    )
    for bench in sorted(normalized):
        table.add_row(bench, [normalized[bench][d.value] for d in BEP_DESIGNS])
    return table


def fig12(scale: Scale = Scale.SMALL, seed: int = 1,
          transactions: Optional[int] = None,
          sweep: Optional[Dict] = None,
          jobs: Optional[int] = None,
          cache: Optional[ResultCache] = None,
          refresh: bool = False) -> FigureTable:
    """Figure 12: percentage of epochs flushed because of a conflict."""
    sweep = sweep or run_bep_sweep(scale, seed, transactions,
                                   jobs=jobs, cache=cache, refresh=refresh)
    table = FigureTable(
        "Figure 12: % conflicting epochs",
        [d.value for d in BEP_DESIGNS], summary="amean",
    )
    for bench in sorted(sweep):
        table.add_row(
            bench, [sweep[bench][d.value][1] for d in BEP_DESIGNS]
        )
    return table


# ----------------------------------------------------------------------
# Figure 13: BSP epoch-size sweep
# ----------------------------------------------------------------------
def fig13_plan(scale: Scale, seed: int = 1,
               mem_ops: Optional[int] = None,
               apps: Optional[Sequence[str]] = None) -> _Plan:
    sizes = BSP_EPOCH_SIZES[scale]
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for app in apps or APP_NAMES:
        specs.append(_np_baseline_spec(app, scale, seed, mem_ops))
        keys.append((app, "NP"))
        for epoch_stores in sizes:
            specs.append(RunSpec.bsp(
                app, BarrierDesign.LB, scale, seed=seed,
                epoch_stores=epoch_stores, mem_ops=mem_ops,
            ))
            keys.append((app, epoch_stores))
    return specs, keys


def fig13(scale: Scale = Scale.SMALL, seed: int = 1,
          mem_ops: Optional[int] = None,
          apps: Optional[List[str]] = None,
          jobs: Optional[int] = None,
          cache: Optional[ResultCache] = None,
          refresh: bool = False) -> FigureTable:
    """Figure 13: BSP execution time vs epoch size, normalized to NP.

    Time-to-durability is used on both sides of the ratio so that the
    cost of epochs still buffered at the end of a (scaled-down) run is
    charged to the configuration that deferred them; at paper-length
    runs the visible and durable ratios converge.
    """
    sizes = BSP_EPOCH_SIZES[scale]
    by_key = _run_plan(
        fig13_plan(scale, seed, mem_ops, apps), jobs, cache, refresh
    )
    table = FigureTable(
        "Figure 13: execution time normalized to NP (epoch-size sweep, "
        f"sizes {sizes})",
        [f"LB{n}" for n in sizes], summary="gmean",
    )
    for app in apps or APP_NAMES:
        baseline = by_key[(app, "NP")]
        table.add_row(app, [
            by_key[(app, n)].cycles_durable / baseline.cycles_durable
            for n in sizes
        ])
    return table


# ----------------------------------------------------------------------
# Figure 14: BSP barrier designs
# ----------------------------------------------------------------------
FIG14_COLUMNS = ["LB", "LB+IDT", "LB++", "LB++NOLOG"]

_FIG14_VARIANTS = [
    ("LB", BarrierDesign.LB, True),
    ("LB+IDT", BarrierDesign.LB_IDT, True),
    ("LB++", BarrierDesign.LB_PP, True),
    ("LB++NOLOG", BarrierDesign.LB_PP, False),
]


def fig14_plan(scale: Scale, seed: int = 1,
               mem_ops: Optional[int] = None,
               epoch_stores: Optional[int] = None,
               apps: Optional[Sequence[str]] = None) -> _Plan:
    if epoch_stores is None:
        epoch_stores = default_bsp_epoch_size(scale)
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for app in apps or APP_NAMES:
        specs.append(_np_baseline_spec(app, scale, seed, mem_ops))
        keys.append((app, "NP"))
        for label, design, logging in _FIG14_VARIANTS:
            specs.append(RunSpec.bsp(
                app, design, scale, seed=seed, epoch_stores=epoch_stores,
                undo_logging=logging, mem_ops=mem_ops,
            ))
            keys.append((app, label))
    return specs, keys


def fig14(scale: Scale = Scale.SMALL, seed: int = 1,
          mem_ops: Optional[int] = None,
          epoch_stores: Optional[int] = None,
          apps: Optional[List[str]] = None,
          jobs: Optional[int] = None,
          cache: Optional[ResultCache] = None,
          refresh: bool = False) -> Tuple[FigureTable, float]:
    """Figure 14: BSP execution time normalized to NP, per design.

    Also returns the inter-thread share of conflicts (the paper reports
    86%).
    """
    if epoch_stores is None:
        epoch_stores = default_bsp_epoch_size(scale)
    by_key = _run_plan(
        fig14_plan(scale, seed, mem_ops, epoch_stores, apps),
        jobs, cache, refresh,
    )
    table = FigureTable(
        "Figure 14: execution time normalized to NP (designs, "
        f"epoch={epoch_stores})",
        FIG14_COLUMNS, summary="gmean",
    )
    inter = intra = 0
    for app in apps or APP_NAMES:
        baseline = by_key[(app, "NP")]
        row = []
        for label, design, _logging in _FIG14_VARIANTS:
            summary = by_key[(app, label)]
            row.append(summary.cycles_durable / baseline.cycles_durable)
            if design is BarrierDesign.LB and label == "LB":
                inter += summary.inter_conflicts
                intra += summary.intra_conflicts
        table.add_row(app, row)
    total = inter + intra
    inter_share = 100.0 * inter / total if total else 0.0
    return table, inter_share


# ----------------------------------------------------------------------
# In-text ablations (section 7)
# ----------------------------------------------------------------------
def flush_mode_plan(scale: Scale, seed: int = 1,
                    transactions: Optional[int] = None) -> _Plan:
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for bench in BEP_BENCHMARKS:
        for mode in (FlushMode.CLFLUSH, FlushMode.CLWB):
            specs.append(RunSpec.bep(
                bench, BarrierDesign.LB_PP, scale, seed=seed,
                transactions=transactions, flush_mode=mode,
            ))
            keys.append((bench, mode.value))
    return specs, keys


def ablation_flush_mode(scale: Scale = Scale.SMALL, seed: int = 1,
                        transactions: Optional[int] = None,
                        jobs: Optional[int] = None,
                        cache: Optional[ResultCache] = None,
                        refresh: bool = False) -> FigureTable:
    """Section 7: non-invalidating (clwb) vs invalidating (clflush)
    flushes; the paper reports clwb ~30% faster."""
    by_key = _run_plan(
        flush_mode_plan(scale, seed, transactions), jobs, cache, refresh
    )
    table = FigureTable(
        "Ablation: clwb vs clflush flushes (throughput, normalized to "
        "clflush)", ["clflush", "clwb"], summary="gmean",
    )
    for bench in BEP_BENCHMARKS:
        base = by_key[(bench, FlushMode.CLFLUSH.value)].throughput
        table.add_row(bench, [
            1.0, by_key[(bench, FlushMode.CLWB.value)].throughput / base
        ])
    return table


def writethrough_plan(scale: Scale, seed: int = 1,
                      mem_ops: Optional[int] = None,
                      apps: Optional[Sequence[str]] = None) -> _Plan:
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for app in apps or APP_NAMES:
        specs.append(_np_baseline_spec(app, scale, seed, mem_ops))
        keys.append((app, "NP"))
        specs.append(RunSpec.bsp(
            app, BarrierDesign.LB, scale, seed=seed,
            model=PersistencyModel.BSP_WT, mem_ops=mem_ops,
        ))
        keys.append((app, "BSP-WT"))
    return specs, keys


def ablation_writethrough(scale: Scale = Scale.SMALL, seed: int = 1,
                          mem_ops: Optional[int] = None,
                          apps: Optional[List[str]] = None,
                          jobs: Optional[int] = None,
                          cache: Optional[ResultCache] = None,
                          refresh: bool = False) -> FigureTable:
    """Section 7.2: naive write-through BSP, ~8x over NP in the paper."""
    by_key = _run_plan(
        writethrough_plan(scale, seed, mem_ops, apps), jobs, cache, refresh
    )
    table = FigureTable(
        "Ablation: naive write-through BSP (execution time normalized "
        "to NP)", ["BSP-WT"], summary="gmean",
    )
    for app in apps or APP_NAMES:
        baseline = by_key[(app, "NP")]
        summary = by_key[(app, "BSP-WT")]
        table.add_row(
            app, [summary.cycles_visible / baseline.cycles_visible]
        )
    return table


# ----------------------------------------------------------------------
# Contended figure: conflict_rate x num_slots pingpong sweep
# ----------------------------------------------------------------------
CONTENDED_RATES = (0.25, 0.5, 1.0)
CONTENDED_SLOTS = (1, 4, 16)
_CONTENDED_DESIGNS = [BarrierDesign.LB, BarrierDesign.LB_PP]


def contended_plan(scale: Scale, seed: int = 1,
                   transactions: Optional[int] = None) -> _Plan:
    """Figure 12-style contention sweep on the pingpong mailbox.

    ``conflict_rate`` scales how often a consumer touches a line the
    producer's open epoch owns; ``num_slots`` spreads the mailbox over
    more lines, diluting each one.  Together they trace the conflict
    regimes Figure 12 samples per-benchmark as one continuous surface.
    """
    specs: List[RunSpec] = []
    keys: List[tuple] = []
    for rate in CONTENDED_RATES:
        for slots in CONTENDED_SLOTS:
            for design in _CONTENDED_DESIGNS:
                specs.append(RunSpec.bep(
                    "pingpong", design, scale, seed=seed,
                    transactions=transactions,
                    workload_args={"conflict_rate": rate,
                                   "num_slots": slots},
                ))
                keys.append((rate, slots, design.value))
    return specs, keys


def contended(scale: Scale = Scale.SMALL, seed: int = 1,
              transactions: Optional[int] = None,
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              refresh: bool = False) -> Tuple[FigureTable, FigureTable]:
    """Contended pingpong: conflict share and LB++ speedup per cell.

    Returns two tables (the units differ): the percentage of epochs
    flushed by a conflict under LB vs LB++, and the LB++/LB throughput
    ratio -- the proactive-flush win should grow with contention.
    """
    by_key = _run_plan(
        contended_plan(scale, seed, transactions), jobs, cache, refresh
    )
    conflicts = FigureTable(
        "Contended pingpong: % conflicting epochs "
        "(conflict_rate x num_slots)",
        [d.value for d in _CONTENDED_DESIGNS], summary="amean",
    )
    speedups = FigureTable(
        "Contended pingpong: LB++ throughput speedup over LB",
        ["LB++/LB"], summary="gmean",
    )
    for rate in CONTENDED_RATES:
        for slots in CONTENDED_SLOTS:
            label = f"rate={rate:g} slots={slots}"
            lb = by_key[(rate, slots, BarrierDesign.LB.value)]
            pp = by_key[(rate, slots, BarrierDesign.LB_PP.value)]
            conflicts.add_row(label, [
                lb.conflict_epoch_pct, pp.conflict_epoch_pct
            ])
            speedups.add_row(label, [pp.throughput / lb.throughput])
    return conflicts, speedups


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
_ALL_FIGURES = ("fig11", "fig12", "fig13", "fig14", "flushmode",
                "writethrough", "contended")

# tag -> plan function with the uniform (scale, seed) signature.  The
# delta planner enumerates the universe through this table; fig11 and
# fig12 share one sweep, so they map to the same plan (the planner
# dedups the specs and tags them with both consumers).
_FIGURE_PLANS: Dict[str, Callable[[Scale, int], _Plan]] = {
    "fig11": bep_sweep_plan,
    "fig12": bep_sweep_plan,
    "fig13": fig13_plan,
    "fig14": fig14_plan,
    "flushmode": flush_mode_plan,
    "writethrough": writethrough_plan,
    "contended": contended_plan,
}


def figure_plan_specs(scale: Scale, seed: int = 1,
                      figures: Optional[Sequence[str]] = None,
                      ) -> Dict[str, List[RunSpec]]:
    """``{figure tag: spec list}`` for the delta planner."""
    tags = list(figures) if figures is not None else list(_ALL_FIGURES)
    return {tag: _FIGURE_PLANS[tag](scale, seed)[0] for tag in tags}


def add_executor_args(parser: argparse.ArgumentParser) -> None:
    """The sweep-executor knobs, shared with ``python -m repro``."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel worker processes (default: all cores; 1 = "
             "in-process serial execution)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="recompute every run and overwrite cached results",
    )
    parser.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale full tier (implies --scale paper unless "
             "--scale is given explicitly)",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock allowance: stop dispatching new runs once "
             "exhausted; completed results persist and rerunning the "
             "same command resumes from the remainder",
    )
    parser.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only this shard of the plan (1-based, e.g. 2/4); "
             "shards are a stable hash of the spec key, so N jobs "
             "sharing one cache dir cover the plan exactly once; "
             "figure assembly is skipped (run once unsharded to "
             "assemble from the merged cache)",
    )
    parser.add_argument(
        "--plan-file", default=None, metavar="PATH",
        help="where to checkpoint the plan cursor (default: "
             "<cache-dir>/plan.json); advisory -- resume re-probes "
             "the cache, never this file",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures."
    )
    parser.add_argument(
        "figures", nargs="+",
        choices=list(_ALL_FIGURES) + ["all"],
    )
    parser.add_argument("--scale", default=None,
                        choices=[s.value for s in Scale],
                        help="machine scale (default: small; paper "
                             "under --full)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv-dir", default=None,
                        help="write each figure's data as CSV here")
    parser.add_argument("--chart", action="store_true",
                        help="render terminal bar charts too")
    add_executor_args(parser)
    args = parser.parse_args(argv)
    if args.scale is not None:
        scale = Scale(args.scale)
    else:
        scale = Scale.PAPER if args.full else Scale.SMALL
    if args.no_cache and (args.full or args.shard
                          or args.budget is not None):
        parser.error("--full/--shard/--budget plan through the result "
                     "cache; drop --no-cache")
    shard = parse_shard(args.shard) if args.shard else None
    wanted = set(args.figures)
    if "all" in wanted:
        wanted = set(_ALL_FIGURES)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    jobs = args.jobs
    refresh = args.refresh

    def emit(tag: str, table, precision: int = 3) -> None:
        print(table.render(precision=precision))
        if args.chart:
            from repro.harness.export import render_bars
            print(render_bars(table))
        if args.csv_dir:
            from repro.harness.export import write_csv
            path = write_csv(table, f"{args.csv_dir}/{tag}.csv")
            print(f"[wrote {path}]", file=sys.stderr)
        print()

    start = time.time()
    if cache is not None:
        # Plan first: enumerate the whole universe for the requested
        # figures, probe the cache in one pass, and execute only the
        # delta (shared baselines are planned once).  Figure assembly
        # below then reads from the warm cache.
        ordered = [tag for tag in _ALL_FIGURES if tag in wanted]
        plan = build_plan(
            figure_plan_specs(scale, args.seed, ordered), cache,
            refresh=refresh,
        )
        part = shard_plan(plan, *shard) if shard else plan
        est_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if part.pending:
            print(plan_table(part).render(precision=1))
        print(part.summary(est_jobs))
        plan_path = (args.plan_file if args.plan_file is not None
                     else Path(args.cache_dir) / PLAN_FILENAME)
        report = run_plan(part, cache, jobs=jobs, budget=args.budget,
                          plan_path=plan_path)
        refresh = False
        if report.remaining:
            print(f"[farm] budget exhausted after {report.elapsed:.1f}s: "
                  f"{report.executed} executed, {report.remaining} "
                  "remaining; rerun the same command to resume")
            print(f"[cache: {cache.hits} hits, {cache.misses} misses "
                  f"({args.cache_dir})]", file=sys.stderr)
            return 0
        if shard is not None:
            print(f"[farm] shard {shard[0]}/{shard[1]} complete: "
                  f"{report.executed} executed in {report.elapsed:.1f}s; "
                  "assemble figures with an unsharded run over the "
                  "shared cache")
            return 0
    if wanted & {"fig11", "fig12"}:
        sweep = run_bep_sweep(scale, args.seed, jobs=jobs, cache=cache,
                              refresh=refresh)
        if "fig11" in wanted:
            emit("fig11", fig11(scale, args.seed, sweep=sweep))
        if "fig12" in wanted:
            emit("fig12", fig12(scale, args.seed, sweep=sweep), precision=1)
    if "fig13" in wanted:
        emit("fig13", fig13(scale, args.seed, jobs=jobs, cache=cache,
                            refresh=refresh), precision=2)
    if "fig14" in wanted:
        table, inter_share = fig14(scale, args.seed, jobs=jobs, cache=cache,
                                   refresh=refresh)
        emit("fig14", table, precision=2)
        print(f"inter-thread share of conflicts: {inter_share:.0f}%"
              " (paper: 86%)\n")
    if "flushmode" in wanted:
        emit("ablation_flush_mode",
             ablation_flush_mode(scale, args.seed, jobs=jobs, cache=cache,
                                 refresh=refresh))
    if "writethrough" in wanted:
        emit("ablation_writethrough",
             ablation_writethrough(scale, args.seed, jobs=jobs, cache=cache,
                                   refresh=refresh), precision=2)
    if "contended" in wanted:
        conflicts, speedups = contended(scale, args.seed, jobs=jobs,
                                        cache=cache, refresh=refresh)
        emit("contended_conflicts", conflicts, precision=1)
        emit("contended_speedup", speedups)
    elapsed = time.time() - start
    if cache is not None:
        print(f"[cache: {cache.hits} hits, {cache.misses} misses "
              f"({args.cache_dir})]", file=sys.stderr)
    print(f"[{elapsed:.1f}s total]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
