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
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.harness.executor import RunSpec, RunSummary, run_specs
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


# A figure build's run summaries, by spec.
_Summaries = Mapping[RunSpec, RunSummary]


def _run_plan(plan: _Plan, jobs: Optional[int], cache: Optional[ResultCache],
              refresh: bool,
              summaries: Optional[_Summaries] = None,
              ) -> Dict[tuple, RunSummary]:
    """``{figure key: summary}``, taken from ``summaries`` when given
    (:func:`build_figures` runs every figure's specs at once), else
    run."""
    specs, keys = plan
    if summaries is None:
        return dict(zip(keys, run_specs(specs, jobs=jobs, cache=cache,
                                        refresh=refresh)))
    return {key: summaries[spec] for spec, key in zip(specs, keys)}


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
    summaries: Optional[_Summaries] = None,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """benchmark -> design -> (throughput, conflict_pct)."""
    by_key = _run_plan(
        bep_sweep_plan(scale, seed, transactions, benchmarks),
        jobs, cache, refresh, summaries,
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
          refresh: bool = False,
          summaries: Optional[_Summaries] = None) -> FigureTable:
    """Figure 13: BSP execution time vs epoch size, normalized to NP.

    Time-to-durability is used on both sides of the ratio so that the
    cost of epochs still buffered at the end of a (scaled-down) run is
    charged to the configuration that deferred them; at paper-length
    runs the visible and durable ratios converge.
    """
    sizes = BSP_EPOCH_SIZES[scale]
    by_key = _run_plan(
        fig13_plan(scale, seed, mem_ops, apps), jobs, cache, refresh,
        summaries,
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
          refresh: bool = False,
          summaries: Optional[_Summaries] = None) -> Tuple[FigureTable, float]:
    """Figure 14: BSP execution time normalized to NP, per design.

    Also returns the inter-thread share of conflicts (the paper reports
    86%).
    """
    if epoch_stores is None:
        epoch_stores = default_bsp_epoch_size(scale)
    by_key = _run_plan(
        fig14_plan(scale, seed, mem_ops, epoch_stores, apps),
        jobs, cache, refresh, summaries,
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
                        refresh: bool = False,
                        summaries: Optional[_Summaries] = None) -> FigureTable:
    """Section 7: non-invalidating (clwb) vs invalidating (clflush)
    flushes; the paper reports clwb ~30% faster."""
    by_key = _run_plan(
        flush_mode_plan(scale, seed, transactions), jobs, cache, refresh,
        summaries,
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
                          refresh: bool = False,
                          summaries: Optional[_Summaries] = None,
                          ) -> FigureTable:
    """Section 7.2: naive write-through BSP, ~8x over NP in the paper."""
    by_key = _run_plan(
        writethrough_plan(scale, seed, mem_ops, apps), jobs, cache, refresh,
        summaries,
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
              refresh: bool = False,
              summaries: Optional[_Summaries] = None,
              ) -> Tuple[FigureTable, FigureTable]:
    """Contended pingpong: conflict share and LB++ speedup per cell.

    Returns two tables (the units differ): the percentage of epochs
    flushed by a conflict under LB vs LB++, and the LB++/LB throughput
    ratio -- the proactive-flush win should grow with contention.
    """
    by_key = _run_plan(
        contended_plan(scale, seed, transactions), jobs, cache, refresh,
        summaries,
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

# tag -> plan function, called as ``plan(scale, seed, <length>=n)``
# with the run-length keyword the figure's runs take: ``transactions``
# per thread for the BEP microbenchmark runs, ``mem_ops`` per thread for
# the BSP app runs.  The planner enumerates a build's runs through these
# tables; fig11 and fig12 share one sweep, so they map to the same plan
# (the planner dedups the specs and tags them with both consumers).
_BEP_PLANS: Dict[str, Callable[..., _Plan]] = {
    "fig11": bep_sweep_plan,
    "fig12": bep_sweep_plan,
    "flushmode": flush_mode_plan,
    "contended": contended_plan,
}
_BSP_PLANS: Dict[str, Callable[..., _Plan]] = {
    "fig13": fig13_plan,
    "fig14": fig14_plan,
    "writethrough": writethrough_plan,
}


def figure_plan_specs(scale: Scale, seed: int = 1,
                      figures: Optional[Sequence[str]] = None,
                      transactions: Optional[int] = None,
                      mem_ops: Optional[int] = None,
                      ) -> Dict[str, List[RunSpec]]:
    """``{figure tag: spec list}`` for the planner; ``transactions`` and
    ``mem_ops`` override the scale's run lengths (None keeps them)."""
    tags = list(figures) if figures is not None else list(_ALL_FIGURES)
    specs: Dict[str, List[RunSpec]] = {}
    for tag in tags:
        if tag in _BEP_PLANS:
            plan = _BEP_PLANS[tag](scale, seed, transactions=transactions)
        else:
            plan = _BSP_PLANS[tag](scale, seed, mem_ops=mem_ops)
        specs[tag] = plan[0]
    return specs


@dataclass(frozen=True)
class PlanEntry:
    """One deduplicated spec of a figure build."""

    spec: RunSpec
    figures: Tuple[str, ...]   # figure tags that consume this spec
    cached: bool               # probe outcome at plan time


def build_plan(figure_specs: Mapping[str, Sequence[RunSpec]],
               cache: Optional[ResultCache],
               refresh: bool = False) -> List[PlanEntry]:
    """Probe the requested figures' runs against the cache in one pass.

    The plan holds the deduplicated union of ``figure_specs`` in
    first-seen order, each entry tagged with every figure that consumes
    it (the shared NP baselines appear once).  With ``refresh``, or
    with no cache, every entry is pending.
    """
    consumers: Dict[RunSpec, List[str]] = {}
    for tag, specs in figure_specs.items():
        for spec in specs:
            tags = consumers.setdefault(spec, [])
            if tag not in tags:
                tags.append(tag)
    return [
        PlanEntry(spec, tuple(tags),
                  cache is not None and not refresh
                  and cache.contains_key(cache.key_for(spec)))
        for spec, tags in consumers.items()
    ]


def plan_summary(plan: Sequence[PlanEntry]) -> str:
    """The ``N cached / M to run`` plan line."""
    pending = sum(not entry.cached for entry in plan)
    line = f"[plan] {len(plan) - pending} cached / {pending} to run"
    return line if pending else line + " / nothing to do"


def _budget_seconds(text: str) -> float:
    """A ``--budget`` value: a finite number of seconds, at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}"
        )
    return value


def positive_int(text: str) -> int:
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


def non_negative_int(text: str) -> int:
    """An integer of at least 0: a seed, a cycle, or a flag whose value 0
    means "off".

    Seeds must not be negative: ``random.Random`` seeds with an
    integer's absolute value, so a negative seed would silently replay
    a positive one's draws (a microbenchmark's thread 0 draws the same
    stream under ``--seed -1`` as under ``--seed 1``).
    """
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def add_figure_args(parser: argparse.ArgumentParser) -> None:
    """The figure-build arguments, shared by this module's :func:`main`
    and ``python -m repro figures``; :func:`build_figures` takes the
    namespace they parse into."""
    parser.add_argument(
        "figures", nargs="+",
        choices=list(_ALL_FIGURES) + ["all"],
    )
    parser.add_argument("--scale", default=Scale.SMALL.value,
                        choices=[s.value for s in Scale],
                        help="machine scale (default: small)")
    parser.add_argument("--seed", type=non_negative_int, default=1)
    parser.add_argument(
        "--transactions", type=positive_int, default=None,
        help="transactions per thread of every BEP run (fig11, fig12, "
             "flushmode, contended; default: the scale's)",
    )
    parser.add_argument(
        "--mem-ops", type=positive_int, default=None,
        help="memory ops per thread of every BSP app run (fig13, fig14, "
             "writethrough; default: the scale's)",
    )
    parser.add_argument("--csv-dir", default=None,
                        help="write each figure's data as CSV here")
    parser.add_argument("--chart", action="store_true",
                        help="render terminal bar charts too")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel worker processes (default: all cores; 1 = "
             "in-process serial execution)",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="recompute every run and overwrite cached results",
    )
    parser.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    # A budget plans through the result cache.
    uncached = parser.add_mutually_exclusive_group()
    uncached.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    uncached.add_argument(
        "--budget", type=_budget_seconds, default=None, metavar="SECONDS",
        help="wall-clock allowance: stop dispatching new runs once "
             "exhausted; completed results persist and rerunning the "
             "same command resumes from the remainder (0 = print the "
             "plan, run nothing; needs the cache)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures."
    )
    add_figure_args(parser)
    return build_figures(parser.parse_args(argv))


def build_figures(args: argparse.Namespace) -> int:
    """Build the figures ``args`` (parsed by :func:`add_figure_args`)
    asks for, print them, and return the exit code."""
    scale = Scale(args.scale)
    wanted = set(args.figures)
    if "all" in wanted:
        wanted = set(_ALL_FIGURES)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    jobs = args.jobs
    refresh = args.refresh
    transactions = args.transactions
    mem_ops = args.mem_ops

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
    # Plan first: the deduplicated union of the requested figures' runs,
    # so a spec several figures share (the NP baselines, fig13's
    # largest-epoch LB run, fig11's LB++ runs) runs once, cached or not.
    # With a cache, the plan probes it in one pass and only the delta
    # executes.
    ordered = [tag for tag in _ALL_FIGURES if tag in wanted]
    plan = build_plan(
        figure_plan_specs(scale, args.seed, ordered,
                          transactions=transactions, mem_ops=mem_ops),
        cache, refresh=refresh)
    if cache is not None:
        if not all(entry.cached for entry in plan):
            print(plan_table(plan).render(precision=0))
        print(plan_summary(plan))
    deadline = (time.monotonic() + args.budget
                if args.budget is not None else None)
    specs = [entry.spec for entry in plan]
    ran = run_specs(specs, jobs=jobs, cache=cache, refresh=refresh,
                    deadline=deadline)
    remaining = ran.count(None)
    if remaining:
        # A budget needs the cache; every spec it did not read ran or
        # remains.
        executed = len(specs) - remaining - cache.hits
        print(f"[plan] budget exhausted after "
              f"{time.time() - start:.1f}s: "
              f"{executed} executed, {remaining} "
              "remaining; rerun the same command to resume")
        print(f"[cache: {cache.hits} hits, {cache.misses} misses "
              f"({args.cache_dir})]", file=sys.stderr)
        return 0
    # Every figure is assembled from those summaries.
    summaries = dict(zip(specs, ran))
    if wanted & {"fig11", "fig12"}:
        sweep = run_bep_sweep(scale, args.seed, transactions,
                              summaries=summaries)
        if "fig11" in wanted:
            emit("fig11", fig11(scale, args.seed, sweep=sweep))
        if "fig12" in wanted:
            emit("fig12", fig12(scale, args.seed, sweep=sweep), precision=1)
    if "fig13" in wanted:
        emit("fig13", fig13(scale, args.seed, mem_ops, summaries=summaries),
             precision=2)
    if "fig14" in wanted:
        table, inter_share = fig14(scale, args.seed, mem_ops,
                                   summaries=summaries)
        emit("fig14", table, precision=2)
        print(f"inter-thread share of conflicts: {inter_share:.0f}%"
              " (paper: 86%)\n")
    if "flushmode" in wanted:
        emit("ablation_flush_mode",
             ablation_flush_mode(scale, args.seed, transactions,
                                 summaries=summaries))
    if "writethrough" in wanted:
        emit("ablation_writethrough",
             ablation_writethrough(scale, args.seed, mem_ops,
                                   summaries=summaries),
             precision=2)
    if "contended" in wanted:
        conflicts, speedups = contended(scale, args.seed, transactions,
                                        summaries=summaries)
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
