"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.runner`      -- machine presets (tiny/small/paper
  scales) and single-run drivers for BEP microbenchmarks and BSP apps.
* :mod:`repro.harness.executor`    -- the parallel sweep executor:
  :class:`RunSpec` lists fanned out over a process pool, reduced to
  slim :class:`RunSummary` carriers in deterministic spec order.
* :mod:`repro.harness.cache`       -- content-addressed disk cache of
  run summaries keyed by SHA-256 over config + workload + seed.
* :mod:`repro.harness.experiments` -- one driver per figure: fig11
  (BEP throughput), fig12 (conflicting epochs), fig13 (BSP epoch-size
  sweep), fig14 (BSP designs), plus the in-text ablations (clwb vs
  clflush, naive write-through BSP, inter-thread conflict share).
* :mod:`repro.harness.bench`       -- the check registry behind
  ``python -m repro bench`` (handshake scaling, crash sweeps, planner
  invariants); writes ``BENCH_sweep.json``.  Host time is measured by
  ``perfbench/``.
* :mod:`repro.harness.report`      -- table/series formatting and the
  derived all-to-all handshake counts.

Command line::

    python -m repro.harness.experiments fig11 --scale small --jobs 4
"""

from repro.harness.cache import ResultCache
from repro.harness.executor import (
    FarmError,
    FarmHealth,
    RunSpec,
    RunSummary,
    execute_resilient,
    run_specs,
)
from repro.harness.runner import (
    Scale,
    bep_machine_config,
    bsp_machine_config,
    run_bep,
    run_bsp,
)

__all__ = [
    "FarmError",
    "FarmHealth",
    "ResultCache",
    "RunSpec",
    "RunSummary",
    "Scale",
    "execute_resilient",
    "bep_machine_config",
    "bsp_machine_config",
    "run_bep",
    "run_bsp",
    "run_specs",
]
