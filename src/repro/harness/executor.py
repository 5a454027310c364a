"""Parallel sweep executor.

Every figure of the paper is a sweep over independent, deterministic
``Multicore`` runs.  This module turns a sweep into data: a list of
:class:`RunSpec` values describing each run, fanned out across a process
pool and reduced to :class:`RunSummary` carriers in the order the specs
were given, regardless of completion order.

* :class:`RunSpec` -- a frozen, hashable description of one run
  (workload, design, scale, seed, model, epoch size, config overrides).
  Two equal specs produce bit-identical summaries, which is what makes
  the content-addressed cache (:mod:`repro.harness.cache`) sound.
* :class:`RunSummary` -- the slim serializable subset of
  :class:`~repro.system.RunResult` the figures need.  A full
  ``RunResult`` drags the whole ``Stats`` registry (and through it the
  machine) across the process boundary; the summary is a handful of
  ints.
* :func:`run_specs` -- execute a spec list.  ``jobs=1`` runs fully
  in-process (the debugging path); ``jobs>1`` uses one
  ``ProcessPoolExecutor``.  An optional result cache is consulted
  before dispatch and written as each result lands; an optional
  deadline stops dispatching new runs.  A run that raises stops the
  sweep with an error naming its spec; a failing run is a simulator
  bug, so nothing is retried.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.runner import (
    Scale,
    bep_machine_config,
    bsp_machine_config,
    run_bep,
    run_bsp,
    scale_params,
)
from repro.sim.config import (
    BarrierDesign,
    FlushMode,
    MachineConfig,
    PersistencyModel,
)
from repro.system import RunResult

_BSP_DEFAULT_EPOCH_STORES = 10_000


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described.

    ``overrides`` holds extra :class:`MachineConfig` fields as a sorted
    tuple of ``(name, value)`` pairs so the spec stays hashable and its
    canonical form does not depend on keyword order.  ``workload_args``
    holds extra benchmark-constructor keywords the same way (BEP only:
    the microbenchmark factory takes per-workload knobs such as
    pingpong's ``conflict_rate`` / ``num_slots``; the BSP apps are
    profile-driven and take none).
    """

    kind: str                     # "bep" | "bsp"
    workload: str
    design: BarrierDesign
    scale: Scale
    seed: int = 1
    model: Optional[PersistencyModel] = None
    epoch_stores: Optional[int] = None
    undo_logging: bool = True
    flush_mode: FlushMode = FlushMode.CLWB
    transactions: Optional[int] = None    # BEP run length (None = scale default)
    mem_ops: Optional[int] = None         # BSP run length (None = scale default)
    overrides: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    workload_args: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("bep", "bsp"):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.kind == "bsp" and self.workload_args:
            raise ValueError(
                "workload_args apply to BEP microbenchmarks only; the "
                "BSP apps are profile-driven"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def bep(cls, benchmark: str, design: BarrierDesign, scale: Scale,
            seed: int = 1, transactions: Optional[int] = None,
            flush_mode: FlushMode = FlushMode.CLWB,
            workload_args: Optional[Dict[str, Any]] = None,
            **overrides: Any) -> "RunSpec":
        return cls(
            kind="bep", workload=benchmark, design=design, scale=scale,
            seed=seed, model=PersistencyModel.BEP, flush_mode=flush_mode,
            transactions=transactions,
            overrides=tuple(sorted(overrides.items())),
            workload_args=tuple(sorted((workload_args or {}).items())),
        )

    @classmethod
    def bsp(cls, app: str, design: BarrierDesign, scale: Scale,
            seed: int = 1, epoch_stores: Optional[int] = None,
            undo_logging: bool = True,
            model: PersistencyModel = PersistencyModel.BSP,
            mem_ops: Optional[int] = None,
            **overrides: Any) -> "RunSpec":
        return cls(
            kind="bsp", workload=app, design=design, scale=scale,
            seed=seed, model=model, epoch_stores=epoch_stores,
            undo_logging=undo_logging, mem_ops=mem_ops,
            overrides=tuple(sorted(overrides.items())),
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolved_config(self) -> MachineConfig:
        """The exact :class:`MachineConfig` this spec runs under."""
        overrides = dict(self.overrides)
        if self.kind == "bep":
            return bep_machine_config(
                self.scale, self.design, self.flush_mode, **overrides
            )
        return bsp_machine_config(
            self.scale, self.design,
            epoch_stores=self._resolved_epoch_stores(),
            undo_logging=self.undo_logging,
            persistency=self.model or PersistencyModel.BSP,
            **overrides,
        )

    def _resolved_epoch_stores(self) -> int:
        if self.epoch_stores is not None:
            return self.epoch_stores
        return _BSP_DEFAULT_EPOCH_STORES

    def workload_params(self) -> Dict[str, Any]:
        """Workload-side inputs, with scale defaults resolved, for the
        cache key."""
        params = scale_params(self.scale)
        out: Dict[str, Any] = {
            "kind": self.kind,
            "workload": self.workload,
            "scale": self.scale.value,
            "seed": self.seed,
            "threads": params.threads,
        }
        if self.kind == "bep":
            out["transactions"] = (
                self.transactions if self.transactions is not None
                else params.bep_transactions
            )
        else:
            out["mem_ops"] = (
                self.mem_ops if self.mem_ops is not None
                else params.bsp_mem_ops
            )
        if self.workload_args:
            # Only when present, so specs without extra knobs keep the
            # same canonical form (and cache key) as before the field
            # existed.
            out["workload_args"] = dict(self.workload_args)
        return out

    def describe(self) -> str:
        model = (self.model or PersistencyModel.BEP).value
        return (f"{self.kind}:{self.workload}/{self.design.value}"
                f"/{model}@{self.scale.value} seed={self.seed}")


@dataclass(frozen=True)
class RunSummary:
    """The serializable subset of :class:`~repro.system.RunResult` the
    figures and the result cache need.

    All fields are plain ints/bools, so equality is bit-exact and JSON
    round-trips losslessly -- both properties the determinism tests and
    the content-addressed cache rely on.
    """

    workload: str
    design: str
    cycles_visible: Optional[int]
    cycles_durable: Optional[int]
    transactions: int
    epochs_persisted: int
    epochs_conflict_flushed: int
    intra_conflicts: int
    inter_conflicts: int
    nvram_writes: int
    finished: bool

    # -- derived metrics, mirroring RunResult --------------------------
    @property
    def throughput(self) -> float:
        if not self.cycles_visible:
            return 0.0
        return 1000.0 * self.transactions / self.cycles_visible

    @property
    def total_epochs(self) -> int:
        return self.epochs_persisted

    @property
    def conflict_epoch_pct(self) -> float:
        if not self.epochs_persisted:
            return 0.0
        return 100.0 * self.epochs_conflict_flushed / self.epochs_persisted

    # -- construction / serialization ----------------------------------
    @classmethod
    def from_result(cls, spec: RunSpec, result: RunResult) -> "RunSummary":
        return cls(
            workload=spec.workload,
            design=spec.design.value,
            cycles_visible=result.cycles_visible,
            cycles_durable=result.cycles_durable,
            transactions=result.transactions,
            epochs_persisted=result.total_epochs,
            epochs_conflict_flushed=result.stats.total(
                "epochs_conflict_flushed"
            ),
            intra_conflicts=result.intra_conflicts,
            inter_conflicts=result.inter_conflicts,
            nvram_writes=result.nvram_writes,
            finished=result.finished,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        return cls(**data)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute(spec: RunSpec) -> RunSummary:
    """Run one spec in this process and summarize the result.

    Module-level so it pickles cleanly into pool workers.
    """
    overrides = dict(spec.overrides)
    if spec.kind == "bep":
        result = run_bep(
            spec.workload, spec.design, scale=spec.scale, seed=spec.seed,
            transactions=spec.transactions, flush_mode=spec.flush_mode,
            workload_args=dict(spec.workload_args),
            **overrides,
        )
    else:
        result = run_bsp(
            spec.workload, spec.design, scale=spec.scale, seed=spec.seed,
            epoch_stores=spec._resolved_epoch_stores(),
            undo_logging=spec.undo_logging,
            persistency=spec.model or PersistencyModel.BSP,
            mem_ops=spec.mem_ops, **overrides,
        )
    return RunSummary.from_result(spec, result)


def default_jobs() -> int:
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Clamp a requested worker count to the machine, with a log line.

    ``None`` means every core.  Requested jobs are capped at
    ``os.cpu_count()``: CPU-bound workers beyond the physical core
    count only add scheduling overhead, and on a 1-CPU host a process
    pool is strictly slower than running in-process (fork + pickle cost
    with zero overlap), so a cap of 1 falls back to the serial path.
    """
    requested = default_jobs() if jobs is None else max(1, jobs)
    cap = os.cpu_count() or 1
    jobs = min(requested, cap)
    if jobs < requested:
        mode = ("in-process serial (a pool cannot overlap work on one "
                "cpu)" if jobs == 1 else f"{jobs} pool workers")
        print(
            f"[executor] capping jobs={requested} to os.cpu_count()="
            f"{cap}: running {mode}",
            file=sys.stderr,
        )
    return jobs


def _run_failed(spec: RunSpec, error: BaseException) -> RuntimeError:
    return RuntimeError(f"run {spec.describe()} failed: {error!r}")


def run_specs(
    specs: List[RunSpec],
    jobs: Optional[int] = None,
    cache=None,
    refresh: bool = False,
    deadline: Optional[float] = None,
) -> List[Optional[RunSummary]]:
    """Execute ``specs`` and return summaries in spec order.

    ``jobs=None`` uses every core; ``jobs=1`` (or a single cache miss)
    runs serially in-process, which is the path to debug and profile;
    otherwise the misses run in one ``ProcessPoolExecutor``.  ``cache``
    is any object with the :class:`repro.harness.cache.ResultCache`
    interface; with ``refresh`` it is only written, never read.  Each
    result is cached as it lands, so a sweep that stops early keeps
    everything it finished.

    ``deadline`` is a :func:`time.monotonic` value: once it has passed
    no new run is dispatched, runs in flight still finish and land, and
    the runs never started come back as ``None``.  A run that raises
    (or a pool worker that dies) stops the sweep the same way, then
    raises a :exc:`RuntimeError` naming its spec; nothing is retried.
    Completion order never reorders the output, so any ``jobs`` value
    yields the same list.
    """
    jobs = resolve_jobs(jobs)
    summaries: List[Optional[RunSummary]] = [None] * len(specs)
    keys = ([cache.key_for(spec) for spec in specs]
            if cache is not None else None)
    misses: List[int] = []
    for index in range(len(specs)):
        hit = (cache.get_by_key(keys[index])
               if cache is not None and not refresh else None)
        if hit is not None:
            summaries[index] = hit
        else:
            misses.append(index)

    def land(index: int, summary: RunSummary) -> None:
        summaries[index] = summary
        if cache is not None:
            cache.put_by_key(keys[index], specs[index], summary)

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    workers = min(jobs, len(misses))
    if workers <= 1:
        for index in misses:
            if expired():
                break
            try:
                summary = execute(specs[index])
            except Exception as error:
                raise _run_failed(specs[index], error) from error
            land(index, summary)
        return summaries

    queued = iter(misses)
    running: Dict[Future, int] = {}
    failure: Optional[Tuple[int, BaseException]] = None
    with ProcessPoolExecutor(max_workers=workers) as pool:

        def dispatch() -> None:
            # One run per free worker, so the deadline (and a failure)
            # is checked before every dispatch.
            if failure is None and not expired():
                index = next(queued, None)
                if index is not None:
                    running[pool.submit(execute, specs[index])] = index

        for _ in range(workers):
            dispatch()
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                index = running.pop(future)
                error = future.exception()
                if error is None:
                    land(index, future.result())
                elif failure is None:
                    failure = (index, error)
                dispatch()
    if failure is not None:
        index, error = failure
        raise _run_failed(specs[index], error) from error
    return summaries
