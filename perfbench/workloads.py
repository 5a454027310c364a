"""The benchmark's workloads: a machine configuration plus per-core op streams.

Every workload is a closed batch loop on a machine whose caches start
empty: each simulated core issues its next op as soon as the processor
model lets it, with no arrival rate.  The seed is the only input that
varies between runs; the simulator receives nothing but the generated
op streams.  Why each workload is in the benchmark is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.workloads.micro import make_benchmark

# Ops pulled per chunk from a lazily generated program, as in the
# million-transaction run: memory stays bounded at one chunk and the
# core's per-op ``next`` resumes one shallow frame.
_LAZY_CHUNK = 1 << 14


def _chunked(ops: Iterator) -> Iterator:
    while True:
        chunk = list(islice(ops, _LAZY_CHUNK))
        if not chunk:
            return
        yield from chunk


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    transactions: int
    persistency: PersistencyModel
    design: BarrierDesign
    cores: int = 1
    # Lazy programs are generated while the machine runs, so their
    # generation cost lands in the run instead of in set-up.
    lazy: bool = False
    bench_kwargs: Dict[str, object] = field(default_factory=dict)
    config_kwargs: Dict[str, object] = field(default_factory=dict)

    def config(self) -> MachineConfig:
        return MachineConfig.tiny(
            persistency=self.persistency, barrier_design=self.design,
            num_cores=self.cores, **self.config_kwargs,
        )

    def programs(self, seed: int, line_size: int) -> List[Iterable]:
        """One op stream per core, all derived from ``seed``."""
        streams = [
            make_benchmark(
                self.benchmark, thread_id=tid, seed=seed,
                line_size=line_size, **self.bench_kwargs,
            ).ops(self.transactions)
            for tid in range(self.cores)
        ]
        if self.lazy:
            return [_chunked(ops) for ops in streams]
        return [list(ops) for ops in streams]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hotset", "hotset", 3000,
             PersistencyModel.BEP, BarrierDesign.LB_IDT),
    Workload("serving", "serving", 3000,
             PersistencyModel.BEP, BarrierDesign.LB_PP),
    # One LLC bank per tile on a 2-row mesh, as in the paper's Figure 2.
    Workload("pingpong4", "pingpong", 400,
             PersistencyModel.BEP, BarrierDesign.LB_PP, cores=4,
             bench_kwargs={"conflict_rate": 1.0},
             config_kwargs={"llc_banks": 4, "mesh_rows": 2}),
    Workload("bsp_stream", "pingpong", 10000,
             PersistencyModel.BSP, BarrierDesign.LB_PP, lazy=True),
)}
