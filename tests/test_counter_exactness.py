"""Counter exactness: the hot counters count every event exactly once.

The processor, the machine and the memory controllers keep their hot
counters in plain attributes and merge them into the stat domains once,
at run end.  The determinism digest compares two runs' merged counters,
so a shortcut that miscounts in both engine modes would slip past it.
These tests check the merged counters against independent ground truth
instead, for small versions of the four ``perfbench`` configurations, in
whichever engine mode the suite runs (``REPRO_SLOW_ENGINE``):

* loads, stores, barriers and transactions equal the op streams'
  LOAD/STORE/BARRIER/TXN_MARK counts;
* every NVRAM write the controllers counted is a persist the image
  recorded (``nvram.writes == image.persist_count``);
* every load that was not forwarded from the write buffer, and every
  store, recorded exactly one memory-latency sample.
"""

from collections import Counter

import pytest

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.system import Multicore
from repro.workloads.base import OpKind
from repro.workloads.micro import make_benchmark

# name -> (benchmark, transactions, persistency, design, cores,
#          benchmark kwargs, config kwargs): the perfbench workloads,
# scaled down.
_WORKLOADS = {
    "hotset": ("hotset", 300, PersistencyModel.BEP, BarrierDesign.LB_IDT,
               1, {}, {}),
    "serving": ("serving", 300, PersistencyModel.BEP, BarrierDesign.LB_PP,
                1, {}, {}),
    "pingpong4": ("pingpong", 60, PersistencyModel.BEP, BarrierDesign.LB_PP,
                  4, {"conflict_rate": 1.0},
                  {"llc_banks": 4, "mesh_rows": 2}),
    "bsp_stream": ("pingpong", 1000, PersistencyModel.BSP,
                   BarrierDesign.LB_PP, 1, {}, {}),
}


def _drained_run(name):
    bench, txns, persistency, design, cores, bench_kw, config_kw = (
        _WORKLOADS[name])
    config = MachineConfig.tiny(persistency=persistency,
                                barrier_design=design, num_cores=cores,
                                **config_kw)
    programs = [
        list(make_benchmark(bench, thread_id=tid, seed=1,
                            line_size=config.line_size, **bench_kw)
             .ops(txns))
        for tid in range(cores)
    ]
    machine = Multicore(config, track_persist_order=True)
    result = machine.run(programs)
    assert result.finished and result.cycles_durable is not None
    return machine, result, programs


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_hot_counters_are_exact(name):
    machine, result, programs = _drained_run(name)
    stats = result.stats
    for core_id, ops in enumerate(programs):
        kinds = Counter(op.kind for op in ops)
        core = stats.domain(f"core{core_id}")
        assert core.get("loads") == kinds[OpKind.LOAD]
        assert core.get("stores") == kinds[OpKind.STORE]
        assert core.get("barriers") == kinds[OpKind.BARRIER]
        assert core.get("txns") == kinds[OpKind.TXN_MARK]
        assert core.count("mem_latency") == (
            core.get("loads") - core.get("wb_forwards") + core.get("stores")
        )
    assert stats.domain("nvram").get("writes") == machine.image.persist_count
    assert machine.image.persist_count > 0
