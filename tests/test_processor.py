"""Tests for the core model: write buffer, forwarding, barriers."""

import pytest

from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.base import Program
from repro.workloads.micro import make_benchmark


def machine(**overrides):
    defaults = dict(
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
    )
    defaults.update(overrides)
    return Multicore(MachineConfig.tiny(**defaults))


def test_store_to_load_forwarding():
    m = machine()
    p = Program().store(0x1000, 8).load(0x1000)
    result = m.run([p])
    assert result.stats.domain("core0").get("wb_forwards") == 1


def test_no_forwarding_for_different_line():
    m = machine()
    p = Program().store(0x1000, 8).load(0x2000)
    result = m.run([p])
    assert result.stats.domain("core0").get("wb_forwards") == 0


def test_write_buffer_capacity_stalls_issue():
    m = machine(write_buffer_entries=4, nvram_read_latency=2000)
    p = Program()
    # A long-latency load at the head of the drain is impossible; instead
    # fill the buffer faster than the L1 can drain it.
    for i in range(64):
        p.store(0x1000 + i * 64, 8)
    result = m.run([p])
    assert result.stats.domain("core0").get("wb_full_stalls") > 0


def test_transactions_counted():
    m = machine()
    p = Program()
    for _ in range(5):
        p.store(0x1000, 8).txn_mark()
    result = m.run([p])
    assert result.transactions == 5


def test_compute_advances_time_without_memory_traffic():
    m = machine()
    p = Program().compute(12345)
    result = m.run([p])
    assert result.cycles_visible >= 12345
    assert result.stats.total("loads") == 0


def test_epoch_window_limit_stalls_stores():
    m = machine(max_inflight_epochs=2, nvram_write_latency=5000,
                mc_write_occupancy=500)
    p = Program()
    for i in range(8):
        p.store(0x1000 + i * 64, 8).barrier()
    result = m.run([p])
    assert result.stats.total("epoch_window_stalls") > 0
    assert result.finished


def test_consecutive_barriers_collapse():
    m = machine()
    p = Program().store(0x1000, 8).barrier().barrier().barrier()
    result = m.run([p])
    assert result.stats.total("epochs_persisted") == 1


def test_empty_program_finishes_immediately():
    m = machine()
    result = m.run([Program()])
    assert result.finished
    assert result.cycles_visible == 0


def test_programs_fewer_than_cores_allowed():
    m = machine(num_cores=2)
    result = m.run([Program().store(0x1000, 8)])
    assert result.finished


def test_too_many_programs_rejected():
    m = machine(num_cores=2)
    with pytest.raises(ValueError):
        m.run([Program(), Program(), Program()])


def test_machine_cannot_run_twice():
    m = machine()
    m.run([Program()])
    with pytest.raises(RuntimeError):
        m.run([Program()])


def test_stores_drain_in_fifo_order():
    m = machine()
    m2 = Multicore(m.config, track_persist_order=True)
    p = Program()
    for i in range(6):
        p.store(0x1000 + i * 64, 8).barrier()
    m2.run([p])
    data = [r.line for r in m2.image.history if r.kind == "data"]
    assert data == sorted(data)


def _one_line_loads(slow):
    with reference_mode(slow):
        m = Multicore(machine().config, track_values=True,
                      track_persist_order=True)
    p = Program()
    for _ in range(10_000):
        p.load(0x1000)
    return m, m.run([p])


def test_load_hits_run_in_one_loop():
    # The first load misses; the 9,999 after it hit the L1 and complete
    # inside the core's op loop without an engine event.  Reference
    # mode schedules every one.
    fast, fast_result = _one_line_loads(slow=False)
    assert fast_result.finished
    assert fast_result.stats.total("loads") == 10_000
    assert fast.engine._seq <= 5
    ref, ref_result = _one_line_loads(slow=True)
    assert ref.engine._seq > 10_000
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def _counted_run(slow, programs, num_cores=1):
    """Run ``programs`` on a machine whose ``load`` and
    ``Engine.horizon`` count their calls; ``load`` also records who
    asked for which line.  Returns (machine, result, counts, loads)."""
    with reference_mode(slow):
        m = Multicore(machine(num_cores=num_cores).config, track_values=True,
                      track_persist_order=True)
    counts = {"horizon": 0}
    loads = []

    def counted(obj, name):
        method = getattr(obj, name)

        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        setattr(obj, name, wrapper)

    load = m.load

    def recorded_load(core_id, line, on_done):
        loads.append((core_id, line))
        return load(core_id, line, on_done)

    m.load = recorded_load
    counted(m.engine, "horizon")
    return m, m.run(programs), counts, loads


def _latency_samples(result, core):
    domain = result.stats.domain(f"core{core}")
    return (domain.count("mem_latency"), domain.total("mem_latency"),
            domain.maximum("mem_latency"))


def test_l1_load_hits_stay_in_the_core():
    # 10,000 loads over four lines: four cold misses, then hits the
    # core serves from its own L1 without calling the machine or
    # queueing an event; the hit count and latency samples it hands over
    # at run end are the ones the reference classifier records per load.
    lines = [0x1000 + i * 64 for i in range(4)]
    p = Program()
    for i in range(10_000):
        p.load(lines[i % 4])
    fast, fast_result, counts, loads = _counted_run(False, [p])
    assert sorted(loads) == [(0, line) for line in lines]
    assert fast.engine._seq <= 20 and counts["horizon"] <= 10
    ref, ref_result, _, ref_loads = _counted_run(True, [p])
    assert len(ref_loads) == 10_000
    hits = fast_result.stats.domain("l1.0").get("hits")
    assert hits == ref_result.stats.domain("l1.0").get("hits") == 9_996
    assert _latency_samples(fast_result, 0) == _latency_samples(ref_result, 0)
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def test_a_remote_store_ends_the_local_hit_stretch():
    # Core 0 hits one line over and over; core 1's store to it
    # invalidates core 0's copy mid-stretch, so core 0's next load of
    # the line misses and goes to the machine, which finds core 1's
    # dirty copy.
    line = 0x1000
    reader = Program()
    for _ in range(2_000):
        reader.load(line)
    writer = Program().compute(600).store(line, 8, value=1).barrier()
    fast, fast_result, _, loads = _counted_run(False, [reader, writer],
                                               num_cores=2)
    assert loads.count((0, line)) >= 2
    assert fast_result.stats.domain("llc").get("forwards") >= 1
    ref, ref_result, _, _ = _counted_run(True, [reader, writer],
                                         num_cores=2)
    assert (fast_result.stats.domain("l1.0").get("hits")
            == ref_result.stats.domain("l1.0").get("hits"))
    assert _latency_samples(fast_result, 0) == _latency_samples(ref_result, 0)
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def _ignored_barriers(model, slow):
    with reference_mode(slow):
        m = Multicore(machine(persistency=model).config, track_values=True,
                      track_persist_order=True)
    p = Program().store(0x1000, 8)
    for _ in range(10_000):
        p.barrier()
    return m, m.run([p])


@pytest.mark.parametrize("model", [PersistencyModel.NP, PersistencyModel.BSP])
def test_ignored_barriers_run_in_one_loop(model):
    # NP ignores barriers and BSP's hardware inserts its own, so each
    # barrier completes at once and the op loop claims through it; the
    # few events left are the store's drain and persist.
    fast, fast_result = _ignored_barriers(model, slow=False)
    assert fast_result.finished
    assert fast_result.stats.total("barriers") == 10_000
    assert fast.engine._seq <= 30
    ref, ref_result = _ignored_barriers(model, slow=True)
    assert ref.engine._seq > 10_000
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def _bsp_stream(slow, transactions=200):
    """A one-core BSP stream of ten-store transactions, each led by a
    load the write buffer forwards and closed by a marker; returns the
    machine, its result and the events it queued."""
    with reference_mode(slow):
        m = Multicore(machine(persistency=PersistencyModel.BSP).config,
                      track_values=True, track_persist_order=True)
    engine = m.engine
    queued = [0]
    schedule = engine.schedule

    def counted_schedule(*args):
        queued[0] += 1
        schedule(*args)

    engine.schedule = counted_schedule
    p = Program()
    for txn in range(transactions):
        p.load(0x1000)
        for i in range(10):
            p.store(0x1000 + i * 64, 8, value=(txn, i))
        p.txn_mark()
    return m, m.run([p]), queued[0]


def test_session_lends_the_clock_to_its_core():
    # Nearly every store is drained in a fast-forward session.  The
    # session lends its core the clock up to the next store completion,
    # so the forwarded loads and the markers between stores claim it
    # instead of each queueing an event (two per transaction before the
    # lend).
    fast, fast_result, queued = _bsp_stream(slow=False)
    assert fast_result.finished
    assert fast.cores[0].ff_stores >= 1_900
    assert fast_result.stats.total("wb_forwards") == 199
    assert queued < 200
    ref, ref_result, ref_queued = _bsp_stream(slow=True)
    assert ref_queued > 4_000
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def _counted_stores(slow, programs, **overrides):
    """Run ``programs`` on a machine whose ``Multicore.try_clean_store``
    counts its calls and whose ``merge_l1_hits`` counts the same-epoch
    store hits its cores served; returns (machine, result, calls,
    store hits)."""
    with reference_mode(slow):
        m = Multicore(machine(**overrides).config, track_values=True,
                      track_persist_order=True)
    calls = [0]
    hits = [0]
    try_clean_store = m.try_clean_store
    merge_l1_hits = m.merge_l1_hits

    def counted_try_clean_store(*args):
        calls[0] += 1
        return try_clean_store(*args)

    def counted_merge_l1_hits(core_id, load_hits, store_hits):
        hits[0] += store_hits
        merge_l1_hits(core_id, load_hits, store_hits)

    m.try_clean_store = counted_try_clean_store
    m.merge_l1_hits = counted_merge_l1_hits
    result = m.run(programs)
    return m, result, calls[0], hits[0]


@pytest.mark.parametrize("model", [PersistencyModel.BEP,
                                   PersistencyModel.BSP])
def test_same_epoch_store_hits_stay_in_the_core(model):
    # One long epoch (no barrier, and BSP's quota is 10,000 stores):
    # 10,000 stores over eight lines.  Each line's first store goes to
    # the machine; every later one finds its line dirty under the core's
    # ongoing epoch and the core serves it without calling the machine.
    # The latency samples it hands over at run end are the ones the
    # reference classifier records per store.
    lines = [0x1000 + i * 64 for i in range(8)]
    p = Program()
    for i in range(10_000):
        p.store(lines[i % 8], 8, value=i)
    fast, fast_result, calls, _ = _counted_stores(False, [p],
                                                  persistency=model)
    assert fast_result.finished
    assert calls <= len(lines)
    assert fast.cores[0].ff_stores >= 9_900
    ref, ref_result, _, _ = _counted_stores(True, [p], persistency=model)
    assert _latency_samples(fast_result, 0) == _latency_samples(ref_result, 0)
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def test_a_full_miss_is_decided_once_without_a_session():
    # Every store misses to memory.  Each drain step asks the machine
    # once, the machine issues the fill itself, and no session opens.
    n = 200
    p = Program()
    for i in range(n):
        p.store(0x10_0000 + i * 64, 8, value=i)
    fast, fast_result, calls, _ = _counted_stores(False, [p])
    assert fast_result.finished
    core = fast.cores[0]
    assert (calls, core.ff_batches) == (n, 0)
    assert core.ff_fallback_reasons["full_miss"] == core.ff_fallbacks == n
    ref, ref_result, _, _ = _counted_stores(True, [p])
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)


def test_a_store_refused_in_a_session_is_not_asked_again():
    # Four cores contend for pingpong's mailbox lines, so sessions end at
    # stores the machine refuses (their line is still tagged by an
    # unpersisted epoch).  The drain issues each such store once the
    # session has ended, without asking the machine a second time: every
    # epoch-tagged store the core does not serve itself costs exactly
    # one try_clean_store call.
    config = machine(num_cores=4).config
    programs = [
        list(make_benchmark("pingpong", thread_id=tid, seed=1,
                            line_size=config.line_size).ops(10))
        for tid in range(4)
    ]
    fast, fast_result, calls, hits = _counted_stores(False, programs,
                                                     num_cores=4)
    assert fast_result.finished
    assert sum(c.ff_batches for c in fast.cores) > 0
    assert sum(c.ff_fallback_reasons["refused"] for c in fast.cores) > 0
    assert calls == fast_result.stats.total("stores") - hits
    ref, ref_result, _, _ = _counted_stores(True, programs, num_cores=4)
    assert state_digest(fast, fast_result) == state_digest(ref, ref_result)
