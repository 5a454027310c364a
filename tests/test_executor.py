"""Tests for the parallel sweep executor and the result cache."""

import json
import time

import pytest

from repro.harness import cache as cache_module
from repro.harness import executor as executor_module
from repro.harness.cache import ResultCache, spec_key
from repro.harness.executor import RunSpec, RunSummary, execute, run_specs
from repro.harness.runner import Scale
from repro.sim.config import BarrierDesign, FlushMode, PersistencyModel


def _bep_specs(transactions=8):
    return [
        RunSpec.bep("queue", design, Scale.TINY, seed=1,
                    transactions=transactions)
        for design in (BarrierDesign.LB, BarrierDesign.LB_PP)
    ] + [
        RunSpec.bep("sps", BarrierDesign.LB, Scale.TINY, seed=2,
                    transactions=transactions),
    ]


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
def test_spec_is_hashable_and_order_insensitive_overrides():
    a = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                    l1_latency=4, llc_latency=20)
    b = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                    llc_latency=20, l1_latency=4)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_spec_resolves_overrides_into_config():
    spec = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY, l1_latency=7)
    config = spec.resolved_config()
    assert config.l1_latency == 7
    assert config.barrier_design is BarrierDesign.LB
    assert config.persistency is PersistencyModel.BEP


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        RunSpec(kind="nope", workload="queue", design=BarrierDesign.LB,
                scale=Scale.TINY)


def test_workload_params_resolve_scale_defaults():
    spec = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY)
    assert spec.workload_params()["transactions"] == 40  # tiny default
    spec = RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY)
    assert spec.workload_params()["mem_ops"] == 4000


# ----------------------------------------------------------------------
# RunSummary
# ----------------------------------------------------------------------
def test_summary_json_roundtrip_is_lossless():
    spec = RunSpec.bep("queue", BarrierDesign.LB_PP, Scale.TINY,
                       transactions=8)
    summary = execute(spec)
    clone = RunSummary.from_dict(
        json.loads(json.dumps(summary.to_dict()))
    )
    assert clone == summary
    assert clone.throughput == summary.throughput
    assert clone.conflict_epoch_pct == summary.conflict_epoch_pct


def test_summary_metrics_match_run_result():
    from repro.harness.runner import run_bep
    spec = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                       transactions=8)
    summary = execute(spec)
    result = run_bep("queue", BarrierDesign.LB, scale=Scale.TINY, seed=1,
                     transactions=8)
    assert summary.throughput == result.throughput
    assert summary.conflict_epoch_pct == result.conflict_epoch_pct
    assert summary.cycles_durable == result.cycles_durable
    assert summary.inter_conflicts == result.inter_conflicts


# ----------------------------------------------------------------------
# Executor: determinism and ordering (tier-1 parallel sweep smoke test)
# ----------------------------------------------------------------------
@pytest.mark.sweep_smoke
def test_parallel_executor_matches_serial_bit_for_bit():
    specs = _bep_specs()
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert serial == parallel  # dataclass equality over all-int fields
    # Results come back in spec order regardless of completion order.
    assert [s.workload for s in parallel] == [s.workload for s in specs]
    assert [s.design for s in parallel] == [s.design.value for s in specs]


@pytest.mark.sweep_smoke
def test_parallel_bsp_matches_serial():
    specs = [
        RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY, seed=1,
                    epoch_stores=30, mem_ops=400),
        RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY, seed=1,
                    model=PersistencyModel.NP, mem_ops=400),
    ]
    assert run_specs(specs, jobs=1) == run_specs(specs, jobs=2)


def _failing_pair():
    """A finished run and a run whose workload does not exist."""
    return [
        RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY, transactions=6),
        RunSpec.bep("no_such_workload", BarrierDesign.LB, Scale.TINY,
                    transactions=6),
    ]


def test_failing_run_keeps_finished_work_and_names_its_spec(tmp_path):
    ok, bad = _failing_pair()
    cache = ResultCache(tmp_path)
    with pytest.raises(RuntimeError, match="run bep:no_such_workload/LB"):
        run_specs([ok, bad], jobs=1, cache=cache)
    # The run that finished before the failure stays cached.
    assert len(cache) == 1
    assert cache.get(ok) == execute(ok)


def test_failing_run_in_pool_names_its_spec(monkeypatch, tmp_path):
    # Force a pool even on a one-CPU host.
    monkeypatch.setattr(executor_module, "resolve_jobs", lambda jobs: 2)
    ok, bad = _failing_pair()
    cache = ResultCache(tmp_path)
    with pytest.raises(RuntimeError, match="run bep:no_such_workload/LB"):
        run_specs([ok, bad], jobs=2, cache=cache)
    # The run in flight beside the failure still lands in the cache.
    assert cache.get(ok) == execute(ok)


def test_expired_deadline_dispatches_nothing_in_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(executor_module, "resolve_jobs", lambda jobs: 2)
    cache = ResultCache(tmp_path)
    specs = _bep_specs()
    done = run_specs(specs, jobs=2, cache=cache, deadline=time.monotonic())
    assert done == [None] * len(specs)
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_hit_returns_identical_summary(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _bep_specs()
    cold = run_specs(specs, jobs=1, cache=cache)
    assert cache.hits == 0 and cache.misses == len(specs)
    assert len(cache) == len(specs)
    warm = run_specs(specs, jobs=1, cache=cache)
    assert warm == cold
    assert cache.hits == len(specs)


def test_cache_hit_preserves_figures(tmp_path):
    from repro.harness.experiments import fig11
    cache = ResultCache(tmp_path)
    cold = fig11(Scale.TINY, transactions=8, jobs=1, cache=cache)
    hits_before = cache.hits
    warm = fig11(Scale.TINY, transactions=8, jobs=1, cache=cache)
    assert warm.as_dict() == cold.as_dict()
    assert cache.hits == hits_before + len(cache)


def test_refresh_recomputes_and_rewrites(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _bep_specs()[:1]
    first = run_specs(specs, jobs=1, cache=cache)
    refreshed = run_specs(specs, jobs=1, cache=cache, refresh=True)
    assert refreshed == first
    assert cache.hits == 0  # refresh never reads


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _bep_specs()[0]
    path = cache.put(spec, execute(spec))
    path.write_text("{ truncated", encoding="utf-8")
    assert cache.get(spec) is None
    assert cache.misses == 1


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    run_specs(_bep_specs()[:1], jobs=1, cache=cache)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_key_changes_with_config_field_seed_and_version(monkeypatch):
    base = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY)
    keys = {
        spec_key(base),
        spec_key(RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                             l1_latency=4)),            # config override
        spec_key(RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                             seed=2)),                   # seed
        spec_key(RunSpec.bep("queue", BarrierDesign.LB_PP, Scale.TINY)),
        spec_key(RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                             transactions=7)),           # run length
        spec_key(RunSpec.bep("sps", BarrierDesign.LB, Scale.TINY)),
    }
    # A different simulator source moves the key too.
    monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
    keys.add(spec_key(base))
    assert len(keys) == 7


def test_key_is_stable_for_equal_specs():
    a = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY, l1_latency=4)
    b = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY, l1_latency=4)
    assert spec_key(a) == spec_key(b)


def test_bsp_key_distinguishes_epoch_stores_and_logging():
    base = RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY)
    keys = {
        spec_key(base),
        spec_key(RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                             epoch_stores=30)),
        spec_key(RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                             undo_logging=False)),
        spec_key(RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                             model=PersistencyModel.NP)),
        spec_key(RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                             mem_ops=123)),
    }
    assert len(keys) == 5


def test_flush_mode_reaches_key():
    clwb = RunSpec.bep("queue", BarrierDesign.LB_PP, Scale.TINY)
    clflush = RunSpec.bep("queue", BarrierDesign.LB_PP, Scale.TINY,
                          flush_mode=FlushMode.CLFLUSH)
    assert spec_key(clwb) != spec_key(clflush)
