"""Tests for the figure-build planner: source-keyed invalidation, delta
planning, and budget/resume."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness.cache import ResultCache, spec_key
from repro.harness.executor import RunSpec, run_specs
from repro.harness.experiments import (
    build_plan,
    figure_plan_specs,
    plan_summary,
)
from repro.harness.runner import Scale
from repro.sim.config import BarrierDesign, PersistencyModel


def _mini_universe():
    """An NP, a BEP and a BSP spec, all short enough to execute in
    tests."""
    np_spec = RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                          model=PersistencyModel.NP, mem_ops=300)
    bep_spec = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                           transactions=6)
    bsp_spec = RunSpec.bsp("radix", BarrierDesign.LB, Scale.TINY,
                           epoch_stores=30, mem_ops=300)
    return np_spec, bep_spec, bsp_spec


def _pending(plan):
    return [entry.spec for entry in plan if not entry.cached]


# ----------------------------------------------------------------------
# Cache keys follow the source
# ----------------------------------------------------------------------
_TINY_KEYS = (
    "import json\n"
    "from repro.harness.cache import spec_key\n"
    "from repro.harness.experiments import figure_plan_specs\n"
    "from repro.harness.runner import Scale\n"
    "specs = [s for f in figure_plan_specs(Scale.TINY).values() for s in f]\n"
    "print(json.dumps([spec_key(s) for s in dict.fromkeys(specs)]))\n"
)


def _tiny_keys_from(src_dir: Path):
    """Every tiny figure spec's key, computed by a fresh interpreter
    that imports ``repro`` from ``src_dir``."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = subprocess.run(
        [sys.executable, "-c", _TINY_KEYS], cwd=src_dir,
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


def test_one_byte_source_edit_changes_every_key(tmp_path):
    specs = [s for f in figure_plan_specs(Scale.TINY).values() for s in f]
    local = [spec_key(s) for s in dict.fromkeys(specs)]
    copy = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).resolve().parent, copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # The digest covers relative paths and bytes, not where the tree
    # lives: an unedited copy keys identically in another process.
    assert _tiny_keys_from(copy) == local
    target = copy / "repro" / "sim" / "stats.py"
    target.write_bytes(target.read_bytes() + b"#")
    edited = _tiny_keys_from(copy)
    assert len(edited) == len(local)
    assert not set(edited) & set(local)


def test_workload_args_reach_key_but_absence_is_canonical():
    plain = RunSpec.bep("pingpong", BarrierDesign.LB, Scale.TINY)
    tuned = RunSpec.bep("pingpong", BarrierDesign.LB, Scale.TINY,
                        workload_args={"conflict_rate": 0.5})
    assert "workload_args" not in plain.workload_params()
    assert spec_key(plain) != spec_key(tuned)
    with pytest.raises(ValueError):
        RunSpec(kind="bsp", workload="radix", design=BarrierDesign.LB,
                scale=Scale.TINY, workload_args=(("x", 1),))


# ----------------------------------------------------------------------
# Delta planning
# ----------------------------------------------------------------------
def test_build_plan_tags_shared_specs_with_all_consumers(tmp_path):
    np_spec, bep_spec, _ = _mini_universe()
    cache = ResultCache(tmp_path)
    plan = build_plan(
        {"figA": [np_spec, bep_spec], "figB": [np_spec]}, cache
    )
    assert [entry.spec for entry in plan] == [np_spec, bep_spec]
    assert [entry.figures for entry in plan] == [("figA", "figB"),
                                                 ("figA",)]


def test_refresh_plans_everything_pending(tmp_path):
    specs = list(_mini_universe())[:1]
    cache = ResultCache(tmp_path)
    run_specs(specs, jobs=1, cache=cache)
    assert not _pending(build_plan({"t": specs}, cache))
    assert len(_pending(build_plan({"t": specs}, cache, refresh=True))) == 1


def test_plan_summary_counts(tmp_path):
    specs = list(_mini_universe())
    cache = ResultCache(tmp_path)
    run_specs(specs[:1], jobs=1, cache=cache)
    line = plan_summary(build_plan({"t": specs}, cache))
    assert "1 cached" in line and "2 to run" in line
    run_specs(specs, jobs=1, cache=cache)
    line = plan_summary(build_plan({"t": specs}, cache))
    assert "0 to run" in line and "nothing to do" in line


# ----------------------------------------------------------------------
# Budget + resume
# ----------------------------------------------------------------------
def test_budget_zero_plans_everything_runs_nothing(tmp_path):
    specs = list(_mini_universe())
    cache = ResultCache(tmp_path)
    assert _pending(build_plan({"t": specs}, cache)) == specs
    done = run_specs(specs, jobs=1, cache=cache, deadline=time.monotonic())
    assert done == [None] * len(specs)
    assert len(cache) == 0


def test_interrupted_run_resumes_without_recompute(tmp_path):
    specs = list(_mini_universe())
    cache = ResultCache(tmp_path)
    # Complete part of the plan (as a budget cut mid-sweep would).
    run_specs(specs[:2], jobs=1, cache=cache)

    # Resume = re-plan against the cache: completed specs are cached,
    # the remainder (and only the remainder) runs.
    pending = _pending(build_plan({"t": specs}, cache))
    assert pending == specs[2:]
    run_specs(pending, jobs=1, cache=cache, refresh=True)
    assert len(cache) == len(specs)
    assert not _pending(build_plan({"t": specs}, cache))


def test_warm_figures_cli_reports_zero_to_run(tmp_path, capsys):
    from repro.harness.experiments import main as experiments_main
    argv = ["contended", "--scale", "tiny", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert experiments_main(argv) == 0
    cold = capsys.readouterr().out
    assert "18 to run" in cold
    assert experiments_main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 to run" in warm and "nothing to do" in warm
    # Byte-identical figure output on the warm rebuild.
    assert cold.split("Contended", 1)[1] == warm.split("Contended", 1)[1]
