"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import (  # noqa: E402
    LAYERS,
    MODULE_LAYERS,
    fold_profile,
    layer_counts,
    module_layer,
)
from workloads import WORKLOADS  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Per-layer metrics measured on the host; every other one is an exact
# simulated count or ratio.
HOST_METRICS = re.compile(
    r".*\.(host_s|host_share|gen_s|host_ns_per_event|calibration_s)"
    r"|trace\..*")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    report = json.loads(last[0]) if last[0].startswith("{") else None
    return proc.returncode, report


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert METRIC_NAME.fullmatch(name), name


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_module_has_a_layer():
    package = ROOT / "src" / "repro"
    modules = [p.relative_to(package).as_posix()
               for p in package.rglob("*.py")]
    assert not [m for m in modules if module_layer(m) is None]
    # No stale entries: every listed file or directory still exists.
    for path in MODULE_LAYERS:
        assert (ROOT / "src" / "repro" / path).exists(), path
    assert set(MODULE_LAYERS.values()) <= set(LAYERS)


def test_every_layer_reports_host_time():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.host_s", f"{layer}.host_share"} <= declared


def test_fold_charges_outside_functions_to_callers():
    engine = (str(ROOT / "src/repro/sim/engine.py"), 1, "run")
    flush = (str(ROOT / "src/repro/core/flush.py"), 1, "start")
    helper = ("lib/python3/heapq.py", 1, "helper")
    builtin = ("~", 0, "<built-in method len>")
    stats = {
        engine: (1, 1, 1.0, 9.0, {}),
        flush: (1, 1, 2.0, 5.0, {engine: (1, 1, 2.0, 5.0)}),
        helper: (2, 2, 4.0, 6.0, {engine: (1, 1, 1.0, 1.5),
                                  flush: (1, 1, 3.0, 4.5)}),
        builtin: (2, 2, 2.0, 2.0, {helper: (2, 2, 2.0, 2.0)}),
    }
    seconds = fold_profile(stats)
    assert seconds["engine"] == 1.0 + 1.0 + 0.5
    assert seconds["flush"] == 2.0 + 3.0 + 1.5
    # The fold conserves time: every entry's self time lands in some
    # layer, so the layers sum to the profile's total self time.
    assert sum(seconds.values()) == 9.0


def test_traced_run_adds_up_on_every_workload():
    for workload in WORKLOADS.values():
        small = dataclasses.replace(workload, transactions=20)
        wall, seconds = worker.traced_run(small, seed=1)
        assert abs(sum(seconds.values()) - wall) <= 0.05 * wall


def test_layer_counters_tell_the_workloads_apart():
    counts = {}
    for name, workload in WORKLOADS.items():
        small = dataclasses.replace(workload, transactions=200)
        _timings, machine, result = worker.run_once(small, seed=1)
        counts[name] = layer_counts(machine, result)
    bsp = [m for m in counts["bsp_stream"] if m.startswith("bsp.")]
    for name, metrics in counts.items():
        used = [m for m in bsp if metrics[m] > 0]
        assert used == (bsp if name == "bsp_stream" else []), name
    ff_share = {name: c["processor.ff_store_share"]
                for name, c in counts.items()}
    assert max(ff_share, key=ff_share.get) == "bsp_stream", ff_share
    inter = {name: c["epoch.inter_thread"] for name, c in counts.items()}
    assert [name for name, n in inter.items() if n > 0] == ["pingpong4"]


def test_planted_digest_mismatch_fails_the_run(monkeypatch, capsys):
    real_run_worker = run.run_worker

    def planted(args, env=None):
        report = real_run_worker(args, env)
        if args[0] == "reference":
            report["digests"][0] = "planted"
        return report

    monkeypatch.setattr(run, "run_worker", planted)
    code = run.main(["--workload", "pingpong4", "--seed", "1",
                     "--seconds", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert report["correct"] is False
    assert report["failed"] >= 1
    assert report["metrics"]["pass_pct"]["value"] < 100.0


def test_simulated_metrics_repeat_exactly():
    runs = [bench("--workload", "pingpong4", "--seed", 7, "--seconds", 0,
                  "--trace", trace)
            for trace in (0, 0, 1, 1)]
    assert all(code == 0 for code, _ in runs)
    exact = [
        {name: m["value"] for name, m in report["metrics"].items()
         if name not in ("sim_ops_per_s", "setup_s", "peak_rss_mb")
         and not HOST_METRICS.fullmatch(name)}
        for _, report in runs
    ]
    assert exact[0] == exact[1] and exact[2] == exact[3]
    assert exact[0] and exact[2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, report = bench("--workload", "hotset", "--seed", 1, "--seconds", 1,
                         cwd=tmp_path)
    assert code != 0 and report is None
