"""One benchmark process: measure a workload, or run it once on the
reference engine.

Run by ``run.py``, one fresh process per role, so that each workload's
peak resident memory is its own::

    python3 perfbench/worker.py measure <workload> <seed> <seconds> <trace>
    REPRO_SLOW_ENGINE=1 python3 perfbench/worker.py reference <workload> <seed>

The last line of standard output is a JSON report.  Every simulation run
is checked outside its timed region: it must finish and drain, pass
``Multicore.audit()``, and yield a determinism digest, which ``run.py``
compares against the reference engine's.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.digest import state_digest  # noqa: E402
from repro.system import Multicore  # noqa: E402

from calibrate import REFERENCE_S, calibration_s  # noqa: E402
from layers import fold_profile, host_metrics, layer_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed runs taken even when they overrun the requested seconds, so
# every median rests on at least this many samples.
MIN_SAMPLES = 5

# The per-layer self times must add up to the traced wall time within
# this share.  The fold itself conserves time, so this bounds the wall
# time the profiler attributes to no function at all.
TRACE_SUM_TOLERANCE = 0.05


def run_once(workload, seed):
    """Set up and run one machine; returns (timings, machine, result)."""
    t0 = time.perf_counter()
    config = workload.config()
    programs = workload.programs(seed, config.line_size)
    t1 = time.perf_counter()
    machine = Multicore(config)
    t2 = time.perf_counter()
    result = machine.run(programs)
    t3 = time.perf_counter()
    return (t1 - t0, t2 - t0, t3 - t2), machine, result


def check(machine, result):
    """The run's digest, or the reason it failed its checks."""
    if not result.finished or result.cycles_durable is None:
        return None, "run did not finish and drain"
    try:
        machine.audit()
    except AssertionError as exc:
        return None, f"audit: {exc}"
    return state_digest(machine, result), None


def traced_run(workload, seed):
    """Host self seconds per layer over one set-up plus run."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run_once(workload, seed)
    profiler.disable()
    wall = time.perf_counter() - start
    profiler.create_stats()
    seconds = fold_profile(profiler.stats)
    accounted = sum(seconds.values())
    if abs(accounted - wall) > TRACE_SUM_TOLERANCE * wall:
        raise RuntimeError(
            f"layer self times sum to {accounted:.3f} s, traced wall "
            f"time is {wall:.3f} s"
        )
    return wall, seconds


def measure(workload, seed, seconds, trace):
    digests, errors = [], []

    def checked(machine, result):
        digest, error = check(machine, result)
        digests.append(digest)
        if error:
            errors.append(error)

    # Untimed warm-up runs of the workload and of the calibration kernel:
    # imports, allocator and caches settle, and the workload run's exact
    # counters are the ones reported.
    _timings, machine, result = run_once(workload, seed)
    checked(machine, result)
    counts = layer_counts(machine, result)
    throughput = result.throughput
    total = result.stats.total
    ops = total("loads") + total("stores") + total("barriers")
    del machine, result
    calibration_s()

    # Each timed run is paired with a calibration run right after it;
    # host times are scaled by REFERENCE_S / calibration before the
    # median (see calibrate.py).
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        gc.collect()
        (gen_s, setup_s, run_s), machine, result = run_once(workload, seed)
        checked(machine, result)
        del machine, result
        gc.collect()
        samples.append((gen_s, setup_s, run_s, calibration_s()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gen_s = median(s[0] for s in samples)
    setup_s = median(s[1] for s in samples)
    run_s = median(s[2] for s in samples)
    report = {
        "digests": digests,
        "errors": errors,
        "end_to_end": {
            "sim_ops_per_s": median(
                ops / s[2] * s[3] / REFERENCE_S for s in samples),
            "setup_s": median(s[1] * REFERENCE_S / s[3] for s in samples),
            "peak_rss_mb": peak_rss_mb,
            "sim_txn_per_kcycle": throughput,
        },
    }
    if trace:
        gc.collect()
        wall, layer_s = traced_run(workload, seed)
        report["per_layer"] = {
            **host_metrics(layer_s),
            **counts,
            "workloads.gen_s": gen_s,
            "workloads.ops": sum(
                sum(1 for _ in stream) for stream in workload.programs(
                    seed, workload.config().line_size)
            ),
            "engine.host_ns_per_event": 1e9 * run_s / counts["engine.events"],
            "harness.calibration_s": median(s[3] for s in samples),
            "trace.wall_s": wall,
            "trace.overhead": wall / (setup_s + run_s),
        }
    return report


def reference(workload, seed):
    _timings, machine, result = run_once(workload, seed)
    if machine.engine.fast:
        raise RuntimeError("reference role needs REPRO_SLOW_ENGINE=1")
    digest, error = check(machine, result)
    return {"digests": [digest], "errors": [error] if error else []}


def main(argv):
    role, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if role == "measure":
        report = measure(workload, seed, float(argv[3]), argv[4] == "1")
    else:
        report = reference(workload, seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
