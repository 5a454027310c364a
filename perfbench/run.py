"""The repository benchmark: host throughput of the simulator plus the
paper's simulated metrics, and a host-time table per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hotset --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` names the workloads and metrics.  With ``--trace 0``
the last line of standard output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
and a table of host self time per layer is printed before it.

Each invocation starts two fresh processes (``worker.py``): one measures
the workload on the fast engine for ``--seconds``, then one runs it once
on the reference engine (``REPRO_SLOW_ENGINE=1``).  Every fast run must
finish, pass ``Multicore.audit()`` and match the reference digest; any
run that does not counts as failed, and the benchmark exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Upper bound on one worker process; the benchmark as a whole must end
# within 180 s.
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, env=None):
    """Run ``worker.py`` to completion and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0", **(env or {}))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_layer_table(metrics):
    layers = [name[:-len(".host_s")] for name in metrics
              if name.endswith(".host_s")]
    print(f"{'layer':<10} {'host_s':>9} {'share':>7}")
    for layer in layers:
        print(f"{layer:<10} {metrics[layer + '.host_s']:9.3f} "
              f"{metrics[layer + '.host_share']:7.1%}")
    print(f"traced wall {metrics['trace.wall_s']:.3f} s, "
          f"{metrics['trace.overhead']:.2f}x the untraced set-up plus run")


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} lacks BENCHMARK.json or src/repro",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        measured = run_worker(["measure", args.workload, args.seed,
                               args.seconds, args.trace])
        ref = run_worker(["reference", args.workload, args.seed],
                         {"REPRO_SLOW_ENGINE": "1"})
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = measured["errors"] + ref["errors"]
    expected = ref["digests"][0]
    bad_fast = sum(d is None or d != expected for d in measured["digests"])
    if bad_fast:
        errors.append(f"{bad_fast} fast-engine runs failed or differ from "
                      f"the reference digest {expected}")
    attempted = len(measured["digests"]) + 1
    failed = bad_fast + len(ref["errors"])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        declared = spec["per_layer"]
        values = measured["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = dict(measured["end_to_end"],
                      pass_pct=100.0 * (attempted - failed) / attempted)
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        print(f"error: metrics {sorted(values.keys() ^ units.keys())} are "
              "measured or declared but not both", file=sys.stderr)
        return 1
    if args.trace:
        print_layer_table(values)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
