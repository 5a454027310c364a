"""Pins on the benchmark's inputs and results.

``perfbench/`` measures how fast the simulator runs four workloads.  A
speed claim only holds if the simulator still does the same work, so
these tests pin what each workload simulates at seed 1 (its
``state_digest``: stats, cycles and the persisted NVRAM image, and its
fast-forward session counts) and the exact op stream each workload
generates at seed 1 and at the held-out seed 1009.  A change meant to
be a pure speed-up must leave every one of these pins alone.

``ENGINE_EVENTS`` is the one pin a speed-up is expected to move: the
seed-1 fast engine's sequence counter, which perfbench reports as
``engine.events`` (every queued event and every fast-forward virtual
event takes one number; a clock claim takes none).  Pinning it makes a
claimed cut in events a checked count.

Re-pinning after a deliberate model or generator change: run this file,
copy each new value the failing assertion prints into the table below,
and say in the change's notes why the value moved.  Check new digests
with ``python3 perfbench/run.py --workload <name> --seed 1
--seconds 0``, which compares the fast engine with the reference engine.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.sim.digest import state_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore

_WORKLOADS_PY = (Path(__file__).resolve().parent.parent
                 / "perfbench" / "workloads.py")


def _load_perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # The module's frozen dataclass looks its module up in sys.modules
    # while the class is being built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_perfbench_workloads().WORKLOADS

STATE_DIGESTS = {
    "hotset": "f23622bff2cfa9f1540d69042ca289a1f44b1434b140ed71f0e298322b68d2fe",
    "serving": "13f703f608db34a89ee95c772298eda4668642e47d3af1e83bd0e401b3cac31b",
    "pingpong4": "39a637a766c3c83f01dbcd1c10f67b017a5c04d207f13fefd7d284183075aae0",
    "bsp_stream": "101debd1a58142f67ab9ca0e3d79f7204a7e1145c0ecc750728797a4d1e8b728",
}

# Seed-1 fast-forward sessions: (batches, stores drained, fallbacks by
# reason).  Sessions exist only in fast mode, so these are counted on a
# fast engine whatever REPRO_SLOW_ENGINE says; the fallbacks' sum is
# perfbench's processor.ff_fallbacks.
FF_COUNTS = {
    "hotset": (5443, 11626, {"refused": 374}),
    "serving": (443, 2972, {"full_miss": 5685, "refused": 10}),
    "pingpong4": (1569, 8684,
                  {"held": 5708, "full_miss": 39, "refused": 1581}),
    "bsp_stream": (38, 99870, {"refused": 125, "bsp_limit": 10}),
}

# Seed-1 engine._seq on a fast engine (perfbench's engine.events).
ENGINE_EVENTS = {
    "hotset": 47968,
    "serving": 86973,
    "pingpong4": 69973,
    "bsp_stream": 205881,
}

OP_STREAMS = {
    "hotset": {
        1: "94a06af73372bb23d5e55fed9a93d69c9782b397fd7951bee3c00f4fbb3c9945",
        1009: "295b75f1a210165d7cbe9235e0c8a5939f06a600aa2ecf36454e482fc888d348",
    },
    "serving": {
        1: "c0bfdbaf6a4c6c10f3b0d83a615b8d22e7137535a490a4718147dfc4707103b3",
        1009: "3b2b49403363264d9bd50401f96e5747cc783aefb0aa5f6a10001e9d231de816",
    },
    "pingpong4": {
        1: "65010c0039cd9404b4ffae13c00081ae6b125682f964375edbb2bdc6364eadf5",
        1009: "6624501576439963d9b7eecadcc30e5cfde4775c2032a2bcad957eb1c99c545f",
    },
    "bsp_stream": {
        1: "cd7283ad366561f840d9d513c09966121bfa58e419e015b2e628904380c6da9b",
        1009: "9fc31d82483827909aa9620296481cab750a125a819cca6afde97496b5e41115",
    },
}


def test_every_workload_is_pinned():
    for pins in (STATE_DIGESTS, FF_COUNTS, ENGINE_EVENTS, OP_STREAMS):
        assert sorted(pins) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_seed_one_state_digest(name):
    workload = WORKLOADS[name]
    config = workload.config()
    machine = Multicore(config)
    result = machine.run(workload.programs(1, config.line_size))
    assert state_digest(machine, result) == STATE_DIGESTS[name]


@functools.lru_cache(maxsize=None)
def _fast_seed_one_run(name):
    """(ff counts as FF_COUNTS holds them, engine._seq) of one seed-1
    run on a fast engine, whatever REPRO_SLOW_ENGINE says."""
    workload = WORKLOADS[name]
    config = workload.config()
    with reference_mode(False):
        machine = Multicore(config)
    machine.run(workload.programs(1, config.line_size))
    reasons = {}
    for core in machine.cores:
        for reason, count in core.ff_fallback_reasons.items():
            if count:
                reasons[reason] = reasons.get(reason, 0) + count
    counts = (sum(c.ff_batches for c in machine.cores),
              sum(c.ff_stores for c in machine.cores), reasons)
    return counts, machine.engine._seq


@pytest.mark.parametrize("name", sorted(FF_COUNTS))
def test_seed_one_ff_counts(name):
    assert _fast_seed_one_run(name)[0] == FF_COUNTS[name]


@pytest.mark.parametrize("name", sorted(ENGINE_EVENTS))
def test_seed_one_engine_events(name):
    assert _fast_seed_one_run(name)[1] == ENGINE_EVENTS[name]


def _stream_digest(streams) -> str:
    h = hashlib.sha256()
    for core, ops in enumerate(streams):
        for op in ops:
            h.update(f"{core} {op.kind.value} {op.addr} {op.size} "
                     f"{op.value!r} {op.cycles}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in sorted(OP_STREAMS)
    for seed in sorted(OP_STREAMS[name])
])
def test_op_stream(name, seed):
    workload = WORKLOADS[name]
    streams = workload.programs(seed, workload.config().line_size)
    assert _stream_digest(streams) == OP_STREAMS[name][seed]
