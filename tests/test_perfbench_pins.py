"""Pins on the benchmark's inputs and results.

``perfbench/`` measures how fast the simulator runs four workloads.  A
speed claim only holds if the simulator still does the same work, so
these tests pin what each workload simulates at seed 1 (its
``state_digest``: stats, cycles and the persisted NVRAM image) and the
exact op stream ``hotset`` generates at seed 1 and at the held-out seed
1009.  A change meant to be a pure speed-up must leave every pin alone.

Re-pinning after a deliberate model or generator change: run this file,
copy each new value the failing assertion prints into the table below,
and say in the change's notes why the digest moved.  Check the new
digests with ``python3 perfbench/run.py --workload <name> --seed 1
--seconds 0``, which compares the fast engine with the reference engine.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.sim.digest import state_digest
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
    "pingpong4": "17f28831db0af3cb2f1da215aaae562048730f64164c551512207e52d3a18e25",
    "bsp_stream": "101debd1a58142f67ab9ca0e3d79f7204a7e1145c0ecc750728797a4d1e8b728",
}

HOTSET_STREAMS = {
    1: "94a06af73372bb23d5e55fed9a93d69c9782b397fd7951bee3c00f4fbb3c9945",
    1009: "295b75f1a210165d7cbe9235e0c8a5939f06a600aa2ecf36454e482fc888d348",
}


def test_every_workload_is_pinned():
    assert sorted(STATE_DIGESTS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_seed_one_state_digest(name):
    workload = WORKLOADS[name]
    config = workload.config()
    machine = Multicore(config)
    result = machine.run(workload.programs(1, config.line_size))
    assert state_digest(machine, result) == STATE_DIGESTS[name]


def _stream_digest(streams) -> str:
    h = hashlib.sha256()
    for core, ops in enumerate(streams):
        for op in ops:
            h.update(f"{core} {op.kind.value} {op.addr} {op.size} "
                     f"{op.value!r} {op.cycles}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(HOTSET_STREAMS))
def test_hotset_op_stream(seed):
    workload = WORKLOADS["hotset"]
    streams = workload.programs(seed, workload.config().line_size)
    assert _stream_digest(streams) == HOTSET_STREAMS[seed]
