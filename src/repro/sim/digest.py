"""Determinism digest: a stable fingerprint of one finished run.

The engine's fast paths (same-cycle ready queue, inline completion) must
be *observationally identical* to the pure-heap reference mode selected
by ``REPRO_SLOW_ENGINE=1``: same cycle counts, same stats, same NVRAM
image, same persist order.  :func:`state_digest` reduces a finished run
to one SHA-256 hex string over a canonical JSON encoding of exactly that
observable state, so "the fast path changed nothing" becomes a single
string comparison -- asserted per persistency model by the determinism
tests and on every ``perfbench`` run.

Everything hashed is deterministic simulated state; nothing about host
timing, object identity, or dict insertion order can leak in (keys are
sorted, values canonicalised via ``repr``).
"""

from __future__ import annotations

import hashlib
import json
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import MachineConfig
    from repro.system import Multicore, RunResult


def run_digest(config: "MachineConfig", programs: List[list]) -> str:
    """Digest of one fresh run of ``programs`` on ``config``.

    Convenience wrapper used by the digest matrices: builds a machine
    with value and persist-order tracking enabled (so the digest covers
    the full NVRAM image, not just the counters), runs it to
    completion, and fingerprints the outcome.  Engine mode is whatever
    ``REPRO_SLOW_ENGINE`` says at call time.
    """
    from repro.system import Multicore  # runtime import: cycle guard

    machine = Multicore(config, track_values=True, track_persist_order=True)
    result = machine.run(programs)
    return state_digest(machine, result)


def state_digest(machine: "Multicore", result: "RunResult") -> str:
    """SHA-256 digest of a run's observable outcome.

    Covers the final flattened stats, the visible/durable cycle counts,
    and the NVRAM image: per-line last-persist records (index, time,
    producing epoch, kind), persisted value tokens, and the global
    persist count.  Two runs with the same digest made the same writes
    durable in the same order at the same cycles and counted the same
    events along the way.
    """
    image = machine.image
    payload = {
        "cycles_visible": result.cycles_visible,
        "cycles_durable": result.cycles_durable,
        "finished": result.finished,
        "stats": dict(sorted(result.stats.flatten().items())),
        "persist_count": image.persist_count,
        "last_persist": {
            str(line): [rec.index, rec.time, rec.core_id,
                        rec.epoch_seq, rec.kind]
            for line, rec in sorted(image.last_persist.items())
        },
        "values": {
            str(line): {str(off): repr(val)
                        for off, val in sorted(vals.items())}
            for line, vals in sorted(image.values.items())
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
