"""Per-layer accounting: host self time folded by module, and exact
simulated counters read from a finished machine.

A layer is a fixed group of ``src/repro`` modules.  Every module of the
package must be listed in :data:`MODULE_LAYERS` (a directory entry
covers the whole directory); a profiled function in an unlisted module
is an error, so a new module has to be placed in a layer before the
benchmark runs again.  Functions outside the package -- builtins and
the standard library -- are charged to the layers that called them;
the benchmark's own code counts as ``harness``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import repro

LAYERS = ("workloads", "engine", "processor", "system", "cache", "epoch",
          "flush", "nvram", "bsp", "harness")

# Paths relative to src/repro; a trailing "/" covers a directory.
MODULE_LAYERS: Dict[str, str] = {
    "workloads/": "workloads",
    "sim/engine.py": "engine",
    "cpu/__init__.py": "processor",
    "cpu/processor.py": "processor",
    "system.py": "system",
    "mem/__init__.py": "cache",
    "mem/cache.py": "cache",
    "mem/coherence.py": "cache",
    "mem/address.py": "cache",
    "mem/interconnect.py": "cache",
    "core/epoch.py": "epoch",
    "core/idt.py": "epoch",
    "core/flush.py": "flush",
    "core/arbiter.py": "flush",
    "mem/nvram.py": "nvram",
    "core/undo_log.py": "bsp",
    "core/checkpoint.py": "bsp",
    "__init__.py": "harness",
    "__main__.py": "harness",
    "core/__init__.py": "harness",
    "harness/": "harness",
    "recovery/": "harness",
    "sim/__init__.py": "harness",
    "sim/config.py": "harness",
    "sim/digest.py": "harness",
    "sim/faults.py": "harness",
    "sim/stats.py": "harness",
    "sim/trace.py": "harness",
}

_PACKAGE_DIR = str(Path(repro.__file__).resolve().parent) + "/"
_OWN_DIR = str(Path(__file__).resolve().parent) + "/"


class UnmappedModule(LookupError):
    """A module of the simulator package has no layer."""


def module_layer(relpath: str) -> Optional[str]:
    """The layer of a module given by its path relative to src/repro."""
    layer = MODULE_LAYERS.get(relpath)
    if layer is None:
        top = relpath.split("/", 1)[0] + "/"
        layer = MODULE_LAYERS.get(top) if "/" in relpath else None
    return layer


def _own_layer(filename: str) -> Optional[str]:
    """The layer a function's self time belongs to, or None when it is
    charged to its callers instead."""
    if filename.startswith(_PACKAGE_DIR):
        relpath = filename[len(_PACKAGE_DIR):]
        layer = module_layer(relpath)
        if layer is None:
            raise UnmappedModule(f"src/repro/{relpath} has no layer")
        return layer
    if filename.startswith(_OWN_DIR):
        return "harness"
    return None


def fold_profile(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Fold a ``cProfile.Profile.stats`` table into self seconds per layer.

    Each entry maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to ``(nc, cc, tt,
    ct)`` for the calls it made.  A function outside the package splits
    its self time across its callers in proportion to the self time it
    spent under each, recursively, until a caller with a layer is found.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def layer_shares(func: tuple, active: set) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = _own_layer(func[0])
        if layer is not None:
            return shares.setdefault(func, {layer: 1.0})
        callers = {c: v[2] for c, v in stats[func][4].items()
                   if c != func and c in stats}
        if not callers or func in active:
            # A root, or a cycle among non-package functions.
            return {"harness": 1.0}
        total = sum(callers.values())
        active.add(func)
        out: Dict[str, float] = {}
        for caller, tt in callers.items():
            weight = tt / total if total > 0 else 1.0 / len(callers)
            for layer, share in layer_shares(caller, active).items():
                out[layer] = out.get(layer, 0.0) + weight * share
        active.discard(func)
        shares[func] = out
        return out

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in layer_shares(func, set()).items():
            seconds[layer] += tt * share
    return seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(machine, result) -> Dict[str, float]:
    """Exact simulated counters of one finished run, keyed by
    ``<layer>.<counter>``.  Host-time metrics are added by the caller."""
    stats = result.stats
    total = stats.total
    conflicts = stats.domain("conflicts")
    llc = stats.domain("llc")
    flush = stats.domain("flush")
    nvram = stats.domain("nvram")
    cores = [dom for name, dom in stats
             if name.startswith("core") and name[4:].isdigit()]
    l1s = [dom for name, dom in stats if name.startswith("l1.")]
    lat_sum = sum(dom.total("mem_latency") for dom in cores)
    lat_n = sum(dom.count("mem_latency") for dom in cores)
    l1_hits = sum(dom.get("hits") for dom in l1s)
    l1_fills = sum(dom.get("fills") for dom in l1s)
    ff_batches = sum(c.ff_batches for c in machine.cores)
    ff_stores = sum(c.ff_stores for c in machine.cores)
    ff_fallbacks = sum(c.ff_fallbacks for c in machine.cores)
    handshake = machine.handshake_counters()
    return {
        "engine.events": machine.engine._seq,
        "processor.loads": total("loads"),
        "processor.stores": total("stores"),
        "processor.barriers": total("barriers"),
        "processor.wb_full_stalls": total("wb_full_stalls"),
        "processor.epoch_window_stalls": total("epoch_window_stalls"),
        "processor.ff_batches": ff_batches,
        "processor.ff_stores": ff_stores,
        "processor.ff_fallbacks": ff_fallbacks,
        "processor.ff_store_share": _ratio(ff_stores, total("stores")),
        "processor.ff_accept_ratio": _ratio(ff_batches,
                                            ff_batches + ff_fallbacks),
        "system.mem_latency_mean_cycles": _ratio(lat_sum, lat_n),
        "cache.l1_hits": l1_hits,
        "cache.l1_fills": l1_fills,
        "cache.l1_hit_ratio": _ratio(l1_hits, l1_hits + l1_fills),
        "cache.llc_hits": llc.get("hits"),
        "cache.llc_misses": llc.get("misses"),
        "cache.llc_forwards": llc.get("forwards"),
        "epoch.epochs": total("epochs"),
        "epoch.splits": total("epoch_splits"),
        "epoch.conflict_flushed": total("epochs_conflict_flushed"),
        "epoch.conflict_epoch_pct": result.conflict_epoch_pct,
        "epoch.inter_thread": conflicts.get("inter_thread"),
        "epoch.intra_thread": conflicts.get("intra_thread"),
        "epoch.idt_edges": stats.domain("idt").get("idt_edges"),
        "epoch.online_stall_cycles": conflicts.total("online_stall_cycles"),
        "flush.epoch_flushes": flush.get("epoch_flushes"),
        "flush.lines_per_flush": flush.mean("flush_epoch_lines"),
        "flush.online": total("flushes_online"),
        "flush.offline": total("flushes_offline"),
        "flush.blocked_on_source": total("flush_blocked_on_source"),
        "flush.msgs_total": handshake["total_msgs"],
        "flush.msgs_per_flush": handshake["mean_flush_msgs"],
        "nvram.reads": nvram.get("reads"),
        "nvram.writes": nvram.get("writes"),
        "nvram.queue_wait_mean_cycles": nvram.mean("queue_wait"),
        "bsp.log_writes": total("log_writes"),
        "bsp.checkpoints": total("checkpoints"),
        "bsp.hw_barriers": total("hw_barriers"),
        "bsp.nvram_log_writes": nvram.get("writes_log"),
    }


def host_metrics(seconds: Dict[str, float]) -> Dict[str, float]:
    """``<layer>.host_s`` and ``<layer>.host_share`` for every layer."""
    whole = sum(seconds.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.host_s"] = seconds[layer]
        out[f"{layer}.host_share"] = _ratio(seconds[layer], whole)
    return out
