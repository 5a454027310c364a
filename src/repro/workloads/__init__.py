"""Workloads: programs the simulated cores execute.

* :mod:`repro.workloads.base`  -- the memory-operation model (loads,
  stores, persist barriers, compute delays, transaction markers) and
  program-building helpers.
* :mod:`repro.workloads.heap`  -- a persistent-heap allocator laying out
  data structures in the NVRAM address space.
* :mod:`repro.workloads.micro` -- the five persistent-data-structure
  microbenchmarks of Table 2 (hash, queue, rbtree, sdg, sps).
* :mod:`repro.workloads.apps`  -- synthetic stand-ins for the PARSEC /
  SPLASH-2 / STAMP workloads used for the BSP evaluation.
"""

from repro.workloads.base import (
    Op,
    OpKind,
    Program,
    barrier,
    compute,
    load,
    store,
    txn_mark,
)

__all__ = [
    "Op",
    "OpKind",
    "Program",
    "barrier",
    "compute",
    "load",
    "store",
    "txn_mark",
]
