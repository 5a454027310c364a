"""Discrete-event simulation kernel.

This package provides the substrate every other subsystem is built on:

* :mod:`repro.sim.engine` -- a deterministic event queue with a cycle
  clock, the spine of the whole simulator.
* :mod:`repro.sim.config` -- configuration dataclasses mirroring Table 1
  of the paper, plus scaled-down variants for laptop runs.
* :mod:`repro.sim.stats` -- counters, histograms and derived-metric
  helpers used by every component to report results.
"""

from repro.sim.config import (
    BarrierDesign,
    FlushMode,
    MachineConfig,
    PersistencyModel,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatDomain, Stats

__all__ = [
    "BarrierDesign",
    "Engine",
    "FlushMode",
    "MachineConfig",
    "PersistencyModel",
    "StatDomain",
    "Stats",
]
