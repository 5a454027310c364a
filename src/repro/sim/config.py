"""Machine configuration (Table 1 of the paper) and experiment knobs.

The paper's evaluation machine (Table 1)::

    Cores                 32 OoO cores @ 2GHz
    ROB Size              192 Entry
    Write Buffer          32 Entry
    L1 I/D Cache          32KB 64B lines, 4-way
    L1 Access Latency     3 cycles
    L2 Cache              1MB x 32 tiles, 64B lines, 16-way
    L2 Access Latency     30 cycles
    Memory Controllers    4
    NVRAM Access Latency  360 (240) cycles write (read)
    On-chip network       2D Mesh, 4 rows, 16B flits

:meth:`MachineConfig.paper` reproduces this configuration exactly.
:meth:`MachineConfig.small` is a scaled-down machine (8 cores, smaller
caches) used as the default for tests and benchmarks so the whole suite
runs on a laptop; every result the paper reports is a *normalized* ratio,
which is stable under this scaling (see DESIGN.md section 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class BarrierDesign(enum.Enum):
    """The persist-barrier designs evaluated in the paper.

    * ``LB``      -- the lazy barrier of Condit et al. (state of the art).
    * ``LB_IDT``  -- LB + inter-thread dependence tracking (section 3.1).
    * ``LB_PF``   -- LB + proactive flushing (section 3.2).
    * ``LB_PP``   -- LB++ = LB + IDT + PF (the paper's contribution).
    """

    LB = "LB"
    LB_IDT = "LB+IDT"
    LB_PF = "LB+PF"
    LB_PP = "LB++"

    @property
    def uses_idt(self) -> bool:
        return self in (BarrierDesign.LB_IDT, BarrierDesign.LB_PP)

    @property
    def uses_pf(self) -> bool:
        return self in (BarrierDesign.LB_PF, BarrierDesign.LB_PP)


class PersistencyModel(enum.Enum):
    """Persistency models from Pelley et al. enforced by the barrier.

    * ``NP``  -- no persistency guarantees; the baseline of section 7.2.
    * ``SP``  -- strict persistency: each store persists before the next
      becomes visible (write-through behaviour, Figure 1a).
    * ``EP``  -- epoch persistency: the core stalls at each barrier until
      the previous epoch has persisted (Figure 1b).
    * ``BEP`` -- buffered epoch persistency: execution continues across
      barriers; the cache subsystem orders epoch persists (Figure 1c).
    * ``BSP`` -- buffered strict persistency in bulk mode: hardware groups
      stores into epochs, checkpoints register state, and undo-logs for
      epoch atomicity (section 5.2).
    * ``BSP_WT`` -- the naive write-through implementation of BSP that the
      paper measures at ~8x NP and discards (section 7.2).
    """

    NP = "NP"
    SP = "SP"
    EP = "EP"
    BEP = "BEP"
    BSP = "BSP"
    BSP_WT = "BSP-WT"

    @property
    def buffered(self) -> bool:
        return self in (PersistencyModel.BEP, PersistencyModel.BSP)

    @property
    def hardware_epochs(self) -> bool:
        """True when hardware, not the programmer, inserts barriers."""
        return self in (PersistencyModel.BSP, PersistencyModel.BSP_WT)


class FlushMode(enum.Enum):
    """Whether a persist-flush invalidates the cached copy.

    ``CLWB`` (non-invalidating, what LB++ uses) keeps the line cached and
    merely cleans it; ``CLFLUSH`` evicts it, destroying locality.  The
    paper measures CLWB as ~30% faster (section 7).
    """

    CLWB = "clwb"
    CLFLUSH = "clflush"


@dataclass(frozen=True)
class MachineConfig:
    """Full description of the simulated multicore (Table 1)."""

    # Cores
    num_cores: int = 32
    write_buffer_entries: int = 32
    issue_width_cycles: int = 1  # cycles consumed issuing one memory op

    # Caches
    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_assoc: int = 4
    l1_latency: int = 3
    llc_bank_size: int = 1024 * 1024
    llc_assoc: int = 16
    llc_latency: int = 30
    # One LLC bank per core tile, as in the paper's tiled design.
    llc_banks: int = 32

    # Memory
    num_memory_controllers: int = 4
    nvram_read_latency: int = 240
    nvram_write_latency: int = 360
    # Minimum cycles between successive line writes retired by one MC
    # (bandwidth model; the latency above is pipelined behind this).
    mc_write_occupancy: int = 24
    mc_read_occupancy: int = 12

    # On-chip network: 2D mesh, `mesh_rows` rows as in Table 1.
    mesh_rows: int = 4
    hop_latency: int = 2
    router_latency: int = 1

    # Persistence machinery (section 4.3)
    max_inflight_epochs: int = 8  # 3-bit epoch IDs
    idt_registers_per_epoch: int = 4
    # Ablation knob: pretend the Figure 8 arbiter handshake is free
    # (zero-latency FlushEpoch/BankAck/PersistCMP messages) to isolate
    # the coordination cost of the multi-banked flush protocol.
    ideal_flush_coordination: bool = False
    flush_mode: FlushMode = FlushMode.CLWB
    barrier_design: BarrierDesign = BarrierDesign.LB_PP
    persistency: PersistencyModel = PersistencyModel.BEP

    # BSP bulk mode (section 5.2)
    bsp_epoch_stores: int = 10_000
    # Registers checkpointed per epoch: GPRs + special + privilege + FP
    # (non-AVX) comes to ~13 cache lines.
    checkpoint_bytes: int = 832
    undo_logging: bool = True

    # Address-space layout
    mem_size: int = 1 << 32
    log_region_base: int = 0xF000_0000
    checkpoint_region_base: int = 0xF800_0000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")
        if self.llc_banks < 1 or self.num_memory_controllers < 1:
            raise ValueError("need at least one LLC bank and one MC")
        if self.mesh_rows < 1:
            raise ValueError("mesh needs at least one row")
        if self.max_inflight_epochs < 2:
            raise ValueError("need at least two in-flight epochs")

    # ------------------------------------------------------------------
    # Stock configurations
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "MachineConfig":
        """The exact Table 1 machine."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "MachineConfig":
        """A laptop-scale machine: 8 cores, proportionally sized LLC.

        Cache capacities are scaled so that working-set pressure (and
        therefore natural eviction rates, the engine behind LB's offline
        persists) remains comparable to the paper machine per core.
        """
        defaults = dict(
            num_cores=8,
            llc_banks=8,
            l1_size=16 * 1024,
            llc_bank_size=256 * 1024,
            num_memory_controllers=2,
            mesh_rows=2,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, **overrides) -> "MachineConfig":
        """A 2-core machine for fast unit tests."""
        defaults = dict(
            num_cores=2,
            llc_banks=2,
            l1_size=4 * 1024,
            llc_bank_size=32 * 1024,
            num_memory_controllers=1,
            mesh_rows=1,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.line_size * self.l1_assoc)

    @property
    def llc_bank_sets(self) -> int:
        return self.llc_bank_size // (self.line_size * self.llc_assoc)

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    def line_of(self, addr: int) -> int:
        """Cache-line address (aligned) containing byte address ``addr``."""
        return addr & ~(self.line_size - 1)

    def lines_in(self, addr: int, size: int) -> list[int]:
        """All line addresses touched by an access of ``size`` bytes."""
        first = self.line_of(addr)
        last = self.line_of(addr + size - 1)
        return list(range(first, last + 1, self.line_size))
