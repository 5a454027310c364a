"""Tests for address mapping and the 2D-mesh latency model."""

import pytest

from repro.mem.address import AddressMap
from repro.mem.interconnect import Mesh
from repro.sim.config import MachineConfig


def test_bank_interleaving_is_line_granular():
    config = MachineConfig.paper()
    amap = AddressMap(config)
    banks = [amap.bank_of(i * 64) for i in range(config.llc_banks * 2)]
    assert banks[: config.llc_banks] == list(range(config.llc_banks))
    assert banks[config.llc_banks:] == list(range(config.llc_banks))


def test_mc_interleaving_covers_all_controllers():
    config = MachineConfig.paper()
    amap = AddressMap(config)
    mcs = {amap.mc_of(i * 64) for i in range(64)}
    assert mcs == set(range(config.num_memory_controllers))


def test_same_line_same_bank_and_mc():
    config = MachineConfig.small()
    amap = AddressMap(config)
    line = amap.line_of(0xDEADBEEF)
    assert amap.bank_of(line) == amap.bank_of(line)
    assert amap.line_of(line + 63) == line


def test_region_classification():
    config = MachineConfig.paper()
    amap = AddressMap(config)
    assert amap.is_log_address(config.log_region_base)
    assert not amap.is_log_address(config.log_region_base - 64)
    assert amap.is_checkpoint_address(config.checkpoint_region_base)
    assert not amap.is_checkpoint_address(config.log_region_base)


def test_mesh_latency_zero_hops_is_router_only():
    config = MachineConfig.paper()
    mesh = Mesh(config)
    assert mesh.latency(0, 0) == config.router_latency


def test_mesh_latency_symmetric_and_manhattan():
    config = MachineConfig.paper()
    mesh = Mesh(config)
    # 4 rows x 8 cols; tiles 0 and 9 are 1 row + 1 col apart.
    expected = 2 * config.hop_latency + 3 * config.router_latency
    assert mesh.latency(0, 9) == expected
    assert mesh.latency(9, 0) == expected


def test_mesh_corner_mcs_distinct():
    config = MachineConfig.paper()
    mesh = Mesh(config)
    tiles = {mesh.tile_of_mc(i) for i in range(4)}
    assert len(tiles) == 4


def test_broadcast_reaches_farthest_bank():
    config = MachineConfig.paper()
    mesh = Mesh(config)
    bcast = mesh.broadcast_from_core(0)
    assert bcast == max(
        mesh.core_to_bank(0, b) for b in range(config.llc_banks)
    )


def test_core_to_core_consistency():
    config = MachineConfig.small()
    mesh = Mesh(config)
    for a in range(config.num_cores):
        for b in range(config.num_cores):
            assert mesh.core_to_core(a, b) == mesh.core_to_core(b, a)
            if a == b:
                assert mesh.core_to_core(a, b) == config.router_latency


def test_tiny_single_row_mesh():
    config = MachineConfig.tiny()
    mesh = Mesh(config)
    assert mesh.rows == 1
    assert mesh.latency(0, 1) == config.hop_latency + 2 * config.router_latency


def test_lazy_rows_build_once_and_reject_out_of_range():
    config = MachineConfig.paper()
    mesh = Mesh(config)
    table = mesh.c2b
    assert len(table) == config.num_cores
    row = table[3]
    assert row == tuple(mesh.latency(mesh.tile_of_core(3),
                                     mesh.tile_of_bank(b))
                        for b in range(config.llc_banks))
    assert table[3] is row                 # built once, then cached
    for bad in (-1, config.num_cores):
        with pytest.raises(IndexError):
            table[bad]
    rows = list(table)                     # iteration builds every row
    assert len(rows) == config.num_cores and rows[3] is row
