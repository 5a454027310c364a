"""Handshake message accounting and the scaling-sweep plumbing.

The 64-core scale-out work has three seams worth pinning:

* the per-flush message accounting must be exact: a pinned count for a
  hand-built single-line epoch on 8 banks, the quadratic all-to-all
  contrast derived from the arbiter counters, and fast-vs-reference
  parity (the counters are digest-invisible, so the digest alone
  cannot catch a miscount);
* the bench registry: the scaling family's record is exact, a
  restricted run keeps the other families' records, and a failing
  family makes the command exit nonzero;
* the ``--cores`` CLI validation must reject non-powers-of-two with a
  usable message.
"""

import argparse

import pytest

from repro.harness.bench import (
    _multicore_setup,
    handshake_parity,
    parse_cores,
)
from repro.harness.report import all_to_all_counters
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.system import Multicore
from repro.workloads.base import Program


def make_machine(num_cores=1, **overrides):
    config = MachineConfig.tiny(
        num_cores=num_cores,
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
        **overrides,
    )
    return Multicore(config, track_persist_order=True)


# ----------------------------------------------------------------------
# Message accounting
# ----------------------------------------------------------------------
def _single_line_flush():
    """8-core / 8-bank machine; core 0 flushes exactly one line."""
    m = make_machine(num_cores=8, llc_banks=8, mesh_rows=2)
    programs = [Program() for _ in range(8)]
    programs[0].store(0x1000, 8).barrier()
    m.run(programs)
    return m.handshake_counters()


def test_pinned_messages_per_flush_8_cores():
    """The hand-built epoch: one dirty line, eight banks, arbiter
    protocol.  Figure 8 costs exactly: 8 FlushEpoch legs, 8 BankAcks
    (7 degenerate + 1 data-bearing), 1 PersistAck for the line, and 8
    PersistCMP legs -- 25 messages."""
    hs = _single_line_flush()
    assert hs["flushes"] == 1
    assert hs["flush_epoch_msgs"] == 8
    assert hs["bank_ack_msgs"] == 8
    assert hs["persist_ack_msgs"] == 1
    assert hs["persist_cmp_msgs"] == 8
    assert hs["total_msgs"] == 25
    assert hs["last_flush_msgs"] == 25
    assert hs["max_flush_msgs"] == 25
    assert hs["mean_flush_msgs"] == 25.0


def test_all_to_all_accounting_is_quadratic():
    """Same epoch under the strawman protocol, derived from the arbiter
    counters: every one of the 8 acks is announced to all 8 participants
    (n^2 = 64 messages) and there is no PersistCMP broadcast.
    8 + 64 + 1 = 73."""
    n = 8
    hs = all_to_all_counters(_single_line_flush(), banks=n)
    assert hs["flushes"] == 1
    assert hs["flush_epoch_msgs"] == n
    assert hs["bank_ack_msgs"] == n * n
    assert hs["persist_cmp_msgs"] == 0
    assert hs["persist_ack_msgs"] == 1
    assert hs["total_msgs"] == n + n * n + 1 == 73
    assert hs["mean_flush_msgs"] == 73.0
    assert hs["max_flush_msgs"] == 73


# LB++ pingpong handshake counters at 4..64 cores (one bank per core) as
# recorded by the scaling family, and the all-to-all (total, mean, max)
# the separate strawman runs recorded for the same points.
_RECORDED_ARBITER = {
    4: dict(flushes=1011, flush_epoch_msgs=4044, bank_ack_msgs=4044,
            persist_ack_msgs=7692, persist_cmp_msgs=4044,
            idt_notify_msgs=289, total_msgs=20113, mean_flush_msgs=19.61,
            max_flush_msgs=22),
    8: dict(flushes=1006, flush_epoch_msgs=8048, bank_ack_msgs=8048,
            persist_ack_msgs=7704, persist_cmp_msgs=8048,
            idt_notify_msgs=294, total_msgs=32142, mean_flush_msgs=31.66,
            max_flush_msgs=34),
    16: dict(flushes=1018, flush_epoch_msgs=16288, bank_ack_msgs=16288,
             persist_ack_msgs=7728, persist_cmp_msgs=16288,
             idt_notify_msgs=299, total_msgs=56891, mean_flush_msgs=55.59,
             max_flush_msgs=58),
    32: dict(flushes=1016, flush_epoch_msgs=32512, bank_ack_msgs=32512,
             persist_ack_msgs=7776, persist_cmp_msgs=32512,
             idt_notify_msgs=279, total_msgs=105591,
             mean_flush_msgs=103.65, max_flush_msgs=106),
    64: dict(flushes=1028, flush_epoch_msgs=65792, bank_ack_msgs=65792,
             persist_ack_msgs=7872, persist_cmp_msgs=65792,
             idt_notify_msgs=249, total_msgs=205497,
             mean_flush_msgs=199.66, max_flush_msgs=202),
}
_RECORDED_A2A = {
    4: (28201, 27.61, 30),
    8: (80430, 79.66, 82),
    16: (284923, 279.59, 282),
    32: (1080951, 1063.65, 1066),
    64: (4284601, 4167.66, 4170),
}


@pytest.mark.parametrize("cores", sorted(_RECORDED_A2A))
def test_all_to_all_derivation_reproduces_recorded_runs(cores):
    hs = all_to_all_counters(_RECORDED_ARBITER[cores], banks=cores)
    assert (hs["total_msgs"], hs["mean_flush_msgs"],
            hs["max_flush_msgs"]) == _RECORDED_A2A[cores]
    assert hs["bank_ack_msgs"] == cores * cores * hs["flushes"]
    assert hs["persist_cmp_msgs"] == 0


def test_handshake_counters_match_reference_at_16_cores():
    """The explicit counter-parity check the bench runs at 64 cores,
    here at a unit-test-sized 16."""
    config, programs = _multicore_setup(seed=3, transactions=8,
                                        num_cores=16)
    parity = handshake_parity(config, programs)
    assert parity["digest_match"]
    assert parity["counters_match"]
    assert parity["counters"]["flushes"] > 0


def test_scaling_table_renders_per_core_rows():
    """The report helper turns a scaling record into one row per core
    count with no summary row (means across a scaling curve would be
    meaningless)."""
    from repro.harness.report import scaling_table

    def point(msgs):
        return {"handshake": {"mean_flush_msgs": msgs}}

    record = {
        "cores": [4, 8],
        "pingpong": {"LB++": {"4": point(19.6), "8": point(31.7)}},
        "sharded_serving": {"LB++": {"4": point(20.2), "8": point(31.9)}},
        "all_to_all": {"LB++": {"4": point(27.6), "8": point(79.7)}},
    }
    table = scaling_table(record)
    assert table.summary_row() is None
    data = table.as_dict()
    assert data["8 cores"] == {"arbiter": 31.7, "sharded": 31.9,
                               "all-to-all": 79.7}
    assert data["4 cores"]["arbiter"] == 19.6
    text = table.render(precision=1)
    assert "4 cores" in text and "8 cores" in text


# ----------------------------------------------------------------------
# The bench registry
# ----------------------------------------------------------------------
def test_only_scaling_carries_other_families_forward(tmp_path):
    """Two restricted runs write identical, exact ``scaling`` records,
    and both keep the existing ``crash`` record value for value."""
    import json

    from repro.__main__ import main

    crash = {"sweeps": {}, "ok": True}
    records = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        out.write_text(json.dumps({"crash": crash, "stale": {"ok": True}}))
        assert main(["bench", "--only", "scaling", "--cores", "4,8",
                     "--output", str(out)]) == 0
        records.append(json.loads(out.read_text()))
    first, second = records
    assert first["scaling"] == second["scaling"]
    assert first["scaling"]["ok"]
    assert first["scaling"]["parity"]["counters_match"]
    assert "ops_per_sec" not in first["scaling"]["pingpong"]["LB++"]["4"]
    assert first["crash"] == crash
    # Only registry families are kept.
    assert list(first) == ["scaling", "crash"]


def test_failing_family_makes_bench_exit_nonzero(tmp_path, monkeypatch):
    from repro.__main__ import main
    from repro.harness import bench

    monkeypatch.setitem(bench.FAMILIES, "crash",
                        lambda seed, cores: {"ok": False})
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--only", "crash", "--output", out]) == 1
    monkeypatch.setitem(bench.FAMILIES, "crash",
                        lambda seed, cores: {"ok": True})
    assert main(["bench", "--only", "crash", "--output", out]) == 0


# ----------------------------------------------------------------------
# --cores validation
# ----------------------------------------------------------------------
def test_parse_cores_accepts_powers_of_two():
    assert parse_cores("4,8,16,32,64") == (4, 8, 16, 32, 64)
    assert parse_cores("16") == (16,)
    # Normalised: sorted, deduplicated.
    assert parse_cores("32,4,4") == (4, 32)


@pytest.mark.parametrize("bad", ["3", "0", "128", "4,12", "-8", "four", ""])
def test_parse_cores_rejects_bad_values(bad):
    with pytest.raises(argparse.ArgumentTypeError,
                       match="powers of two|comma-separated"):
        parse_cores(bad)
