"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_parser_subcommands_exist():
    parser = build_parser()
    for argv in (
        ["run", "--workload", "queue"],
        ["figures", "fig11"],
        ["crash"],
        ["inspect"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_run_microbenchmark(capsys):
    rc = main(["run", "--workload", "queue", "--design", "LB",
               "--scale", "tiny", "--transactions", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "queue / LB / BEP" in out


def test_run_app_workload(capsys):
    rc = main(["run", "--workload", "cholesky", "--design", "LB++",
               "--scale", "tiny", "--mem-ops", "400",
               "--epoch-stores", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cholesky / LB++ / BSP" in out
    assert "NVRAM writes" in out


def test_run_unknown_workload():
    rc = main(["run", "--workload", "nosuchthing", "--scale", "tiny"])
    assert rc == 2


def test_crash_queue(capsys):
    rc = main(["crash", "--workload", "queue", "--cycle", "5000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid epoch order" in out
    assert "recovered queue" in out


def test_crash_bsp_app(capsys):
    rc = main(["crash", "--workload", "intruder", "--cycle", "8000",
               "--epoch-stores", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rolled back" in out


def test_inspect(capsys):
    rc = main(["inspect", "--scale", "paper"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "num_cores" in out and "32" in out


def test_figures_delegates(capsys):
    rc = main(["figures", "fig12", "--scale", "tiny"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 12" in out


def test_figures_accepts_executor_flags(tmp_path, capsys):
    rc = main(["figures", "fig12", "--scale", "tiny", "--jobs", "1",
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    assert "Figure 12" in capsys.readouterr().out
    assert (tmp_path / "cache").is_dir()
    rc = main(["figures", "fig12", "--scale", "tiny", "--no-cache",
               "--jobs", "1"])
    assert rc == 0


def test_bench_subcommand_registered():
    parser = build_parser()
    args = parser.parse_args(["bench", "--jobs", "2"])
    assert callable(args.func)
    assert args.jobs == 2
    farm = parser.parse_args(["bench", "--only", "farm"])
    assert farm.only == "farm"


def test_figures_farm_flags_forwarded(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    # Budget 0: plan everything, run nothing, persist the cursor.
    rc = main(["figures", "contended", "--scale", "tiny", "--jobs", "1",
               "--cache-dir", cache_dir, "--budget", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "18 to run" in out and "rerun the same command" in out
    assert (tmp_path / "cache" / "plan.json").is_file()
    # A shard run skips assembly.
    rc = main(["figures", "contended", "--scale", "tiny", "--jobs", "1",
               "--cache-dir", cache_dir, "--shard", "1/2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shard 1/2 complete" in out
    assert "Contended" not in out


def test_cache_subcommand_stats_and_prune(tmp_path, capsys):
    from repro.harness.cache import ResultCache
    from repro.harness.executor import RunSpec, run_specs
    from repro.harness.runner import Scale
    from repro.sim.config import BarrierDesign

    cache_dir = str(tmp_path / "cache")
    spec = RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY,
                       transactions=6)
    run_specs([spec], jobs=1, cache=ResultCache(cache_dir))

    rc = main(["cache", "--cache-dir", cache_dir, "--stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "result entries   : 1" in out

    rc = main(["cache", "--cache-dir", cache_dir, "--prune",
               "--max-bytes", "0", "--dry-run"])
    assert rc == 0
    assert "would remove 1 entries" in capsys.readouterr().out
    rc = main(["cache", "--cache-dir", cache_dir, "--prune",
               "--max-bytes", "0"])
    assert rc == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", cache_dir, "--prune"]) == 2


def test_bad_design_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "queue", "--design", "LBX"])


@pytest.mark.parametrize("argv", [
    ["campaign", "--cores", "0"],
    ["campaign", "--transactions", "-2"],
    ["campaign", "--mc-stride", "0"],
    ["campaign", "--max-points", "0"],
    ["crashsweep", "--transactions", "-3"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_count_flags_reject_nonpositive_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {argv[1]}: expected a positive integer" in err


def test_count_flags_accept_positive_values():
    args = build_parser().parse_args(
        ["campaign", "--cores", "8", "--transactions", "2",
         "--mc-stride", "4", "--max-points", "10"])
    assert (args.cores, args.transactions, args.mc_stride,
            args.max_points) == (8, 2, 4, 10)
