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
    args = parser.parse_args(["bench", "--only", "crash"])
    assert callable(args.func)
    assert args.only == "crash"


def test_figures_budget_flag_forwarded(tmp_path, capsys):
    from repro.harness.cache import ResultCache

    cache_dir = str(tmp_path / "cache")
    # Budget 0: plan everything, run nothing, assemble nothing.
    rc = main(["figures", "contended", "--scale", "tiny", "--jobs", "1",
               "--cache-dir", cache_dir, "--budget", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "18 to run" in out and "rerun the same command" in out
    assert "Contended" not in out
    assert len(ResultCache(cache_dir)) == 0


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "soon"])
def test_budget_rejects_values_that_never_finish(value, capsys):
    # A negative budget never runs anything and an infinite or NaN one
    # never expires: both are usage errors, not silent no-ops.
    with pytest.raises(SystemExit) as exc:
        main(["figures", "contended", "--scale", "tiny",
              "--budget", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert ("argument --budget: expected a finite number of seconds"
            in err)


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


@pytest.mark.parametrize("argv", [
    ["crashsweep", "--reorder-window", "-3"],
    ["campaign", "--reorder-window", "-1"],
    ["campaign", "--random-rounds", "-2"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_off_switch_flags_reject_negative_values(argv, capsys):
    # A negative reorder window would report the self-test as run while
    # never reordering anything; a negative round count runs no rounds.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {argv[1]}: expected a non-negative integer" in err


def test_off_switch_flags_accept_zero_as_off():
    parser = build_parser()
    args = parser.parse_args(
        ["campaign", "--reorder-window", "0", "--random-rounds", "0"])
    assert (args.reorder_window, args.random_rounds) == (0, 0)
    args = parser.parse_args(["crashsweep", "--reorder-window", "0"])
    assert args.reorder_window == 0
