"""Tests for the ``python -m repro`` command-line interface."""

import os

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


def test_figures_chart_renders_bars(tmp_path, capsys):
    # --chart belongs to the figure build, so both entry points take it.
    rc = main(["figures", "fig11", "--scale", "tiny", "--chart",
               "--jobs", "1", "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    assert "█" in out


def test_figures_rejects_an_unknown_figure_under_its_own_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figures", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro figures ")
    assert "argument figures: invalid choice: 'bogus'" in err


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
    assert "18 to run" in out and "0 executed, 18 remaining" in out
    assert "rerun the same command" in out and "Contended" not in out
    assert len(ResultCache(cache_dir)) == 0


def _spy_on_run_specs(monkeypatch):
    """Record every spec the figure build hands to ``run_specs``."""
    from repro.harness import experiments

    seen = []
    run_specs = experiments.run_specs

    def spy(specs, **kwargs):
        seen.extend(specs)
        return run_specs(specs, **kwargs)

    monkeypatch.setattr(experiments, "run_specs", spy)
    return seen


def test_figures_length_flags_reach_every_planned_spec(tmp_path, monkeypatch,
                                                      capsys):
    planned = _spy_on_run_specs(monkeypatch)
    rc = main(["figures", "all", "--scale", "tiny", "--transactions", "7",
               "--mem-ops", "300", "--cache-dir", str(tmp_path / "cache"),
               "--budget", "0"])
    assert rc == 0
    assert "115 to run" in capsys.readouterr().out
    assert len(planned) == 115
    assert {spec.transactions for spec in planned
            if spec.kind == "bep"} == {7}
    assert {spec.mem_ops for spec in planned if spec.kind == "bsp"} == {300}


def test_figures_length_flags_reach_an_uncached_build(monkeypatch, capsys):
    ran = _spy_on_run_specs(monkeypatch)
    rc = main(["figures", "fig12", "--scale", "tiny", "--transactions", "3",
               "--no-cache", "--jobs", "1"])
    assert rc == 0
    assert "Figure 12" in capsys.readouterr().out
    assert ran and {spec.transactions for spec in ran} == {3}


_BSP_FIGURES = ["figures", "fig13", "fig14", "writethrough", "--scale",
                "tiny", "--mem-ops", "200", "--jobs", "1"]


def _tables(out):
    """A figure build's output from its first table on: a cached build
    prints its plan above."""
    return out[out.index("Figure 13"):]


def test_an_uncached_build_runs_each_distinct_spec_once(monkeypatch, capsys):
    # fig13, fig14 and writethrough each plan the nine NP baselines, and
    # fig14's LB run per app is fig13's largest-epoch run: 99 planned
    # runs, 72 distinct specs.
    from repro.harness import executor

    executed = []
    execute = executor.execute

    def counted(spec):
        executed.append(spec)
        return execute(spec)

    monkeypatch.setattr(executor, "execute", counted)
    assert main(_BSP_FIGURES + ["--no-cache"]) == 0
    assert len(executed) == len(set(executed)) == 72
    uncached = _tables(capsys.readouterr().out)
    assert "write-through" in uncached


def test_cached_and_uncached_builds_print_the_same_tables(tmp_path, capsys):
    assert main(_BSP_FIGURES + ["--no-cache"]) == 0
    uncached = _tables(capsys.readouterr().out)
    for _ in range(2):   # cold, then warm
        assert main(_BSP_FIGURES + ["--cache-dir",
                                    str(tmp_path / "cache")]) == 0
        assert _tables(capsys.readouterr().out) == uncached


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
    # A negative count ran zero transactions or memory ops and exited
    # 0; zero or negative epoch stores ended a hardware epoch at every
    # store.
    ["run", "--transactions", "-5", "--workload", "hotset", "--scale", "tiny"],
    ["run", "--mem-ops", "-10", "--workload", "ssca2", "--scale", "tiny"],
    ["run", "--epoch-stores", "0", "--workload", "ssca2", "--scale", "tiny"],
    ["run", "--epoch-stores", "-3", "--workload", "ssca2", "--scale", "tiny"],
    ["crash", "--epoch-stores", "0", "--workload", "intruder"],
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
    ["crash", "--cycle", "-5"],
    # The flags after the seed keep each command small and leave
    # BENCH_sweep.json alone should the seed ever parse.
    ["run", "--seed", "-1", "--workload", "hotset", "--scale", "tiny"],
    ["figures", "--seed", "-1", "fig12", "--scale", "tiny"],
    ["bench", "--seed", "-1", "--only", "scaling", "--cores", "2",
     "--output", os.devnull],
    ["crash", "--seed", "-1"],
    ["crashsweep", "--seed", "-1"],
    ["campaign", "--seed", "-1", "--max-points", "1"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_non_negative_flags_reject_negative_values(argv, capsys):
    # A negative reorder window would report the self-test as run while
    # never reordering anything; a negative round count runs no rounds;
    # a negative crash cycle crashes before the run starts; and a
    # negative seed silently reran its absolute value.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {argv[1]}: expected a non-negative integer" in err


def test_experiments_main_rejects_negative_seed(capsys):
    from repro.harness.experiments import main as experiments_main
    with pytest.raises(SystemExit) as exc:
        experiments_main(["fig11", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "argument --seed: expected a non-negative integer" in err


def test_off_switch_flags_accept_zero_as_off():
    parser = build_parser()
    args = parser.parse_args(
        ["campaign", "--reorder-window", "0", "--random-rounds", "0"])
    assert (args.reorder_window, args.random_rounds) == (0, 0)
    args = parser.parse_args(["crashsweep", "--reorder-window", "0"])
    assert args.reorder_window == 0


def test_seed_and_crash_cycle_accept_zero(capsys):
    assert main(["run", "--workload", "hotset", "--scale", "tiny",
                 "--transactions", "5", "--seed", "0"]) == 0
    assert "hotset / LB++ / BEP" in capsys.readouterr().out
    assert main(["crash", "--workload", "queue", "--cycle", "0"]) == 0
    assert "crash @ 0:" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["bank_ack_drop:1,2", "mc_stall:0,1,2,3"])
def test_inject_rejects_wrong_coordinate_count(target, capsys):
    # A target with the wrong arity never matched an event, so the
    # command injected nothing and reported "survived".
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--workload", "pingpong", "--cores", "2",
              "--transactions", "2", "--inject", target])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    leg = target.split(":")[0]
    assert f"argument --inject: fault leg {leg!r} takes" in err


def test_campaign_inject_reports_a_verdict(capsys):
    assert main(["campaign", "--workload", "pingpong", "--cores", "2",
                 "--transactions", "2", "--inject",
                 "bank_ack_drop:0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "inject           : bank_ack_drop(0, 1, 2)" in out
    assert "verdict          : survived" in out


def test_crashsweep_queue_is_consistent(capsys):
    assert main(["crashsweep", "--workload", "queue",
                 "--transactions", "3"]) == 0
    assert "consistent at every crash point" in capsys.readouterr().out


def test_crashsweep_reorder_self_test_flags_a_violation(capsys):
    assert main(["crashsweep", "--workload", "queue", "--reorder-window",
                 "6", "--expect-violation"]) == 0
    assert "verdict          : VIOLATION" in capsys.readouterr().out
