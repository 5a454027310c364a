# Convenience targets mirroring what CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: ci test test-reference test-smoke test-slow perfbench benchmarks examples faults bench scale figures figures-full clean-cache

# What CI runs (see .github/workflows/ci.yml): the fast tier-1 suite,
# the same suite in reference mode, the perfbench job's digest checks,
# the paper-shape checks, the example scripts, the fault campaign and
# crash sweep jobs, and the scaling and figures check families (each
# exits nonzero if any of its checks fails, or if its record in
# BENCH_sweep.json drifts).
ci: test test-reference perfbench benchmarks examples faults
	$(PYTHON) -m repro bench --only scaling --output BENCH_sweep.json
	git diff --exit-code BENCH_sweep.json
	$(PYTHON) -m repro bench --only figures --output BENCH_sweep.json
	git diff --exit-code BENCH_sweep.json

# Tier-1: the full fast suite (includes the parallel sweep smoke tests).
test:
	$(PYTHON) -m pytest -x -q

# The same suite in reference mode (REPRO_SLOW_ENGINE=1): the engine's
# plain heap loop, and the general request classifier in place of the
# fused paths.  Every simulated result must be identical.
test-reference:
	REPRO_SLOW_ENGINE=1 $(PYTHON) -m pytest -x -q

# Just the tiny-scale parallel sweep smoke tests (executor determinism).
test-smoke:
	$(PYTHON) -m pytest -x -q -m sweep_smoke

# The long end-to-end figure checks.
test-slow:
	$(PYTHON) -m pytest -q -m slow

# CI's perfbench job: the benchmark harness's own tests, then one
# measured run per workload at seed 1 and at the held-out seed 1009,
# each digest-checked against the reference engine (run.py exits 1 on
# a mismatch).  No timing threshold.
perfbench:
	$(PYTHON) -m pytest -q perfbench
	for w in hotset serving pingpong4 bsp_stream; do \
		for s in 1 1009; do \
			$(PYTHON) perfbench/run.py --workload $$w --seed $$s --seconds 0 || exit 1; \
		done; \
	done

# CI's paper-shape job: the benchmarks/ suite's checks on Table 1 and
# Figures 11-14 at tiny scale, each run once and untimed (the suite's
# tests take pytest-benchmark's fixture; pyproject's `test` extra).
benchmarks:
	$(PYTHON) -m pytest -q benchmarks/ --benchmark-disable

# Run every example script; each must exit 0.
examples:
	for f in examples/*.py; do \
		echo "== $$f"; \
		$(PYTHON) $$f > /dev/null || exit 1; \
	done

# CI's fault-campaign-smoke, crash-sweep-smoke and serving-smoke jobs,
# command for command: the exhaustive LB++ campaign with its
# reference-engine rerun, the LB campaign, both reorder self-tests, the
# pingpong crash sweep, the serving crash sweep (the one sweep over a
# miss-heavy stream, which runs the fused load, fill and full-miss
# paths), and the crash bench family, whose record in BENCH_sweep.json
# must not drift.  About 3 minutes on a 2-CPU Linux container.
faults:
	$(PYTHON) -m repro campaign --workload pingpong --cores 4 \
		--transactions 4 --mc-stride 4 --random-rounds 3 --check-digests
	$(PYTHON) -m repro campaign --workload pingpong --design lb \
		--cores 4 --transactions 4 --mc-stride 8 --quiet
	$(PYTHON) -m repro campaign --workload pingpong --cores 4 \
		--reorder-window 6 --expect-violation
	$(PYTHON) -m repro crashsweep --workload pingpong --transactions 10
	$(PYTHON) -m repro crashsweep --workload serving --transactions 60
	$(PYTHON) -m repro crashsweep --workload queue \
		--reorder-window 6 --expect-violation
	$(PYTHON) -m repro bench --only crash --output BENCH_sweep.json
	git diff --exit-code BENCH_sweep.json

# Run every bench check family (scaling, crash, figures) and refresh
# BENCH_sweep.json; exits nonzero if any check fails.  Host time is
# measured by perfbench/ (see perfbench/README.md).
bench:
	$(PYTHON) -m repro bench

# The core-count scaling sweep: messages-per-flush at 4..64 cores
# (arbiter vs the derived all-to-all), refreshing only the `scaling`
# family of BENCH_sweep.json.
scale:
	$(PYTHON) -m repro bench --only scaling --cores 4,8,16,32,64

figures:
	$(PYTHON) -m repro figures all --scale small

# The paper-scale figures under a one-hour budget; rerun to resume
# (completed runs are cached, only the remainder executes).
figures-full:
	$(PYTHON) -m repro figures all --scale paper --budget 3600

clean-cache:
	rm -rf .repro-cache
