# Convenience targets mirroring what CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: ci test test-reference test-smoke test-slow perfbench examples bench scale figures figures-full clean-cache

# What CI runs (see .github/workflows/ci.yml): the fast tier-1 suite,
# the same suite in reference mode, the perfbench job's digest checks,
# the example scripts, and the scaling check family (exits nonzero if
# any of its checks fails, or if its record in BENCH_sweep.json drifts).
ci: test test-reference perfbench examples
	$(PYTHON) -m repro bench --only scaling --output BENCH_sweep.json
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

# Run every example script; each must exit 0.
examples:
	for f in examples/*.py; do \
		echo "== $$f"; \
		$(PYTHON) $$f > /dev/null || exit 1; \
	done

# Run every bench check family (scaling, crash) and refresh
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
