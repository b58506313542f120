# Convenience targets. Everything works offline (NumPy and SciPy are the
# runtime dependencies; pytest/hypothesis for tests).

.PHONY: install test bench experiments examples lint verify all

install:
	python setup.py develop

test:
	pytest tests/

# The one benchmark: cold/warm `repro run all` and the served flows,
# driven from outside (see perfbench/README.md and BENCHMARK.json).
bench:
	python3 perfbench/run.py --workload all --seed 1 --seconds 40

experiments:
	python -m repro run all

# Tier-1 gate: the full test suite, a parallel end-to-end smoke of
# every registered experiment on a fresh cache (exercises the runner,
# cache and manifest), its warm replay from that cache with byte-identical
# stdout (the cache-hit path, which loads no engine code), a validated
# Perfetto export (exercises the observability layer), a live-server
# telemetry smoke (scrapes /metrics, validates the Prometheus exposition,
# round-trips a trace through the flight recorder), and a chaos smoke
# (seeded fault injection: runner outputs byte-identical under faults, a
# faulted serve storm degrades to stale bytes or 503/504 only).
verify:
	PYTHONPATH=src python -m pytest tests/ -x -q
	smoke=$$(mktemp -d) && \
	  REPRO_CACHE_DIR=$$smoke/cache PYTHONPATH=src \
	    python -m repro run all --jobs 2 > $$smoke/cold.out && \
	  REPRO_CACHE_DIR=$$smoke/cache PYTHONPATH=src \
	    python -m repro run all --jobs 1 > $$smoke/warm.out && \
	  cmp $$smoke/cold.out $$smoke/warm.out && rm -rf $$smoke
	PYTHONPATH=src python scripts/check_perfetto.py perfetto-smoke
	PYTHONPATH=src python scripts/check_prometheus.py prometheus-smoke
	PYTHONPATH=src python scripts/check_chaos.py chaos-smoke

examples:
	python examples/quickstart.py
	python examples/accelerator_design_space.py
	python examples/distributed_scaleout.py
	python examples/checkpointing_memory.py
	python examples/characterize_and_export.py
	python examples/plan_training_run.py
	python examples/train_tiny_bert.py

all: test bench experiments
