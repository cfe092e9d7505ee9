# Developer entry points. The package needs no build step; everything
# runs from src/ via PYTHONPATH.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test doctest bench bench-service counts serve docs docs-check lint loc clean

test:
	$(PYTHON) -m pytest -x -q

doctest:
	$(PYTHON) -m pytest --doctest-modules src/repro -q

# Mirrors CI's bench job: the same five bench files, then the same five
# compare gates against the committed baselines.
BENCH_GATES := sampling backends deltas service workloads

bench:
	$(PYTHON) -m pytest -q benchmarks/test_bench_backends.py benchmarks/test_bench_sampling.py \
	    benchmarks/test_bench_service.py benchmarks/test_bench_deltas.py \
	    benchmarks/test_bench_workloads.py
	@set -e; for suite in $(BENCH_GATES); do \
	    $(PYTHON) benchmarks/compare.py benchmarks/baselines/BENCH_$$suite.json \
	        benchmarks/out/BENCH_$$suite.json --fail-over 2.0; \
	done

bench-service:
	$(PYTHON) -m pytest -q benchmarks/test_bench_service.py
	$(PYTHON) benchmarks/compare.py benchmarks/baselines/BENCH_service.json \
	    benchmarks/out/BENCH_service.json --fail-over 2.0

# The benchmark's exact-count check, also run by CI's bench job: two
# traced runs per workload at one seed must agree on every count and
# result digest (perfbench/check_counts.py).
counts:
	$(PYTHON) perfbench/check_counts.py

# Run the clustering service on the default port with a local world cache.
serve:
	$(PYTHON) -m repro.cli serve --world-cache .world-cache

# API reference: always build the dependency-free Markdown reference
# (docs/api) — it doubles as the docstring/doctest syntax gate — and,
# when pdoc is installed, browsable HTML into docs/_build.
docs:
	$(PYTHON) docs/gen_api.py -o docs/api
	@if $(PYTHON) -c "import pdoc" 2>/dev/null; then \
	    $(PYTHON) -m pdoc --docformat numpy -o docs/_build repro; \
	else \
	    echo "pdoc not installed; skipped HTML build (docs/api has the Markdown reference)"; \
	fi

docs-check:
	$(PYTHON) docs/gen_api.py --check

lint:
	ruff check src tests benchmarks examples docs
	$(PYTHON) -m compileall -q src

# Lines of Python under src/, the size figure each change reports.
loc:
	@find src -name '*.py' -exec cat {} + | wc -l

clean:
	rm -rf docs/api docs/_build benchmarks/out
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
