.PHONY: install test perf examples clean

install:
	pip install -e .

test:
	pytest tests/

# the wall-clock benchmark of BENCHMARK.json (benchmarks/perf/README.md)
perf:
	python3 benchmarks/perf/run.py

examples:
	python examples/quickstart.py
	python examples/cluster_of_clusters.py
	python examples/multi_gateway_routing.py
	python examples/stencil_exchange.py
	python examples/mpi_allreduce.py
	python examples/rpc_task_farm.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
