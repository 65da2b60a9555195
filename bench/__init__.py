"""The repository's benchmark: four workloads, one schema, one command.

``python -m bench.run --workload NAME --seed N [--trace]`` — see
``bench/README.md`` for the metric catalogue and the noise protocol.
"""
