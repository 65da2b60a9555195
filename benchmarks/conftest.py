"""Shared fixtures for the figure benchmarks.

Each ``bench_fig*.py`` regenerates one figure of the paper at the scale
selected by ``REPRO_SCALE`` (default: tiny).  Runs are cached (see
:mod:`repro.experiments.cache`) so re-runs (and the three NewOb figures,
which share a sweep) are cheap.  pytest-benchmark measures one full sweep
per figure.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.scale import current_scale


@pytest.fixture(scope="session")
def scale():
    s = current_scale()
    print(f"\n[repro] benchmark scale: {s.name} "
          f"(population={s.target_population}, insertions={s.insertions}, "
          f"page={s.page_size}B, buffer={s.buffer_pages} pages)",
          file=sys.__stdout__)
    return s


def run_figure_benchmark(benchmark, figure_fn, scale):
    """Run one figure sweep under pytest-benchmark (single round).

    A sweep replays several workloads against several index flavours —
    minutes of work — so it is executed exactly once; pytest-benchmark
    still records the wall time, and the figure's series and shape
    checks are printed for EXPERIMENTS.md.
    """
    result = benchmark.pedantic(
        figure_fn, args=(scale,), rounds=1, iterations=1, warmup_rounds=0
    )
    return result
