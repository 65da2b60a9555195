"""Bulk-loading vs repeated insertion, and batched vs scalar queries.

Measures real wall time of the two fast paths this reproduction adds on
top of the paper:

* STR bulk loading (``MovingObjectTree.bulk_load``) against building the
  same tree by repeated insertion;
* query evaluation through the index (the batched kernels) against the
  scalar predicate scanned over every leaf entry, on the same tree and
  query set, asserting identical answers.

The population size follows ``REPRO_BULK_COUNT`` (default 50000).  The
insertion baseline is run once — it is the slow side being measured.
"""

import os
import random
import sys
import time

import pytest

from repro.core import MovingObjectTree, SimulationClock, rexp_config
from repro.geometry import Rect, TimesliceQuery, region_matches_point

from _util import initial_population

COUNT = int(os.environ.get("REPRO_BULK_COUNT", "50000"))


@pytest.fixture(scope="module")
def population():
    return initial_population(COUNT, seed=0)


def _empty_tree():
    clock = SimulationClock()
    return MovingObjectTree(rexp_config(), clock), clock


def _report(label, seconds, tree):
    print(f"\n[repro] {label}: {seconds:.2f}s wall, "
          f"{tree.stats.writes} page writes, {tree.page_count} pages, "
          f"height {tree.height}", file=sys.__stdout__)


def test_build_by_insertion(benchmark, population):
    def build():
        tree, clock = _empty_tree()
        for oid, point in population:
            clock.advance_to(point.t_ref)
            tree.insert(oid, point)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1, warmup_rounds=0)
    _report(f"insert-built {len(population)} objects",
            benchmark.stats.stats.mean, tree)


def test_build_by_bulk_load(benchmark, population):
    def build():
        tree, clock = _empty_tree()
        clock.advance_to(population[0][1].t_ref)
        tree.bulk_load([(point, oid) for oid, point in population])
        return tree

    tree = benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=0)
    tree.check_invariants()
    _report(f"bulk-loaded {len(population)} objects",
            benchmark.stats.stats.mean, tree)


def _query_set(population, n=200, seed=1):
    t_end = max(point.t_ref for _, point in population)
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        x, y = rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)
        queries.append(TimesliceQuery(
            Rect((x, y), (x + 100.0, y + 100.0)),
            t_end + rng.uniform(0.0, 30.0),
        ))
    return t_end, queries


@pytest.fixture(scope="module")
def query_tree(population):
    tree, clock = _empty_tree()
    clock.advance_to(population[0][1].t_ref)
    tree.bulk_load([(point, oid) for oid, point in population])
    t_end, queries = _query_set(population)
    clock.advance_to(t_end)
    return tree, queries


def _run_queries(tree, queries):
    return [sorted(tree.query(q)) for q in queries]


def _scan_queries(tree, queries):
    """The scalar predicate looped over every leaf entry: the oracle."""
    entries = list(tree.snapshot().leaf_entries())
    return [
        sorted(
            oid for point, oid in entries
            if region_matches_point(query.region(), point)
        )
        for query in queries
    ]


def test_query_scalar(benchmark, query_tree):
    tree, queries = query_tree
    answers = benchmark.pedantic(
        _scan_queries, args=(tree, queries),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    query_tree[0].__dict__.setdefault("_scalar_answers", answers)
    print(f"\n[repro] scalar scan: "
          f"{benchmark.stats.stats.mean:.3f}s for {len(queries)} queries",
          file=sys.__stdout__)


def test_query_batched(benchmark, query_tree):
    tree, queries = query_tree
    answers = benchmark.pedantic(
        _run_queries, args=(tree, queries),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    scalar = tree.__dict__.get("_scalar_answers")
    if scalar is not None:
        assert answers == scalar, "index answers differ from the scalar scan"
    print(f"\n[repro] index queries: "
          f"{benchmark.stats.stats.mean:.3f}s for {len(queries)} queries",
          file=sys.__stdout__)
