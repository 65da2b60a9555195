"""Tests for STR bulk loading (Sort-Tile-Recurse packing).

The load-bearing property: a bulk-loaded tree answers every query
exactly like an insert-built tree over the same reports — only the
partitioning (and therefore the I/O cost) may differ.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MovingObjectTree, SimulationClock, rexp_config
from repro.core.bulkload import leaf_key, str_runs
from repro.core.presets import tpr_config
from repro.geometry.kinematics import NEVER, MovingPoint
from repro.geometry.queries import TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect

CONFIG = rexp_config(page_size=512, buffer_pages=8, default_ui=30.0)


def random_reports(n, seed=0, space=100.0, infinite_fraction=0.0):
    rng = random.Random(seed)
    reports = []
    for oid in range(n):
        pos = (rng.uniform(0.0, space), rng.uniform(0.0, space))
        vel = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if infinite_fraction and rng.random() < infinite_fraction:
            t_exp = NEVER
        else:
            t_exp = rng.uniform(5.0, 120.0)
        reports.append((MovingPoint(pos, vel, 0.0, t_exp), oid))
    return reports


# -- str_runs ----------------------------------------------------------------


@given(
    n=st.integers(min_value=1, max_value=400),
    capacity=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=10),
)
@settings(deadline=None)
def test_str_runs_partition_invariants(n, capacity, seed):
    items = random_reports(n, seed=seed)
    keys = [leaf_key(point, 30.0) for point, _ in items]
    min_entries = max(2, int(capacity * 0.4))
    runs = str_runs(items, keys, capacity, min_entries)
    flat = [entry for run in runs for entry in run]
    assert sorted(oid for _, oid in flat) == list(range(n))
    assert all(len(run) <= capacity for run in runs)
    if len(runs) > 1 and n >= 2 * min_entries:
        assert all(len(run) >= min_entries for run in runs)


def test_str_runs_empty():
    assert str_runs([], [], 10, 4) == []


def test_str_runs_groups_by_projected_position():
    # Two clusters that swap sides over the horizon must be tiled by
    # where they will be, not where they are.
    left_going_right = [
        (MovingPoint((0.0 + i, 50.0), (10.0, 0.0), 0.0, 100.0), i)
        for i in range(4)
    ]
    right_going_left = [
        (MovingPoint((100.0 + i, 50.0), (-10.0, 0.0), 0.0, 100.0), 10 + i)
        for i in range(4)
    ]
    items = left_going_right + right_going_left
    keys = [leaf_key(point, 10.0) for point, _ in items]  # positions swapped
    runs = str_runs(items, keys, 4, 2)
    assert len(runs) == 2
    # At t=10 the right-going-left cluster sits at x=0, so it tiles first.
    assert {oid for _, oid in runs[0]} == {10, 11, 12, 13}


# -- tree bulk loading -------------------------------------------------------


def _insert_built(reports, config=CONFIG):
    tree = MovingObjectTree(config, SimulationClock())
    for point, oid in reports:
        tree.insert(oid, point)
    return tree


def _bulk_loaded(reports, config=CONFIG):
    tree = MovingObjectTree(config, SimulationClock())
    tree.bulk_load(reports)
    return tree


def _query_grid(space=100.0, cell=25.0, times=(0.0, 10.0, 40.0)):
    queries = []
    steps = int(space / cell)
    for i in range(steps):
        for j in range(steps):
            rect = Rect(
                (i * cell, j * cell), ((i + 1) * cell, (j + 1) * cell)
            )
            for t in times:
                queries.append(TimesliceQuery(rect, t))
            queries.append(WindowQuery(rect, times[0], times[-1]))
    return queries


@pytest.mark.parametrize("n", [1, 7, 60, 500])
def test_bulk_load_matches_insert_built_queries(n):
    reports = random_reports(n, seed=n, infinite_fraction=0.1)
    inserted = _insert_built(reports)
    bulked = _bulk_loaded(reports)
    bulked.check_invariants()
    for query in _query_grid():
        assert sorted(bulked.query(query)) == sorted(inserted.query(query))


def test_bulk_load_structure_and_accounting():
    reports = random_reports(500, seed=3)
    tree = _bulk_loaded(reports)
    audit = tree.audit()
    assert audit.leaf_entries == 500
    assert tree.leaf_entry_count == 500
    assert audit.nodes == tree.page_count
    # Every page is written exactly once and never read back (+1: the
    # pinned root page was already flushed empty at construction).
    assert tree.stats.reads == 0
    assert tree.stats.writes == tree.page_count + 1
    # Packing beats insertion on page count: leaves are near-full.
    inserted = _insert_built(reports)
    assert tree.page_count <= inserted.page_count


def test_bulk_load_requires_empty_tree():
    tree = MovingObjectTree(CONFIG, SimulationClock())
    point, oid = random_reports(1)[0]
    tree.insert(oid, point)
    with pytest.raises(ValueError, match="empty"):
        tree.bulk_load(random_reports(5))


def test_bulk_load_rejects_wrong_dimensionality():
    tree = MovingObjectTree(CONFIG, SimulationClock())
    with pytest.raises(ValueError, match="2-d"):
        tree.bulk_load([(MovingPoint((1.0,), (0.0,), 0.0, 10.0), 1)])


def test_bulk_load_empty_is_noop():
    tree = MovingObjectTree(CONFIG, SimulationClock())
    tree.bulk_load([])
    assert tree.audit().leaf_entries == 0
    tree.check_invariants()


def test_bulk_load_strips_expiration_for_tpr_tree():
    config = tpr_config(page_size=512, buffer_pages=8)
    tree = _bulk_loaded(random_reports(50, seed=5), config=config)
    for pid in tree.disk.page_ids():
        node = tree.disk.peek(pid)
        if node.is_leaf:
            for point, _ in node.entries:
                assert math.isinf(point.t_exp)


def test_bulk_load_then_updates_keep_invariants():
    reports = random_reports(200, seed=9)
    tree = _bulk_loaded(reports)
    clock = tree.clock
    rng = random.Random(1)
    for step, (point, oid) in enumerate(reports[:80]):
        clock.advance_to(clock.time + 0.5)
        new = MovingPoint(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
            clock.time,
            clock.time + rng.uniform(5.0, 120.0),
        )
        tree.update(oid, point, new)
        if step % 20 == 0:
            tree.check_invariants()
    tree.check_invariants()


def test_queries_after_an_update_see_the_update():
    # The kernels read the node's own block (once: a packed copy cached
    # per node), so there is nothing a mutation could leave stale.
    reports = random_reports(300, seed=11)
    tree = _bulk_loaded(reports)
    probe = TimesliceQuery(Rect((40.0, 40.0), (60.0, 60.0)), 1.0)
    tree.query(probe)  # visit the nodes once before they change
    newcomer = MovingPoint((50.0, 50.0), (0.0, 0.0), 0.0, 500.0)
    tree.insert(9999, newcomer)
    assert 9999 in tree.query(probe)
    victim, vid = reports[0]
    tree.delete(vid, victim)
    assert vid not in tree.query(probe)
