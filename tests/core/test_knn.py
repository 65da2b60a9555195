"""Best-first kNN over the tree and the forest, checked against brute force.

The contract under test is *bit identity*: ``knn_entries`` must return
exactly ``brute_force_knn`` over the live population — same squared
distances (as IEEE-754 bits via tuple equality), same expiration
filtering, same ``(distance, oid)`` tie order — regardless of tree
shape, buffered inserts, or how the population is spread across forest
partitions.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.core.forest import PartitionedMovingObjectForest
from repro.core.presets import forest_config, rexp_config
from repro.core.tree import MovingObjectTree
from repro.geometry.kinematics import MovingPoint
from repro.geometry.knn import brute_force_knn
from repro.obs import MetricsRegistry, Tracer
from repro.workloads.base import InsertOp

SIZING = dict(page_size=512, buffer_pages=8, default_ui=10.0)


def make_tree(**overrides):
    clock = SimulationClock()
    return MovingObjectTree(rexp_config(**SIZING, **overrides), clock), clock


def make_forest(partitions=4):
    config = forest_config(
        partitions=partitions, partitioner="speed", **SIZING
    )
    return PartitionedMovingObjectForest(config, SimulationClock())


def random_entries(rng, n, t=0.0, space=100.0, life=30.0,
                   infinite_probability=0.2):
    entries = []
    for oid in range(n):
        if rng.random() < infinite_probability:
            t_exp = math.inf
        else:
            t_exp = t + rng.uniform(0.0, life)
        entries.append((
            MovingPoint(
                (rng.uniform(0, space), rng.uniform(0, space)),
                (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                t,
                t_exp,
            ),
            oid,
        ))
    return entries


# -- oracle identity ---------------------------------------------------------


@pytest.mark.parametrize("loader", ["insert", "bulk"])
def test_tree_knn_matches_brute_force(rng, loader):
    tree, _ = make_tree()
    entries = random_entries(rng, 300)
    if loader == "bulk":
        tree.bulk_load(entries)
    else:
        for point, oid in entries:
            tree.insert(oid, point)
    for t in (0.0, 7.0, 19.0, 40.0):
        for k in (1, 5, 23, 400):
            x = (rng.uniform(0, 100), rng.uniform(0, 100))
            assert tree.knn_entries(x, t, k) == brute_force_knn(
                entries, x, t, k
            )
            assert tree.query_knn(x, t, k) == [
                oid for _, oid in brute_force_knn(entries, x, t, k)
            ]


def test_forest_knn_matches_brute_force(rng):
    forest = make_forest()
    entries = random_entries(rng, 400)
    forest.apply_ops(
        [InsertOp(forest.clock.time, oid, point) for point, oid in entries]
    )
    for t in (0.0, 11.0, 33.0):
        for k in (1, 7, 50):
            x = (rng.uniform(0, 100), rng.uniform(0, 100))
            assert forest.knn_entries(x, t, k) == brute_force_knn(
                entries, x, t, k
            )


# -- edge cases --------------------------------------------------------------


def test_knn_k_zero_returns_empty():
    tree, _ = make_tree()
    tree.insert(1, MovingPoint((0.0, 0.0), (0.0, 0.0), 0.0, math.inf))
    assert tree.knn_entries((0.0, 0.0), 1.0, 0) == []
    assert tree.query_knn((0.0, 0.0), 1.0, 0) == []


def test_knn_k_larger_than_live_population(rng):
    tree, _ = make_tree()
    entries = random_entries(rng, 40, life=10.0, infinite_probability=0.0)
    for point, oid in entries:
        tree.insert(oid, point)
    t = 6.0
    live = [(p, oid) for p, oid in entries if not p.t_exp < t]
    got = tree.knn_entries((50.0, 50.0), t, 1000)
    assert len(got) == len(live)
    assert got == brute_force_knn(entries, (50.0, 50.0), t, 1000)


def test_knn_on_empty_tree_and_fully_expired_tree(rng):
    tree, _ = make_tree()
    assert tree.knn_entries((0.0, 0.0), 1.0, 5) == []
    for point, oid in random_entries(rng, 30, life=5.0,
                                     infinite_probability=0.0):
        tree.insert(oid, point)
    assert tree.knn_entries((50.0, 50.0), 100.0, 5) == []


def test_knn_exact_distance_ties_break_by_oid():
    tree, _ = make_tree()
    # Four stationary points all exactly distance 10 from the origin.
    for oid, pos in ((9, (10.0, 0.0)), (2, (-10.0, 0.0)),
                     (5, (0.0, 10.0)), (1, (0.0, -10.0))):
        tree.insert(oid, MovingPoint(pos, (0.0, 0.0), 0.0, math.inf))
    assert tree.query_knn((0.0, 0.0), 1.0, 3) == [1, 2, 5]
    assert tree.knn_entries((0.0, 0.0), 1.0, 4) == [
        (100.0, 1), (100.0, 2), (100.0, 5), (100.0, 9)
    ]


def test_knn_expired_subtrees_are_pruned_not_visited():
    """A cluster that is entirely expired must not be descended into."""
    registry = MetricsRegistry()
    clock = SimulationClock()
    tree = MovingObjectTree(rexp_config(**SIZING), clock)
    tree.enable_observability(registry=registry, tracer=Tracer())
    # Near cluster expires at t=5; far cluster lives forever.
    entries = []
    for oid in range(60):
        entries.append((
            MovingPoint((float(oid % 8), float(oid // 8)),
                        (0.0, 0.0), 0.0, 5.0),
            oid,
        ))
    for oid in range(60, 90):
        entries.append((
            MovingPoint((90.0 + float(oid % 5), 90.0 + float(oid // 5 % 6)),
                        (0.0, 0.0), 0.0, math.inf),
            oid,
        ))
    tree.bulk_load(entries)
    hist = registry.histogram("tree.knn_nodes_visited")
    assert hist.count == 0
    got = tree.knn_entries((0.0, 0.0), 10.0, 5)
    assert got == brute_force_knn(entries, (0.0, 0.0), 10.0, 5)
    assert all(oid >= 60 for _, oid in got)
    # The expired near cluster spans several leaves; pruning them keeps
    # the visit count at a fraction of the node population.
    assert hist.total < tree.audit().nodes
    assert registry.value("tree.knn_queries") == 1


def test_knn_external_bound_prunes_but_keeps_equal_distances():
    tree, _ = make_tree()
    for oid, pos in ((1, (1.0, 0.0)), (2, (2.0, 0.0)), (3, (3.0, 0.0))):
        tree.insert(oid, MovingPoint(pos, (0.0, 0.0), 0.0, math.inf))
    # bound == d^2 of oid 2: equal distances must survive (cross-member
    # tie merging in the forest depends on it), strictly greater must not.
    got = tree.knn_entries((0.0, 0.0), 1.0, 3, bound_sq=4.0)
    assert got == [(1.0, 1), (4.0, 2)]


def test_knn_input_validation():
    tree, _ = make_tree()
    with pytest.raises(ValueError):
        tree.knn_entries((0.0,), 1.0, 1)
    with pytest.raises(ValueError):
        tree.knn_entries((0.0, 0.0), 1.0, -2)
    with pytest.raises(ValueError):
        tree.knn_entries((0.0, math.inf), 1.0, 1)


# -- property: tree and forest agree with the oracle -------------------------


@st.composite
def populations(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    return random_entries(rng, n, life=20.0)


@given(
    populations(),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    st.integers(min_value=0, max_value=70),
    st.tuples(
        st.floats(min_value=-20.0, max_value=120.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=120.0, allow_nan=False),
    ),
)
def test_knn_property_tree_and_forest_equal_oracle(entries, t, k, x):
    expected = brute_force_knn(entries, x, t, k)
    tree, _ = make_tree()
    for point, oid in entries:
        tree.insert(oid, point)
    assert tree.knn_entries(x, t, k) == expected
    forest = make_forest(partitions=3)
    forest.apply_ops(
        [InsertOp(forest.clock.time, oid, point) for point, oid in entries]
    )
    assert forest.knn_entries(x, t, k) == expected
