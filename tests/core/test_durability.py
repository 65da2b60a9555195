"""Round-trip tests for durable trees and forests."""

import dataclasses
import hashlib
import math
import random

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.forest import ForestConfig, PartitionedMovingObjectForest
from repro.core.tree import MovingObjectTree
from repro.geometry import MovingQuery, Rect, TimesliceQuery, WindowQuery
from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR
from repro.obs import MetricsRegistry
from repro.storage.faults import FaultInjector, TransientIOError
from repro.storage.pagefile import FilePageStore, PageFileError

CONFIG = TreeConfig(page_size=512, buffer_pages=8)


def random_point(rng, t):
    return MovingPoint(
        (rng.uniform(0, 100), rng.uniform(0, 100)),
        (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        t, t + rng.uniform(5, 60),
    )


def probe_queries(now):
    return (
        TimesliceQuery(Rect((0, 0), (100, 100)), now + 1.0),
        WindowQuery(Rect((0, 0), (60, 60)), now, now + 5.0),
        MovingQuery(
            Rect((20, 20), (70, 70)), Rect((40, 40), (90, 90)),
            now, now + 4.0,
        ),
    )


def populate(index, clock, n=80, seed=3):
    rng = random.Random(seed)
    points = {}
    for oid in range(n):
        clock.advance_to(oid * 0.05)
        point = random_point(rng, clock.time)
        points[oid] = point
        index.insert(oid, point)
    for oid in range(0, n // 3, 3):
        index.delete(oid, points[oid])
    return points


def test_tree_close_reopen_answers_identically(tmp_path):
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    populate(tree, clock)
    queries = probe_queries(clock.time)
    want = [sorted(tree.query(q)) for q in queries]
    want_audit = tree.audit()
    tree.close()

    clock2 = SimulationClock()
    reopened = MovingObjectTree.open_from(str(tmp_path / "t"), CONFIG, clock2)
    assert clock2.time == pytest.approx(clock.time)
    assert [sorted(reopened.query(q)) for q in queries] == want
    audit = reopened.audit()
    assert (audit.nodes, audit.leaf_entries) == (
        want_audit.nodes, want_audit.leaf_entries
    )
    reopened.close()


def test_reopened_tree_deletes_every_entry_at_paper_scale(tmp_path):
    """Binary32 page fields must not hide a leaf from its own bound.

    On a 1000 x 1000 space the codec rounds a bound by up to 6e-5 —
    far beyond the absolute deletion tolerance — so after a reopen the
    containment descent used to prune the very leaf holding the entry.
    """
    config = TreeConfig(page_size=2048, buffer_pages=12)
    rng = random.Random(3)
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), config)
    points = {
        oid: MovingPoint(
            (rng.uniform(0, 1000), rng.uniform(0, 1000)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
            0.0, 120.0,
        )
        for oid in range(700)
    }
    for oid, point in points.items():
        tree.insert(oid, point)
    tree.close()
    clock = SimulationClock()
    reopened = MovingObjectTree.open_from(str(tmp_path / "t"), config, clock)
    clock.advance_to(50.0)
    missed = [
        oid for oid, point in points.items()
        if not reopened.delete(oid, point)
    ]
    assert missed == []
    assert reopened.leaf_entry_count == 0
    reopened.close()


def test_delete_slack_still_prunes_points_outside_a_bound():
    br = TPBR((990.0, 990.0), (1000.0, 1000.0), (-3.0, -3.0), (3.0, 3.0),
              0.0, 120.0)
    covers = MovingObjectTree._covers_position
    now = 50.0  # the bound has grown to [840, 1150] per dimension
    assert covers(br, (1150.0 + 1e-4, 900.0), now)  # codec-rounding range
    assert not covers(br, (1150.0 + 1e-2, 900.0), now)
    assert not covers(br, (900.0, 840.0 - 1e-2), now)
    unit = TPBR((0.25, 0.25), (0.5, 0.5), (0.0, 0.0), (0.0, 0.0), 0.0, 120.0)
    assert covers(unit, (0.5 + 5e-7, 0.3), now)  # the absolute floor
    assert not covers(unit, (0.5 + 2e-6, 0.3), now)


def test_open_from_validates_page_size(tmp_path):
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    tree.insert(1, random_point(random.Random(0), 0.0))
    tree.close()
    with pytest.raises(PageFileError):
        MovingObjectTree.open_from(
            str(tmp_path / "t"), CONFIG.with_(page_size=4096)
        )


def test_durable_tree_matches_simulated_io(tmp_path):
    """Acceptance criterion: index I/O identical, WAL I/O separate."""
    clock_sim = SimulationClock()
    simulated = MovingObjectTree(CONFIG, clock_sim)
    populate(simulated, clock_sim)

    clock_dur = SimulationClock()
    durable = MovingObjectTree.create_durable(
        str(tmp_path / "t"), CONFIG, clock_dur
    )
    populate(durable, clock_dur)

    assert durable.stats.snapshot() == simulated.stats.snapshot()
    assert durable.disk.wal.stats.writes > 0  # logged, but charged apart
    queries = probe_queries(clock_dur.time)
    for q in queries:
        assert sorted(durable.query(q)) == sorted(simulated.query(q))
    durable.close()


def test_persist_to_snapshots_a_simulated_tree(tmp_path):
    clock = SimulationClock()
    tree = MovingObjectTree(CONFIG, clock)
    populate(tree, clock)
    report = tree.persist_to(str(tmp_path / "snap"))
    assert report.pages == tree.page_count
    assert report.file_bytes > 0

    queries = probe_queries(clock.time)
    want = [sorted(tree.query(q)) for q in queries]
    reopened = MovingObjectTree.open_from(str(tmp_path / "snap"), CONFIG)
    assert [sorted(reopened.query(q)) for q in queries] == want
    reopened.close()


def test_checkpoint_truncates_wal(tmp_path):
    import os

    from repro.storage.pagefile import WAL_FILENAME

    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    populate(tree, clock, n=40)
    wal_path = str(tmp_path / "t" / WAL_FILENAME)
    before = os.path.getsize(wal_path)
    tree.checkpoint()
    after = os.path.getsize(wal_path)
    assert after < before
    tree.close()


def test_checkpoint_requires_durable_store():
    tree = MovingObjectTree(CONFIG, SimulationClock())
    with pytest.raises(TypeError):
        tree.checkpoint()


def test_simulated_tree_close_is_noop():
    tree = MovingObjectTree(CONFIG, SimulationClock())
    tree.close()  # must not raise
    assert not isinstance(tree.disk, FilePageStore)


def test_bulk_loaded_durable_tree_survives_reopen(tmp_path):
    rng = random.Random(9)
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    entries = [(random_point(rng, 0.0), 1000 + i) for i in range(150)]
    tree.bulk_load(entries)
    queries = probe_queries(0.0)
    want = [sorted(tree.query(q)) for q in queries]
    tree.close()
    reopened = MovingObjectTree.open_from(str(tmp_path / "t"), CONFIG)
    assert [sorted(reopened.query(q)) for q in queries] == want
    reopened.close()


# -- forest -------------------------------------------------------------------

FOREST_CONFIG = ForestConfig(tree=CONFIG, partitions=3)


def test_forest_close_reopen_answers_identically(tmp_path):
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest.create(
        str(tmp_path / "f"), FOREST_CONFIG, clock=clock
    )
    populate(forest, clock)
    queries = probe_queries(clock.time)
    want = [sorted(forest.query(q)) for q in queries]
    want_audit = forest.audit()
    forest.close()

    clock2 = SimulationClock()
    reopened = PartitionedMovingObjectForest.open(
        str(tmp_path / "f"), FOREST_CONFIG, clock2
    )
    assert clock2.time == pytest.approx(clock.time)
    assert [sorted(reopened.query(q)) for q in queries] == want
    audit = reopened.audit()
    assert (audit.nodes, audit.leaf_entries) == (
        want_audit.nodes, want_audit.leaf_entries
    )
    reopened.close()


def test_forest_manifest_restores_refitted_partitioner(tmp_path):
    rng = random.Random(4)
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest.create(
        str(tmp_path / "f"), FOREST_CONFIG, clock=clock
    )
    entries = [(random_point(rng, 0.0), 2000 + i) for i in range(120)]
    forest.bulk_load(entries)  # refits the speed boundaries
    boundaries = forest.partitioner.boundaries
    forest.close()

    reopened = PartitionedMovingObjectForest.open(
        str(tmp_path / "f"), FOREST_CONFIG
    )
    assert reopened.partitioner.boundaries == boundaries
    reopened.close()


def test_forest_open_rejects_partition_mismatch(tmp_path):
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest.create(
        str(tmp_path / "f"), FOREST_CONFIG, clock=clock
    )
    forest.close()
    with pytest.raises(ValueError):
        PartitionedMovingObjectForest.open(
            str(tmp_path / "f"), FOREST_CONFIG.with_(partitions=5)
        )


def test_forest_persist_to_from_simulated(tmp_path):
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest(FOREST_CONFIG, clock)
    populate(forest, clock)
    reports = forest.persist_to(str(tmp_path / "snap"))
    assert len(reports) == FOREST_CONFIG.partitions
    queries = probe_queries(clock.time)
    want = [sorted(forest.query(q)) for q in queries]
    reopened = PartitionedMovingObjectForest.open(
        str(tmp_path / "snap"), FOREST_CONFIG
    )
    assert [sorted(reopened.query(q)) for q in queries] == want
    reopened.close()


# -- idempotent shutdown and failed-commit safety -----------------------------


def test_tree_close_and_checkpoint_idempotent(tmp_path):
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    rng = random.Random(0)
    for oid in range(4):
        tree.insert(oid, random_point(rng, 0.0))
    tree.checkpoint()
    tree.close()
    tree.close()       # a second close is a no-op
    tree.checkpoint()  # and so is a checkpoint on the closed store
    assert tree.disk.closed


def test_tree_close_safe_after_failed_commit(tmp_path):
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path / "t"), CONFIG, clock)
    rng = random.Random(2)
    for oid in range(5):
        tree.insert(oid, random_point(rng, 0.0))
    # The next insert's group commit fails transiently: the in-memory
    # mutation is complete, the encoded batch stays pending.
    tree.disk.arm_injector(FaultInjector(transient_writes={1}))
    with pytest.raises(TransientIOError):
        tree.insert(5, random_point(rng, 0.0))
    tree.close()  # re-drives the pending commit, then closes
    tree.close()  # idempotent after the failure path too
    reopened = MovingObjectTree.open_from(
        str(tmp_path / "t"), CONFIG, SimulationClock()
    )
    answer = set(
        reopened.query(TimesliceQuery(Rect((0, 0), (100, 100)), 0.0))
    )
    assert answer == set(range(6)), "the pending batch must be durable"
    reopened.close()


def test_forest_close_and_checkpoint_idempotent(tmp_path):
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest.create(
        str(tmp_path / "f"),
        ForestConfig(tree=CONFIG, partitions=2),
        clock=clock,
    )
    rng = random.Random(1)
    for oid in range(8):
        forest.insert(oid, random_point(rng, 0.0))
    forest.checkpoint()
    forest.close()
    forest.close()       # every member close is a no-op the second time
    forest.checkpoint()  # checkpoints on closed members are no-ops
    assert all(tree.disk.closed for tree in forest.trees)


def test_forest_close_safe_after_failed_member_commit(tmp_path):
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest.create(
        str(tmp_path / "f"),
        ForestConfig(tree=CONFIG, partitions=2),
        clock=clock,
    )
    rng = random.Random(3)
    points = {oid: random_point(rng, 0.0) for oid in range(8)}
    inserted = []
    for oid, point in points.items():
        forest.insert(oid, point)
        inserted.append(oid)
    # Fault one member's next commit; whichever insert routes there
    # fails transiently but stays pending inside that member's store.
    forest.trees[0].disk.arm_injector(FaultInjector(transient_writes={1}))
    failed = None
    for oid in range(8, 16):
        point = random_point(rng, 0.0)
        points[oid] = point
        try:
            forest.insert(oid, point)
        except TransientIOError:
            failed = oid
            break
        inserted.append(oid)
    assert failed is not None, "some insert must route to the faulted member"
    forest.close()  # commits the pending batch on the faulted member
    forest.close()
    reopened = PartitionedMovingObjectForest.open(
        str(tmp_path / "f"), ForestConfig(tree=CONFIG, partitions=2)
    )
    answer = set(
        reopened.query(TimesliceQuery(Rect((0, 0), (100, 100)), 0.0))
    )
    assert answer == set(inserted) | {failed}
    reopened.close()


# -- same trees, same logs: golden digests --------------------------------------
#
# Bounding, ChooseSubtree, split and purge run on array kernels; none of
# that may change a decision a tree makes.  The digests below were
# computed by these very functions at commit b959b87 (PR 20), the last
# one whose nodes were lists of tuples and whose kernels had a scalar
# twin to be compared against: a float, an operation order or an rng
# draw that moves shows up as different bytes on disk.

GOLDEN_UPDATES = {
    # 300 updates at unit scale (coordinates in [0, 100]).
    100: {
        "audit": (2, 10, 135, 1, 9, 0),
        "wal":
            "5c5763b0be6abe64ec4c397765d9351b70117aa4970e5d9587a5ce36f7116fb7",
        "pages":
            "fb0d95278d8c152807cd966e9997f8ed203400eac7269b67b8c8f94226027fd6",
    },
    # The same stream at side 1000: binary32 rounding is in scope.
    1000: {
        "audit": (2, 11, 138, 4, 10, 0),
        "wal":
            "eb9bbcd6c436f17401def68cc44929ec5d0d03e367a120b2bdcede3678b59356",
        "pages":
            "4b48f43b5ad6e29d720acb51e016a3d6b0a46f3b2eed9d1c1cc250b82be054ee",
    },
}

GOLDEN_EXPIRING = {
    "audit": (2, 11, 179, 130, 10, 0),
    "wal":
        "a754abe4bd4ebd66bb0926ae182f4388e00a11353c7c8250f886b3e377c3980c",
    "pages":
        "b5b6cc612217950f05756cb930e34ecee65fd58ba69a492849ad2d143afaf01a",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(tree, directory):
    """``audit()``, the whole log (nothing truncated yet), the closed file."""
    audit = dataclasses.astuple(tree.audit())
    wal = _sha256(directory / "wal.rexp")
    tree.close()
    return {
        "audit": audit, "wal": wal, "pages": _sha256(directory / "pages.rexp")
    }


@pytest.mark.parametrize("side", sorted(GOLDEN_UPDATES))
def test_durable_updates_match_golden_digests(tmp_path, monkeypatch, side):
    from repro.geometry import kernels

    pair_calls = []
    real = kernels._near_optimal_pairs
    monkeypatch.setattr(
        kernels, "_near_optimal_pairs",
        lambda *args: pair_calls.append(1) or real(*args),
    )
    rng = random.Random(11)
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path), CONFIG, clock)
    points = {}
    for step in range(300):
        clock.advance_to(step * 0.1)
        oid = rng.randrange(200)
        life = math.inf if rng.random() < 0.1 else rng.uniform(5, 60)
        point = MovingPoint(
            (rng.uniform(0, side), rng.uniform(0, side)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            clock.time, clock.time + life,
        )
        if oid in points:
            tree.update(oid, points[oid], point)
        else:
            tree.insert(oid, point)
        points[oid] = point
    assert len(pair_calls) > 100, "the pair kernel (almost) never ran"
    assert _digests(tree, tmp_path) == GOLDEN_UPDATES[side]


def test_expiring_stream_matches_golden_digests(tmp_path):
    """Bulk load, then 200 updates confined to a strip while all else expires.

    Lifetimes are 1-12 s and the stream runs 20 s, so the bulk-loaded
    entries outside the strip die untouched: lazy purge, splits, forced
    reinserts, condense-drops and expired-subtree deallocations all
    occur (the counters say so) on the way to the golden bytes.
    """
    rng = random.Random(0)
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(str(tmp_path), CONFIG, clock)
    registry = MetricsRegistry()
    tree.enable_observability(registry)

    def report(t, side):
        return MovingPoint(
            (rng.uniform(0, side), rng.uniform(0, 1000)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            t, t + rng.uniform(1.0, 12.0),
        )

    points = {oid: report(0.0, 1000.0) for oid in range(400)}
    tree.bulk_load([(p, oid) for oid, p in points.items()])
    strip = [oid for oid, p in points.items() if p.pos[0] < 300.0]
    for step in range(200):
        clock.advance_to((step + 1) * 0.1)
        oid = rng.choice(strip)
        point = report(clock.time, 300.0)
        tree.update(oid, points[oid], point)
        points[oid] = point
    for name in (
        "tree.purge_events", "tree.splits", "tree.forced_reinserts",
        "tree.condense_drops", "tree.purged_subtrees",
    ):
        assert registry.counter(name).value > 0, name
    assert _digests(tree, tmp_path) == GOLDEN_EXPIRING
