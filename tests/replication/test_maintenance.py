"""Tests for online WAL maintenance: incremental, gated, bounded."""

from repro.obs import MetricsRegistry
from repro.replication import OnlineMaintainer

from .helpers import catch_up, drive, make_pair, make_primary
from .test_replica import _panel


def test_idle_below_soft_limit(tmp_path):
    tree = make_primary(tmp_path / "primary")
    maintainer = OnlineMaintainer(tree.disk, wal_soft_limit=1 << 30)
    drive(tree, 5)
    assert maintainer.step() is False
    assert maintainer.run_cycle() is None
    assert maintainer.cycles == 0
    tree.close()


def test_cycle_truncates_and_preserves_answers(tmp_path):
    tree = make_primary(tmp_path / "primary")
    maintainer = OnlineMaintainer(tree.disk, wal_soft_limit=2048)
    drive(tree, 30)
    before = maintainer.wal_bytes()
    assert before >= 2048
    now = tree.clock.time
    want = [sorted(tree.query(q)) for q in _panel(now)]
    steps = maintainer.run_cycle()
    assert steps is not None and maintainer.cycles == 1
    assert maintainer.wal_bytes() < before
    assert [sorted(tree.query(q)) for q in _panel(now)] == want
    # The truncated store still accepts and persists writes.
    drive(tree, 5, start_oid=500)
    tree.close()


def test_steps_interleave_with_serving(tmp_path):
    tree = make_primary(tmp_path / "primary")
    maintainer = OnlineMaintainer(
        tree.disk, wal_soft_limit=2048, chain_budget=1
    )
    drive(tree, 30)
    # One insert between every maintenance step: each step is bounded
    # work and a write landing mid-cycle never corrupts the cycle.
    oid = 1000
    for _ in range(200):
        maintainer.step()
        drive(tree, 1, start_oid=oid, seed=oid)
        oid += 1
        if maintainer.cycles:
            break
    assert maintainer.cycles >= 1
    now = tree.clock.time
    reopened_want = [sorted(tree.query(q)) for q in _panel(now)]
    assert all(isinstance(a, list) for a in reopened_want)
    tree.close()


def test_spill_mode_truncates_while_replica_lags(tmp_path):
    registry = MetricsRegistry()
    tree, shipper, replica, channel = make_pair(tmp_path, registry=registry)
    maintainer = OnlineMaintainer(
        tree.disk, wal_soft_limit=1024, registry=registry
    )
    drive(tree, 20)  # committed, not shipped
    assert maintainer.run_cycle() is not None
    assert maintainer.cycles == 1
    assert registry.value("replication.spills") >= 1
    # The spilled batches are still fetchable: the lagging replica
    # catches up from the archive and answers match.
    catch_up(channel, replica)
    assert replica.applied_op_seq == tree.disk.op_seq
    now = tree.clock.time
    want = [sorted(tree.query(q)) for q in _panel(now)]
    assert [replica.query(q) for q in _panel(now)] == want
    tree.close()
    replica.close()


def test_repeated_cycles_bound_the_footprint(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    maintainer = OnlineMaintainer(tree.disk, wal_soft_limit=4096)
    high_water = 0
    for round_ in range(6):
        drive(tree, 15, start_oid=round_ * 100)
        catch_up(channel, replica)
        maintainer.run_cycle()
        high_water = max(high_water, maintainer.wal_bytes())
    assert maintainer.cycles >= 3
    # Each cycle resets the log, so the post-cycle footprint never
    # accumulates across rounds.
    assert high_water < 64 * 1024
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()
