"""Tests for the snapshot-plus-overlay degraded reader."""

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.tree import MovingObjectTree
from repro.geometry import Rect, TimesliceQuery
from repro.geometry.kinematics import MovingPoint
from repro.serve.degraded import DegradedReader
from repro.workloads.base import DeleteOp, InsertOp, QueryOp


def _point(x, y, vx=0.0, vy=0.0, t_ref=0.0, t_exp=1000.0):
    return MovingPoint((x, y), (vx, vy), t_ref, t_exp)


def _tree_with(entries):
    tree = MovingObjectTree(TreeConfig(page_size=512), SimulationClock())
    for oid, point in entries:
        tree.insert(oid, point)
    return tree


def _ts(lo, hi, t):
    return TimesliceQuery(Rect(lo, hi), t)


def test_snapshot_answers_without_overlay():
    tree = _tree_with([(1, _point(10, 10)), (2, _point(80, 80))])
    reader = DegradedReader(tree.snapshot(), snapshot_op_index=5)
    answer = reader.query(_ts((0, 0), (20, 20), 1.0), now=3.0)
    assert answer.oids == (1,)
    assert answer.staleness == pytest.approx(3.0)
    assert answer.snapshot_op_index == 5
    assert answer.overlay_oids == ()
    assert 1 in answer.evidence


def test_overlay_insert_adds_and_is_flagged():
    tree = _tree_with([(1, _point(10, 10))])
    reader = DegradedReader(tree.snapshot(), 0)
    reader.apply(InsertOp(2.0, 7, _point(15, 15)))
    answer = reader.query(_ts((0, 0), (20, 20), 2.0), now=2.0)
    assert answer.oids == (1, 7)
    assert answer.overlay_oids == (7,)


def test_overlay_delete_hides_snapshot_entry():
    tree = _tree_with([(1, _point(10, 10)), (2, _point(12, 12))])
    reader = DegradedReader(tree.snapshot(), 0)
    reader.apply(DeleteOp(2.0, 1, _point(10, 10)))
    answer = reader.query(_ts((0, 0), (20, 20), 2.0), now=2.0)
    assert answer.oids == (2,)


def test_overlay_update_shadows_old_position():
    tree = _tree_with([(1, _point(10, 10))])
    reader = DegradedReader(tree.snapshot(), 0)
    # An update is delete-then-insert; the new position is far away.
    reader.apply(DeleteOp(2.0, 1, _point(10, 10)))
    reader.apply(InsertOp(2.0, 1, _point(90, 90)))
    near = reader.query(_ts((0, 0), (20, 20), 2.0), now=2.0)
    far = reader.query(_ts((80, 80), (100, 100), 2.0), now=2.0)
    assert near.oids == ()
    assert far.oids == (1,)
    assert far.overlay_oids == (1,)


def test_expired_entries_never_match():
    tree = _tree_with([(1, _point(10, 10, t_exp=5.0))])
    reader = DegradedReader(tree.snapshot(), 0)
    # Query strictly after the entry's expiration: clipped out.
    answer = reader.query(_ts((0, 0), (20, 20), 6.0), now=6.0)
    assert answer.oids == ()


def test_snapshot_is_isolated_from_later_mutations():
    tree = _tree_with([(1, _point(10, 10))])
    reader = DegradedReader(tree.snapshot(), 0)
    tree.delete(1, _point(10, 10))
    tree.insert(2, _point(11, 11))
    answer = reader.query(_ts((0, 0), (20, 20), 1.0), now=1.0)
    assert answer.oids == (1,), "snapshot must not see post-cut mutations"


def test_query_atoms_cannot_be_overlaid():
    tree = _tree_with([(1, _point(10, 10))])
    reader = DegradedReader(tree.snapshot(), 0)
    with pytest.raises(ValueError):
        reader.apply(QueryOp(1.0, _ts((0, 0), (20, 20), 1.0)))
