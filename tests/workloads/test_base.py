"""Tests for the operation-stream model."""

import pytest

from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.workloads.base import (
    DeleteOp,
    InsertOp,
    QueryOp,
    UpdateOp,
    Workload,
)


def p(t=0.0):
    return MovingPoint((0.0, 0.0), (1.0, 1.0), t, t + 10.0)


def q(t=0.0):
    return QueryOp(t, TimesliceQuery(Rect((0.0, 0.0), (1.0, 1.0)), t))


def test_counts():
    w = Workload("w", [
        InsertOp(0.0, 1, p()),
        UpdateOp(1.0, 1, p(), p(1.0)),
        DeleteOp(2.0, 1, p(1.0)),
        q(3.0),
    ])
    assert len(w) == 4
    assert w.insertion_count == 2  # insert + update-insert
    assert w.query_count == 1


def test_validate_accepts_sorted():
    w = Workload("w", [InsertOp(0.0, 1, p()), q(1.0), q(1.0)])
    w.validate()


def test_validate_rejects_unsorted():
    w = Workload("w", [q(2.0), q(1.0)])
    with pytest.raises(ValueError):
        w.validate()


def test_iteration_order():
    ops = [InsertOp(0.0, 1, p()), q(1.0)]
    w = Workload("w", ops)
    assert list(w) == ops


# -- the operation interpreter -------------------------------------------------


class _Recorder:
    """An index that records the calls ``apply_op`` makes."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append((name, args))
            return name

        return call


def test_apply_op_maps_each_operation_to_one_index_call():
    from repro.workloads.base import KnnOp, apply_op

    index = _Recorder()
    old, new, query = p(), p(1.0), q(3.0)
    assert apply_op(index, InsertOp(0.0, 7, old)) == "insert"
    assert apply_op(index, UpdateOp(1.0, 7, old, new)) == "update"
    assert apply_op(index, DeleteOp(2.0, 7, new)) == "delete"
    assert apply_op(index, query) == "query"
    assert apply_op(index, KnnOp(4.0, (1.0, 2.0), 5.0, 3, 9.0)) == "knn_entries"
    assert index.calls == [
        ("insert", (7, old)),
        ("update", (7, old, new)),
        ("delete", (7, new)),
        ("query", (query.query,)),
        ("knn_entries", ((1.0, 2.0), 5.0, 3, 9.0)),
    ]
    with pytest.raises(TypeError):
        apply_op(index, "not an operation")


def test_op_atoms_splits_only_updates():
    from repro.workloads.base import op_atoms

    old, new = p(), p(1.0)
    assert op_atoms(UpdateOp(1.0, 7, old, new)) == (
        DeleteOp(1.0, 7, old), InsertOp(1.0, 7, new),
    )
    for op in (InsertOp(0.0, 7, old), DeleteOp(2.0, 7, new), q(3.0)):
        assert op_atoms(op) == (op,)


def test_route_op_decomposes_only_cross_partition_updates():
    from repro.core.partition import GridPartitioner
    from repro.workloads.base import route_op

    grid = GridPartitioner(2, 2, space=100.0, reach=10.0)

    def at(x, y):
        return MovingPoint((x, y), (0.0, 0.0), 0.0, 50.0)

    west, also_west, east = at(10.0, 10.0), at(20.0, 30.0), at(90.0, 10.0)
    assert route_op(grid, InsertOp(0.0, 1, west)) == [
        (0, InsertOp(0.0, 1, west))
    ]
    assert route_op(grid, DeleteOp(0.0, 1, east)) == [
        (1, DeleteOp(0.0, 1, east))
    ]
    same = UpdateOp(1.0, 1, west, also_west)
    assert route_op(grid, same) == [(0, same)]
    assert route_op(grid, UpdateOp(1.0, 1, west, east)) == [
        (0, DeleteOp(1.0, 1, west)), (1, InsertOp(1.0, 1, east)),
    ]
    # A query goes wherever its region can reach, in the partitioner's
    # own order — for a grid that is column-major, not ascending.
    everywhere = QueryOp(
        2.0, TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 2.0)
    )
    assert [index for index, _ in route_op(grid, everywhere)] == [0, 2, 1, 3]
    corner = QueryOp(2.0, TimesliceQuery(Rect((0.0, 0.0), (5.0, 5.0)), 2.0))
    assert route_op(grid, corner) == [(0, corner)]
    with pytest.raises(TypeError):
        route_op(grid, "not an operation")
