"""Workloads: timestamped operation streams (Section 5.1).

A workload intermixes insertions, updates (a deletion immediately
followed by an insertion) and queries, "simulating index usage across a
period of time".  Workload generators produce these streams; the
experiment runner replays them against index adapters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from ..geometry.kinematics import MovingPoint
from ..geometry.queries import SpatioTemporalQuery


@dataclass(frozen=True)
class InsertOp:
    """An object reports its first position (or re-appears)."""

    time: float
    oid: int
    point: MovingPoint


@dataclass(frozen=True)
class UpdateOp:
    """An object reports fresh parameters: delete old, insert new."""

    time: float
    oid: int
    old_point: MovingPoint
    new_point: MovingPoint


@dataclass(frozen=True)
class DeleteOp:
    """An object explicitly leaves the service."""

    time: float
    oid: int
    point: MovingPoint


@dataclass(frozen=True)
class QueryOp:
    """A timeslice/window/moving query issued at ``time``."""

    time: float
    query: SpatioTemporalQuery


@dataclass(frozen=True)
class KnnOp:
    """A k-nearest-neighbor request issued at ``time``.

    Asks for the ``k`` objects nearest to location ``x`` at evaluation
    time ``t``; ``bound_sq`` is an optional squared-distance cutoff a
    scatter layer threads through to prune a member's descent (the
    shard router tightens it shard by shard).  Not part of the
    :data:`Operation` routing union — kNN rides its own scatter path,
    not the report stream.
    """

    time: float
    x: Tuple[float, ...]
    t: float
    k: int
    bound_sq: float = math.inf


Operation = Union[InsertOp, UpdateOp, DeleteOp, QueryOp]


def apply_op(index, op):
    """Apply one operation to an index; return what the index returned.

    The single interpreter of the operation vocabulary: ``index`` is
    anything implementing the index contract
    (:mod:`repro.core.index`).  Writes return ``None`` (insert) or
    whether the old entry was found (update, delete — ``False`` is a
    failed deletion); a query returns its oids, a kNN request its
    scored ``(squared distance, oid)`` pairs.  The caller advances the
    index clock to ``op.time`` first.
    """
    if isinstance(op, UpdateOp):
        return index.update(op.oid, op.old_point, op.new_point)
    if isinstance(op, InsertOp):
        return index.insert(op.oid, op.point)
    if isinstance(op, DeleteOp):
        return index.delete(op.oid, op.point)
    if isinstance(op, QueryOp):
        return index.query(op.query)
    if isinstance(op, KnnOp):
        return index.knn_entries(op.x, op.t, op.k, op.bound_sq)
    raise TypeError(f"unknown operation {op!r}")


def apply_batch(tree, clock, ops: Sequence) -> Tuple[list, list, int]:
    """Apply a batch of operations to one tree, in order.

    Returns ``(answers, scored, failed deletes)``: ``answers`` pairs
    each query's position in the batch with its oids, ``scored`` each
    kNN request's position with its ``(squared distance, oid)`` pairs.
    The clock advances to every operation's time before it applies.

    Runs of consecutive queries at the same timestamp are answered
    through one ``tree.query_batch`` — one shared traversal for the
    run — whose answers are bit-identical to querying them one by one;
    a lone query is a plain ``tree.query``.
    """
    answers = []
    scored = []
    failed = 0
    total = len(ops)
    position = 0
    while position < total:
        op = ops[position]
        clock.advance_to(op.time)
        stop = position + 1
        if isinstance(op, QueryOp):
            while (
                stop < total
                and isinstance(ops[stop], QueryOp)
                and ops[stop].time == op.time
            ):
                stop += 1
        if stop > position + 1:
            run = [ops[i].query for i in range(position, stop)]
            for offset, oids in enumerate(tree.query_batch(run)):
                answers.append((position + offset, oids))
            position = stop
            continue
        outcome = apply_op(tree, op)
        if isinstance(op, QueryOp):
            answers.append((position, outcome))
        elif isinstance(op, KnnOp):
            scored.append((position, outcome))
        elif outcome is False:
            failed += 1
        position += 1
    return answers, scored, failed


def op_atoms(op) -> tuple:
    """The single-commit atoms of an operation, in application order.

    An update is a deletion followed by an insertion — *two* commits on
    a durable index, so a crash, a breaker trip or a partition boundary
    can legitimately fall between them.  Every other operation is its
    own atom.
    """
    if isinstance(op, UpdateOp):
        return (
            DeleteOp(op.time, op.oid, op.old_point),
            InsertOp(op.time, op.oid, op.new_point),
        )
    return (op,)


def route_op(partitioner, op) -> List[tuple]:
    """Where an operation goes: ``[(partition, operation), ...]``.

    A report routes by the pure ``partition_of`` its insertion used; an
    update whose halves land in one partition stays one operation, and
    one that migrates decomposes into its :func:`op_atoms`; a query
    goes to every partition its region can reach, in the partitioner's
    own ``query_partitions`` order.
    """
    if isinstance(op, UpdateOp):
        old = partitioner.partition_of(op.old_point)
        new = partitioner.partition_of(op.new_point)
        if old == new:
            return [(old, op)]
        delete, insert = op_atoms(op)
        return [(old, delete), (new, insert)]
    if isinstance(op, (InsertOp, DeleteOp)):
        return [(partitioner.partition_of(op.point), op)]
    if isinstance(op, QueryOp):
        return [
            (index, op)
            for index in partitioner.query_partitions(op.query.region())
        ]
    raise TypeError(f"cannot route operation {op!r}")


@dataclass
class Workload:
    """A generated operation stream plus its generation parameters."""

    name: str
    ops: List[Operation] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def insertion_count(self) -> int:
        """Insertions in the paper's sense: inserts plus update-inserts."""
        return sum(
            1 for op in self.ops if isinstance(op, (InsertOp, UpdateOp))
        )

    @property
    def query_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, QueryOp))

    def validate(self) -> None:
        """Check timestamps are sorted and points are well-formed."""
        last = float("-inf")
        for op in self.ops:
            if op.time < last:
                raise ValueError(
                    f"operation at {op.time} precedes earlier {last}"
                )
            last = op.time
