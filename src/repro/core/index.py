"""The index contract: what every moving-object index shape offers.

The paper defines one interface (Sections 2.1 and 5.1): objects report
``(position, velocity, t_exp)``; the index takes insertions, deletions
and updates and answers timeslice, window and moving queries.  Every
shape in this package — the tree, the velocity forest, the sharded
forest, the scheduled-deletion index, an accounted experiment adapter
and (for reads) a replica — is that one index.  A shape supplies the
*primitives*:

``clock``
    the shared :class:`~repro.core.clock.SimulationClock`;
``insert(oid, point)`` / ``delete(oid, point) -> bool``
    index or remove one report (``False``: no live entry was found);
``query(q)`` / ``query_batch(qs)``
    matching oids; ``query(q) == query_batch([q])[0]``, order included;
``knn_entries(x, t, k, bound_sq=inf)``
    at most ``k`` ``(squared distance, oid)`` pairs, ascending, none
    strictly farther than ``bound_sq`` — the order
    :func:`repro.geometry.knn.brute_force_knn` defines;
``snapshot()`` / ``audit()``
    an :class:`~repro.core.tree.EntrySnapshot` of the leaf entries and
    a :class:`~repro.core.tree.TreeAudit` census, neither charging I/O;
``local_stores()``
    the page stores this process owns (a tree's disk, a forest's
    members' disks, none for a sharded forest whose stores live in
    worker processes) — whose commits a serving frontend tracks.

:class:`MovingObjectIndex` holds what *follows* from the primitives, so
it is written once.  It declares no abstract methods: a replica has no
write half, and the scheduled-deletion index forwards the read surface
it does not own to its tree.  Nothing type-checks against it — callers
stay duck-typed, so a ``__getattr__`` proxy around any shape is still
an index.
"""

from __future__ import annotations

from typing import List

from ..geometry.kinematics import MovingPoint


class MovingObjectIndex:
    """Derived operations shared by every index shape."""

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self.clock.time

    def update(
        self, oid: int, old_point: MovingPoint, new_point: MovingPoint
    ) -> bool:
        """Delete the old report and insert the new one (Section 5.1).

        In a partitioned shape the two halves route independently, so
        an object whose class changed migrates between members.

        Returns:
            True if the old entry was found (it may have expired or
            been lazily purged, which is harmless).
        """
        existed = self.delete(oid, old_point)
        self.insert(oid, new_point)
        return existed

    def query_knn(self, x, t: float, k: int) -> List[int]:
        """The ``k`` objects nearest to ``x`` at time ``t``, nearest first.

        Object ids ordered by ``(squared distance at t, oid)``: ties in
        distance resolve by ascending oid, expired information never
        qualifies (an entry is live through ``t_exp`` inclusive),
        ``k = 0`` returns ``[]`` and a ``k`` beyond the live population
        returns every live object.  Every shape's answer is
        bit-identical to the brute-force oracle over the same entries;
        how a shape finds it is its ``knn_entries``.
        """
        return [oid for _, oid in self.knn_entries(x, t, k)]
