"""Degraded reads: answering queries from the last committed snapshot.

While the circuit breaker is open the storage path is considered
unhealthy, but queries still deserve an answer.  The
:class:`DegradedReader` serves them from the last checkpoint's
:class:`~repro.core.tree.EntrySnapshot` — pure
in-memory float64 state, no storage I/O — patched with an *overlay* of
every write that arrived since the outage began, so degraded answers see
the frontend's own backlogged writes.

Staleness is bounded by construction: the snapshot is at most one
checkpoint interval plus one breaker outage old, and every answer
reports its own staleness so the soak harness can assert the bound.
The correctness envelope is the one TR-82's expiration semantics give
us: relative to a fault-free oracle, a degraded answer can only *add*
objects whose previously-reported motion still matched the query within
its expiration window — it never invents positions, and anything it
misses was reported after the snapshot was cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geometry.intersection import region_matches_point
from ..geometry.kinematics import MovingPoint
from ..geometry.queries import SpatioTemporalQuery
from ..workloads.base import DeleteOp, InsertOp, Operation


@dataclass(frozen=True)
class DegradedAnswer:
    """A query answer produced from snapshot-plus-overlay state.

    Attributes
    ----------
    oids : tuple of int
        Matching object ids, sorted.
    staleness : float
        Index-clock age of the underlying snapshot at answer time.
    snapshot_op_index : int
        Workload operation index up to which the snapshot is current.
    overlay_oids : tuple of int
        Object ids whose match came from the post-snapshot overlay
        rather than the snapshot itself.
    evidence : dict
        For every answered oid, the motion point that matched — the
        soak harness checks each against the oracle's report history.
    """

    oids: Tuple[int, ...]
    staleness: float
    snapshot_op_index: int
    overlay_oids: Tuple[int, ...] = ()
    evidence: Dict[int, MovingPoint] = field(default_factory=dict)


class DegradedReader:
    """Serve queries from a snapshot patched with backlogged writes.

    Parameters
    ----------
    snapshot : EntrySnapshot
        Committed state captured at the last checkpoint.
    snapshot_op_index : int
        Workload operation index the snapshot reflects (for staleness
        reporting and oracle alignment in the soak harness).
    """

    def __init__(self, snapshot, snapshot_op_index: int):
        self.snapshot = snapshot
        self.snapshot_op_index = snapshot_op_index
        #: oid -> latest post-snapshot point, or None once deleted.
        self.overlay: Dict[int, Optional[MovingPoint]] = {}

    def rebase(self, snapshot, snapshot_op_index: int) -> None:
        """Swap in a fresher committed base, keeping the overlay.

        The overlay holds strictly newer per-oid information than any
        committed base, so it shadows the new snapshot exactly as it
        shadowed the old one: a base entry for an overlaid oid is
        ignored whether the base predates the overlay write (stale) or
        already contains it (identical).  This is how the breaker's
        degraded-read path generalizes from "last checkpoint" to "live
        follower" — the frontend rebases whenever a replica has applied
        past the checkpoint snapshot.
        """
        self.snapshot = snapshot
        self.snapshot_op_index = snapshot_op_index

    def apply(self, atom: Operation) -> None:
        """Fold one backlogged write atom into the overlay.

        Parameters
        ----------
        atom : InsertOp or DeleteOp
            The same single-commit atoms
            (:func:`repro.workloads.base.op_atoms`) the frontend drives
            the index with.
        """
        if isinstance(atom, InsertOp):
            self.overlay[atom.oid] = atom.point
        elif isinstance(atom, DeleteOp):
            self.overlay[atom.oid] = None
        else:  # pragma: no cover - queries are never backlogged
            raise ValueError(f"cannot overlay non-write atom {atom!r}")

    def query(self, query: SpatioTemporalQuery, now: float) -> DegradedAnswer:
        """Answer ``query`` from the snapshot, shadowed by the overlay.

        Snapshot entries for overlaid oids are ignored — the overlay
        holds strictly newer information — and overlay points are
        matched with the same clipped-at-expiration predicate the live
        tree uses, so degraded answers obey identical expiration
        semantics.
        """
        region = query.region()
        evidence: Dict[int, MovingPoint] = {}
        for point, oid in self.snapshot.leaf_entries():
            if oid in self.overlay:
                continue
            if region_matches_point(region, point):
                evidence[oid] = point
        overlay_hits: List[int] = []
        for oid, point in self.overlay.items():
            if point is not None and region_matches_point(region, point):
                evidence[oid] = point
                overlay_hits.append(oid)
        return DegradedAnswer(
            oids=tuple(sorted(evidence)),
            staleness=now - self.snapshot.taken_at,
            snapshot_op_index=self.snapshot_op_index,
            overlay_oids=tuple(sorted(overlay_hits)),
            evidence=evidence,
        )
