"""I/O statistics collection.

Every figure in the paper reports disk I/O operations (page reads and
writes).  :class:`IOStats` is the single accounting object shared by the
disk manager and the buffer pool; the experiment runner snapshots it
around each index operation to attribute I/O to searches versus updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import Histogram


@dataclass
class IOStats:
    """Running counters of simulated disk activity.

    Attributes
    ----------
    reads : int
        Number of pages fetched from disk (buffer misses).
    writes : int
        Number of pages written back to disk.
    allocations : int
        Number of pages ever allocated.
    frees : int
        Number of pages deallocated.
    """

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    @property
    def total(self) -> int:
        """Total I/O operations (reads plus writes)."""
        return self.reads + self.writes

    def snapshot(self) -> "IOSnapshot":
        """Capture the current counter values."""
        return IOSnapshot(self.reads, self.writes, self.allocations, self.frees)

    def since(self, snap: "IOSnapshot") -> "IOSnapshot":
        """Return the delta between now and an earlier :meth:`snapshot`."""
        return self.snapshot() - snap

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0


@dataclass(frozen=True)
class IOSnapshot:
    """Immutable view of :class:`IOStats` counters at one point in time."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    @property
    def total(self) -> int:
        """Total I/O operations (reads plus writes)."""
        return self.reads + self.writes

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        """Add two snapshots counter-wise."""
        return IOSnapshot(
            self.reads + other.reads,
            self.writes + other.writes,
            self.allocations + other.allocations,
            self.frees + other.frees,
        )

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        """Subtract an earlier snapshot counter-wise."""
        return IOSnapshot(
            self.reads - other.reads,
            self.writes - other.writes,
            self.allocations - other.allocations,
            self.frees - other.frees,
        )


@dataclass
class OperationStats:
    """Aggregate per-operation-class I/O tallies for one experiment run.

    The paper reports *average* search I/O per query and *average* update
    I/O per insertion or deletion; this accumulator produces both.
    """

    search_io: int = 0
    search_ops: int = 0
    update_io: int = 0
    update_ops: int = 0
    auxiliary_io: int = 0
    setup_io: int = 0
    search_io_hist: Histogram = field(
        default_factory=lambda: Histogram("search_io")
    )
    update_io_hist: Histogram = field(
        default_factory=lambda: Histogram("update_io")
    )

    def record_search(self, io: int) -> None:
        """Charge one query's page I/O to the search tally."""
        self.search_io += io
        self.search_ops += 1
        self.search_io_hist.record(io)

    def record_update(self, io: int) -> None:
        """Charge one insert/delete's page I/O to the update tally."""
        self.update_io += io
        self.update_ops += 1
        self.update_io_hist.record(io)

    def record_setup(self, io: int) -> None:
        """One-time build I/O (bulk loading); kept out of update averages."""
        self.setup_io += io

    def record_auxiliary(self, io: int) -> None:
        """I/O charged to side structures (e.g. the scheduled-deletion B-tree)."""
        self.auxiliary_io += io

    @property
    def avg_search_io(self) -> float:
        """Average I/O per query (the y-axis of Figures 9-14)."""
        if self.search_ops == 0:
            return 0.0
        return self.search_io / self.search_ops

    @property
    def avg_update_io(self) -> float:
        """Average I/O per insert/delete (the y-axis of Figure 16)."""
        if self.update_ops == 0:
            return 0.0
        return self.update_io / self.update_ops

    @property
    def avg_update_io_with_auxiliary(self) -> float:
        """Update I/O including side-structure costs the paper excludes."""
        if self.update_ops == 0:
            return 0.0
        return (self.update_io + self.auxiliary_io) / self.update_ops

    @property
    def search_io_p50(self) -> float:
        """Median I/O per query (the tail behind the Figure 9-14 averages)."""
        return self.search_io_hist.p50

    @property
    def search_io_p95(self) -> float:
        """95th-percentile I/O per query."""
        return self.search_io_hist.p95

    @property
    def search_io_p99(self) -> float:
        """99th-percentile I/O per query."""
        return self.search_io_hist.p99
