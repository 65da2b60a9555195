"""Crash-consistency checker: crash at every write, recover, compare.

The durability guarantee this package makes is concrete: whatever
physical write a crash interrupts, reopening the directory recovers the
index to its last *committed* operation, and that recovered index
answers all three query types exactly as a never-crashed replay of the
same operation prefix would.  This module turns that sentence into a
machine check.

The check has three parts:

1. A *recording* pass replays the workload against a durable tree whose
   fault injector merely counts physical writes, producing the total
   write count and the committed operation sequence number after every
   operation.
2. For every write index (or every ``stride``-th one) and every fault
   mode, a fresh replay crashes at exactly that write — the process
   "dies" mid-write via :class:`~repro.storage.faults.SimulatedCrash`
   with the file torn or bit-flipped exactly as a real crash could
   leave it — and the directory is reopened, running WAL recovery.
3. The recovered tree is compared against an *oracle*: a clean replay
   of the committed operation prefix, closed and reopened so both sides
   saw the same float32 page round-trip.  Query answers for all three
   query types and the structural census must match.

A crash before the first commit legitimately leaves nothing durable;
such an open failure is accepted if and only if the crashed directory's
write-ahead log contains no intact commit record.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.tree import MovingObjectTree
from ..geometry import MovingQuery, Rect, TimesliceQuery, WindowQuery
from ..storage.faults import MODES, FaultInjector, SimulatedCrash
from ..storage.pagefile import WAL_FILENAME
from ..storage.wal import COMMIT_RECORD, scan_wal
from ..workloads.base import (
    DeleteOp,
    InsertOp,
    Operation,
    UpdateOp,
    apply_op,
    op_atoms,
)
from ..workloads.expiration import FixedPeriod
from ..workloads.uniform import UniformParams, generate_uniform_workload


@dataclass(frozen=True)
class CrashOutcome:
    """What happened at one (write index, fault mode) crash point.

    Attributes:
        write_index: the 1-based physical write the crash interrupted.
        mode: the fault mode (``kill``, ``torn`` or ``bitflip``).
        op_seq: committed operation sequence recovered (0 when the
            crash preceded the first commit and nothing was durable).
        ok: whether recovery met the durability guarantee.
        detail: human-readable diagnosis when ``ok`` is false.
    """

    write_index: int
    mode: str
    op_seq: int
    ok: bool
    detail: str = ""


@dataclass
class FaultCheckReport:
    """Aggregate result of a crash-at-every-write matrix run."""

    total_writes: int
    op_count: int
    stride: int
    modes: Tuple[str, ...]
    outcomes: List[CrashOutcome] = field(default_factory=list)
    wal_skipped_expired: int = 0

    @property
    def crash_points(self) -> int:
        """Number of (write index, mode) pairs exercised."""
        return len(self.outcomes)

    @property
    def failures(self) -> List[CrashOutcome]:
        """Crash points where recovery broke the guarantee."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def passed(self) -> bool:
        """Whether every crash point recovered correctly."""
        return not self.failures

    def summary(self) -> str:
        """One line: crash points, writes covered, pass/fail."""
        verdict = "PASS" if self.passed else f"FAIL({len(self.failures)})"
        return (
            f"faultcheck {verdict}: {self.crash_points} crash points "
            f"({self.total_writes} writes x {len(self.modes)} modes, "
            f"stride {self.stride}) over {self.op_count} ops; "
            f"expired-skips {self.wal_skipped_expired}"
        )


def default_workload(insertions: int = 80, seed: int = 0):
    """A small mixed workload sized for an exhaustive crash matrix."""
    params = UniformParams(
        target_population=40,
        insertions=insertions,
        update_interval=10.0,
        space=100.0,
        queries_per_insertions=10,
        seed=seed,
    )
    return generate_uniform_workload(params, FixedPeriod(20.0))


def _apply(tree: MovingObjectTree, clock: SimulationClock, op: Operation):
    """Replay one single-commit operation against a raw tree."""
    clock.advance_to(op.time)
    apply_op(tree, op)


def _space_extent(ops: Sequence[Operation]) -> Tuple[Tuple[float, ...], ...]:
    """Per-dimension (lo, hi) bounds over every point in the workload."""
    points = []
    for op in ops:
        if isinstance(op, InsertOp) or isinstance(op, DeleteOp):
            points.append(op.point)
        elif isinstance(op, UpdateOp):
            points.append(op.old_point)
            points.append(op.new_point)
    if not points:
        raise ValueError("workload contains no positions to probe")
    dims = len(points[0].pos)
    lo = [min(p.pos[d] for p in points) for d in range(dims)]
    hi = [max(p.pos[d] for p in points) for d in range(dims)]
    return tuple(lo), tuple(hi)


def _probe_queries(lo, hi, now: float):
    """One query of each of the paper's three types, spanning the space."""
    mid = tuple((a + b) / 2.0 for a, b in zip(lo, hi))
    full = Rect(lo, hi)
    lower = Rect(lo, mid)
    upper = Rect(mid, hi)
    return (
        TimesliceQuery(full, now + 1.0),
        WindowQuery(lower, now, now + 5.0),
        MovingQuery(lower, upper, now, now + 5.0),
    )


def _reference_state(
    directory: str,
    ops: Sequence[Operation],
    prefix: int,
    config: TreeConfig,
    lo,
    hi,
):
    """Answers and census of a clean replay of ``prefix`` ops, reopened.

    Closing and reopening forces the same float32 page round-trip a
    recovered tree went through, making the comparison byte-fair.
    """
    clock = SimulationClock()
    tree = MovingObjectTree.create_durable(directory, config, clock)
    for op in ops[:prefix]:
        _apply(tree, clock, op)
    tree.close()
    reopened = MovingObjectTree.open_from(directory, config, SimulationClock())
    now = reopened.clock.time
    answers = tuple(
        tuple(sorted(reopened.query(q))) for q in _probe_queries(lo, hi, now)
    )
    audit = reopened.audit()
    reopened.close()
    return now, answers, (audit.nodes, audit.leaf_entries)


def run_faultcheck(
    workload=None,
    config: Optional[TreeConfig] = None,
    stride: int = 1,
    modes: Sequence[str] = MODES,
    seed: int = 0,
    progress: Optional[Callable[[CrashOutcome], None]] = None,
) -> FaultCheckReport:
    """Crash a workload replay at every ``stride``-th write and verify.

    Args:
        workload: operation stream to replay; defaults to a small mixed
            insert/update/delete/query stream sized for stride 1.
        config: member tree configuration; defaults to 512-byte pages
            with a 4-page buffer, the densest commit cadence.
        stride: check every ``stride``-th physical write (1 = all).
        modes: fault modes to exercise at each write index.
        seed: seed for the injector's torn-length / bit-position RNG.
        progress: optional callback invoked with every outcome.

    Returns:
        The populated :class:`FaultCheckReport`.
    """
    if workload is None:
        workload = default_workload(seed=seed)
    if config is None:
        config = TreeConfig(page_size=512, buffer_pages=4)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    lo, hi = _space_extent(workload.ops)
    # An update is two commits, so recovery can legitimately land
    # between its halves: flattening to atoms first keeps the
    # committed-prefix mapping exact at commit granularity.
    ops = [atom for op in workload.ops for atom in op_atoms(op)]

    with tempfile.TemporaryDirectory(prefix="faultcheck-") as tmp:
        # Recording pass: count writes, map op prefix -> committed seq.
        counter = FaultInjector()
        clock = SimulationClock()
        recorder = MovingObjectTree.create_durable(
            os.path.join(tmp, "record"), config, clock, injector=counter
        )
        seq_after = [recorder.disk.op_seq]
        for op in ops:
            _apply(recorder, clock, op)
            seq_after.append(recorder.disk.op_seq)
        total_writes = counter.writes
        recorder.disk.abandon()

        report = FaultCheckReport(
            total_writes=total_writes,
            op_count=len(ops),
            stride=stride,
            modes=tuple(modes),
        )
        oracle: Dict[int, tuple] = {}

        for n in range(1, total_writes + 1, stride):
            for mode in modes:
                outcome = _check_crash_point(
                    tmp, ops, n, mode, config, seed, seq_after, lo, hi,
                    oracle, report,
                )
                report.outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
        return report


def _check_crash_point(
    tmp, ops, n, mode, config, seed, seq_after, lo, hi, oracle, report
) -> CrashOutcome:
    """Crash at write ``n`` in ``mode``, recover, compare to the oracle."""
    directory = os.path.join(tmp, f"crash-{n}-{mode}")
    clock = SimulationClock()
    injector = FaultInjector(crash_at_write=n, mode=mode, seed=seed)
    crashed = None
    try:
        crashed = MovingObjectTree.create_durable(
            directory, config, clock, injector=injector
        )
        for op in ops:
            _apply(crashed, clock, op)
    except SimulatedCrash:
        pass
    else:  # pragma: no cover - n never exceeds the recorded write count
        raise RuntimeError(f"replay finished before write {n}")
    finally:
        if crashed is not None:
            crashed.disk.abandon()

    try:
        recovered = MovingObjectTree.open_from(
            directory, config, SimulationClock()
        )
    except Exception as exc:
        records, _, _ = scan_wal(os.path.join(directory, WAL_FILENAME))
        committed = any(r.kind == COMMIT_RECORD for r in records)
        if committed:
            return CrashOutcome(
                n, mode, 0, False,
                f"open failed despite a committed WAL record: {exc}",
            )
        return CrashOutcome(n, mode, 0, True, "nothing committed")

    recovery = recovered.disk.recovery
    report.wal_skipped_expired += recovery.wal_skipped_expired
    op_seq = recovered.disk.op_seq
    prefix = bisect_right(seq_after, op_seq) - 1
    if prefix < 0 or seq_after[prefix] != op_seq:
        recovered.disk.abandon()
        return CrashOutcome(
            n, mode, op_seq, False,
            f"recovered op_seq {op_seq} matches no committed prefix",
        )

    if prefix not in oracle:
        oracle[prefix] = _reference_state(
            os.path.join(tmp, f"oracle-{prefix}"), ops, prefix, config, lo, hi
        )
    now, want_answers, want_audit = oracle[prefix]
    got_answers = tuple(
        tuple(sorted(recovered.query(q))) for q in _probe_queries(lo, hi, now)
    )
    audit = recovered.audit()
    got_audit = (audit.nodes, audit.leaf_entries)
    recovered.disk.abandon()

    if got_answers != want_answers:
        return CrashOutcome(
            n, mode, op_seq, False,
            f"query answers diverge from clean replay of {prefix} ops",
        )
    if recovery.wal_skipped_expired == 0 and got_audit != want_audit:
        return CrashOutcome(
            n, mode, op_seq, False,
            f"audit {got_audit} != clean replay audit {want_audit}",
        )
    return CrashOutcome(n, mode, op_seq, True)
