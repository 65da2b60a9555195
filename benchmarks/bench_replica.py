"""WAL-shipped read replica: parity, staleness, maintenance, failover.

Four promises from the replication PR, each held by a gate:

1. **Quiesced parity** — after the replica catches up, all five query
   classes (timeslice, window, moving-window, batched and kNN) answer
   bit-identically to the primary over the same committed prefix.

2. **Bounded staleness** — under paced polling (one shipping poll per
   ``POLL_EVERY`` operations) the worst lag any poll observes stays
   within ``STALENESS_BUDGET`` index-clock seconds, the bound DESIGN.md
   §14 derives from the poll cadence and the commit spacing.

3. **Online maintenance** — the primary's log is truncated at least
   ``MIN_TRUNCATIONS`` times *while shipping continues* (spilling
   unshipped batches to archive segments), and the total replication
   footprint (live WAL + archive + replica WAL) stays under
   ``FOOTPRINT_BOUND`` bytes at its high-water mark.

4. **Zero-loss promotion** — killing the primary and promoting the
   replica loses no committed batch: the promoted tree's commit
   sequence equals the dead primary's durable prefix, and its unexpired
   leaf entries are bit-identical to what a plain reopen of that prefix
   reconstructs.

Writes ``BENCH_replica.json`` for CI artifacts.  Scale follows
``REPRO_SCALE`` (default: tiny).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.tree import MovingObjectTree
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.replication import ReplicaLink, start_follower
from repro.storage.faults import FaultInjector
from repro.workloads.base import QueryOp, apply_op
from repro.workloads.network import NetworkParams, generate_network_workload

SCALE_NAME = os.environ.get("REPRO_SCALE", "tiny")
INSERTIONS = {"tiny": 400, "small": 1200}.get(SCALE_NAME, 2400)
POLL_EVERY = 8
WAL_SOFT_LIMIT = 16 * 1024
#: Index-clock seconds of observed lag a poll may report (gate 2).
STALENESS_BUDGET = 30.0
MIN_TRUNCATIONS = 3
FOOTPRINT_BOUND = 1 << 20
PROBES = 24

_REPORT = Path(__file__).resolve().parent.parent / "BENCH_replica.json"


def _probe_queries(space: float, now: float):
    """A deterministic panel covering the three range-query classes."""
    queries = []
    for i in range(PROBES):
        lo = (space * (i % 5) / 6.0, space * (i % 7) / 8.0)
        hi = (lo[0] + space / 4.0, lo[1] + space / 4.0)
        rect = Rect(lo, hi)
        kind = i % 3
        if kind == 0:
            queries.append(TimesliceQuery(rect, now + i))
        elif kind == 1:
            queries.append(WindowQuery(rect, now, now + 2.0 * i + 1.0))
        else:
            other = Rect(
                (lo[0] + space / 10.0, lo[1] + space / 10.0),
                (hi[0] + space / 10.0, hi[1] + space / 10.0),
            )
            queries.append(MovingQuery(rect, other, now, now + i + 1.0))
    return queries


def _unexpired_entries(tree, now: float):
    return sorted(
        (oid, tuple(p.pos), tuple(p.vel), p.t_ref, p.t_exp)
        for p, oid in tree.snapshot().leaf_entries()
        if not p.t_exp < now
    )


def test_replica_parity_staleness_maintenance_failover():
    params = NetworkParams(
        target_population=max(INSERTIONS // 4, 16),
        insertions=INSERTIONS,
        seed=0,
    )
    workload = generate_network_workload(params)
    config = TreeConfig(page_size=1024, buffer_pages=32)
    registry = MetricsRegistry()
    base = tempfile.mkdtemp(prefix="bench-replica-")
    out_lines = []
    try:
        primary_dir = os.path.join(base, "primary")
        tree = MovingObjectTree.create_durable(
            primary_dir, config, SimulationClock()
        )
        channel, follower, maintainer = start_follower(
            tree.disk, os.path.join(base, "replica"),
            injector=FaultInjector(
                crash_at_write=9, mode="torn", seed=77,
                transient_writes=(3,),
            ),
            registry=registry, wal_soft_limit=WAL_SOFT_LIMIT,
        )
        link = ReplicaLink(
            channel, follower, maintainer,
            promote_config=config, registry=registry,
            staleness_budget=STALENESS_BUDGET, poll_every=POLL_EVERY,
        )

        footprints = []
        cycles_seen = 0
        start = time.perf_counter()
        for op in workload.ops:
            tree.clock.advance_to(op.time)
            if not isinstance(op, QueryOp):
                apply_op(tree, op)
            link.tick()
            if maintainer.cycles > cycles_seen:
                cycles_seen = maintainer.cycles
                footprints.append(link.wal_footprint())
        link.tick(force=True)
        drive_seconds = time.perf_counter() - start
        writes = sum(
            1 for op in workload.ops if not isinstance(op, QueryOp)
        )

        # Gate 1: quiesced parity across all five query classes.
        now = tree.clock.time
        queries = _probe_queries(params.space, now)
        want = [sorted(tree.query(q)) for q in queries]
        got = [follower.query(q) for q in queries]
        assert got == want, "replica range answers diverge from primary"
        assert follower.query_batch(queries) == want, (
            "replica batched answers diverge from primary"
        )
        centre = (params.space / 2.0, params.space / 2.0)
        knn_want = tree.query_knn(centre, now, 10)
        assert follower.query_knn(centre, now, 10) == knn_want, (
            "replica kNN answer diverges from primary"
        )
        out_lines.append(
            f"[repro] parity: {len(queries)} probes x "
            f"(query, batch) + kNN identical over "
            f"{tree.disk.op_seq} committed batches"
        )

        # Gate 2: bounded observed staleness under paced polling.
        assert link.polls > 0, "no shipping polls happened"
        assert link.max_staleness <= STALENESS_BUDGET, (
            f"poll observed {link.max_staleness:.2f}s lag, budget "
            f"{STALENESS_BUDGET:.0f}s"
        )
        out_lines.append(
            f"[repro] staleness: max {link.max_staleness:.2f}s over "
            f"{link.polls} polls (budget {STALENESS_BUDGET:.0f}s, "
            f"poll every {POLL_EVERY} ops)"
        )

        # Gate 3: online truncation kept the footprint bounded.
        assert maintainer.cycles >= MIN_TRUNCATIONS, (
            f"only {maintainer.cycles} truncation cycles "
            f"(need >= {MIN_TRUNCATIONS})"
        )
        assert link.footprint_high_water <= FOOTPRINT_BOUND, (
            f"footprint high water {link.footprint_high_water} B over "
            f"bound {FOOTPRINT_BOUND} B"
        )
        out_lines.append(
            f"[repro] maintenance: {maintainer.cycles} truncation cycles, "
            f"{registry.value('replication.spills'):.0f} spills, "
            f"footprint high water {link.footprint_high_water} B "
            f"(bound {FOOTPRINT_BOUND} B)"
        )

        # Gate 4: crash the primary, promote, audit zero loss.
        committed = tree.disk.op_seq
        ground_dir = os.path.join(base, "ground")
        shutil.copytree(primary_dir, ground_dir)
        tree.disk.abandon()
        promoted, _injector = link.failover()
        assert promoted.disk.op_seq == committed, (
            f"promotion lost commits: {promoted.disk.op_seq} != "
            f"{committed}"
        )
        ground = MovingObjectTree.open_from(
            ground_dir, config, SimulationClock()
        )
        now = promoted.clock.time
        assert _unexpired_entries(ground, now) == _unexpired_entries(
            promoted, now
        ), "promoted state differs from the committed prefix"
        promoted_answers = [sorted(promoted.query(q)) for q in queries]
        assert promoted_answers == want, (
            "promoted tree answers diverge from the dead primary's"
        )
        out_lines.append(
            f"[repro] failover: promoted at op_seq {committed}, zero "
            f"committed batches lost, entries bit-identical to a plain "
            f"reopen"
        )
        ground.close()
        promoted.close()

        payload = {
            "scale": SCALE_NAME,
            "ops": len(workload.ops),
            "writes": writes,
            "drive_seconds": round(drive_seconds, 3),
            "writes_per_second": round(writes / max(drive_seconds, 1e-9)),
            "parity_probes": len(queries),
            "poll_every": POLL_EVERY,
            "polls": link.polls,
            "max_staleness_seconds": round(link.max_staleness, 4),
            "staleness_budget_seconds": STALENESS_BUDGET,
            "shipped_batches": registry.value("replication.shipped_batches"),
            "applied_batches": registry.value("replication.applied_batches"),
            "channel_faults": registry.value("replication.channel_faults"),
            "spills": registry.value("replication.spills"),
            "truncation_cycles": maintainer.cycles,
            "truncation_floor": MIN_TRUNCATIONS,
            "footprint_per_cycle_bytes": footprints[:16],
            "footprint_high_water_bytes": link.footprint_high_water,
            "footprint_bound_bytes": FOOTPRINT_BOUND,
            "promoted_op_seq": committed,
            "promotion_lost_batches": 0,
            "oracle": "primary answers on an identical probe panel; "
                      "ground truth for promotion is a plain reopen of "
                      "the dead primary's directory",
        }
        _REPORT.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        out = __import__("sys").__stdout__
        print("", file=out)
        for line in out_lines:
            print(line, file=out)
        print(f"[repro] wrote {_REPORT.name}", file=out)
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_replica_parity_staleness_maintenance_failover()
