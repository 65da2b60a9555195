"""Scatter-gather scaling of the process-parallel sharded index.

Replays the Section 5.1 network workload (UI = 60, ExpT = 2 x UI,
100 queries per 100 insertions) through :class:`ShardedForest` at 1, 2,
4 and 8 workers, each worker owning a durable member tree (page file +
WAL) behind a fitted spatial grid, and holds the run to two promises:

1. **Identity** — every scatter-gather answer, at every worker count,
   equals the single-tree oracle's answer exactly.  Sharding must be
   invisible in results.
2. **Scaling** — combined update+query *capacity* throughput grows at
   least 3x from 1 to 8 workers.

Two throughputs are reported, deliberately:

* ``wall`` — operations over end-to-end wall time in this process.  On
  a single-core container the workers time-slice one CPU, so wall
  barely moves with the worker count; reporting it keeps the numbers
  honest.
* ``capacity`` — operations over the *modeled makespan*: the router's
  own critical-path work plus the busiest worker's measured busy time
  (every batch acknowledgement carries the worker's decode+apply
  seconds).  That is the replay's span on a machine with one core per
  worker; on a multi-core host wall converges to it.  The scaling gate
  applies to this metric, and ``cpu_count`` is recorded alongside so
  the context is never lost.

Writes ``BENCH_shards.json`` for CI artifacts.  Scale follows
``REPRO_SCALE`` (default: tiny).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.clock import SimulationClock
from repro.core.partition import GridPartitioner
from repro.core.presets import rexp_config
from repro.core.tree import MovingObjectTree
from repro.experiments.scale import SCALES
from repro.shard import ShardConfig, ShardedForest
from repro.workloads.base import InsertOp, QueryOp, apply_op
from repro.workloads.expiration import FixedPeriod
from repro.workloads.network import NetworkParams, generate_network_workload

SCALE = SCALES[os.environ.get("REPRO_SCALE", "tiny")]
WORKER_COUNTS = (1, 2, 4, 8)
UPDATE_INTERVAL = 60.0
EXPT = 2.0 * UPDATE_INTERVAL
MAX_SPEED = 3.0  # fastest network speed group (km/min)
MIN_CAPACITY_SPEEDUP = 3.0

_REPORT = Path(__file__).resolve().parent.parent / "BENCH_shards.json"


def _workload():
    params = NetworkParams(
        target_population=SCALE.target_population,
        insertions=SCALE.insertions,
        update_interval=UPDATE_INTERVAL,
        queries_per_insertions=100,
        seed=0,
    )
    return generate_network_workload(params, FixedPeriod(EXPT)), params


def _tree_config():
    return rexp_config(
        page_size=SCALE.page_size,
        buffer_pages=SCALE.buffer_pages,
        default_ui=UPDATE_INTERVAL,
    )


def _oracle(ops, config):
    """Single-tree fault-free replay: answers by op index + failures."""
    clock = SimulationClock()
    tree = MovingObjectTree(config, clock)
    answers, failed = {}, 0
    for index, op in enumerate(ops):
        clock.advance_to(op.time)
        outcome = apply_op(tree, op)
        if isinstance(op, QueryOp):
            answers[index] = sorted(outcome)
        elif outcome is False:
            failed += 1
    return answers, failed


def _position_sample(ops, limit=4000):
    """Reference positions of the stream's first reports (fit sample)."""
    sample = []
    for op in ops:
        if isinstance(op, InsertOp):
            sample.append(op.point.pos)
            if len(sample) >= limit:
                break
    return sample


def _fitted_partitioner(workers, sample, space):
    shape = GridPartitioner.for_partitions(workers, space=space)
    return GridPartitioner.fitted(
        sample, shape.cells_x, shape.cells_y,
        space=space, reach=MAX_SPEED * EXPT,
    )


def test_shard_scaling_with_oracle_identity(tmp_path=None):
    workload, params = _workload()
    config = _tree_config()
    expected, expected_failed = _oracle(workload.ops, config)
    sample = _position_sample(workload.ops)
    base = tempfile.mkdtemp(prefix="bench-shards-")
    out = sys.__stdout__
    print(f"\n[repro] shard scaling: {len(workload.ops)} network ops "
          f"({SCALE.insertions} insertions, population "
          f"{SCALE.target_population}, {len(expected)} queries), "
          f"host cpus={os.cpu_count()}", file=out)
    print(f"[repro] {'workers':>7} {'wall s':>8} {'wall ops/s':>10} "
          f"{'capacity/s':>11} {'speedup':>8} {'busiest s':>9} "
          f"{'balance':>8}", file=out)
    runs = []
    try:
        for workers in WORKER_COUNTS:
            forest = ShardedForest.create(
                os.path.join(base, f"w{workers}"),
                ShardConfig(
                    workers=workers,
                    tree=config,
                    space=params.space,
                    batch_ops=256,
                ),
                partitioner=_fitted_partitioner(
                    workers, sample, params.space
                ),
            )
            try:
                result = forest.apply_ops(workload.ops)
            finally:
                forest.close()

            # Identity: scatter-gather answers must equal the oracle's.
            assert result.failed_deletes == expected_failed
            assert set(result.answers) == set(expected)
            for index, answer in expected.items():
                got = sorted(result.answers[index])
                assert got == answer, (
                    f"{workers} workers: query at op {index} returned "
                    f"{got}, oracle said {answer}"
                )

            capacity = result.ops / max(result.model_makespan_seconds, 1e-9)
            busiest = max(result.shard_busy_seconds)
            total_busy = sum(result.shard_busy_seconds)
            runs.append({
                "workers": workers,
                "ops": result.ops,
                "queries": len(expected),
                "scattered_queries": result.scattered_queries,
                "batches": result.batches,
                "wall_seconds": round(result.wall_seconds, 4),
                "router_seconds": round(result.router_cpu_seconds, 4),
                "model_makespan_seconds": round(
                    result.model_makespan_seconds, 4
                ),
                "wall_ops_per_s": round(
                    result.ops / max(result.wall_seconds, 1e-9), 1
                ),
                "capacity_ops_per_s": round(capacity, 1),
                "shard_busy_seconds": [
                    round(b, 4) for b in result.shard_busy_seconds
                ],
                "busy_balance": round(busiest / max(total_busy, 1e-9), 4),
            })
            speedup = (
                capacity / runs[0]["capacity_ops_per_s"]
                if runs else 1.0
            )
            print(f"[repro] {workers:>7} {result.wall_seconds:>8.2f} "
                  f"{runs[-1]['wall_ops_per_s']:>10.0f} "
                  f"{capacity:>11.0f} {speedup:>7.2f}x "
                  f"{busiest:>9.2f} "
                  f"{busiest / max(total_busy, 1e-9):>7.0%}", file=out)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    baseline = runs[0]["capacity_ops_per_s"]
    speedups = {
        run["workers"]: round(run["capacity_ops_per_s"] / baseline, 3)
        for run in runs
    }
    payload = {
        "scale": SCALE.name,
        "cpu_count": os.cpu_count(),
        "workload": {
            "kind": "network (Section 5.1)",
            "insertions": SCALE.insertions,
            "target_population": SCALE.target_population,
            "update_interval": UPDATE_INTERVAL,
            "expiration_period": EXPT,
            "queries_per_insertions": 100,
            "ops": runs[0]["ops"],
        },
        "partitioner": "fitted grid (quantile cells), "
                       f"reach={MAX_SPEED * EXPT:g}",
        "oracle": "single in-memory R^exp-tree replay; every "
                  "scatter-gather answer asserted identical",
        "metric_note": (
            "capacity_ops_per_s = ops / (router CPU seconds + busiest "
            "worker's CPU busy seconds): the replay's span with one core "
            "per worker, measured in scheduler-independent per-process "
            "CPU time.  wall_ops_per_s is the end-to-end wall measurement "
            "on this host; on a single-CPU container the workers "
            "time-slice one core, so wall stays flat while capacity "
            "reflects the parallel structure.  Speedups can exceed the "
            "worker count because sharding also shrinks each member "
            "tree — shallower trees make every insert/delete cheaper, "
            "the same effect the paper's partitioned forest exploits."
        ),
        "runs": runs,
        "capacity_speedup": speedups,
    }
    _REPORT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[repro] wrote {_REPORT.name}; capacity speedups {speedups}",
          file=out)

    top = speedups[WORKER_COUNTS[-1]]
    assert top >= MIN_CAPACITY_SPEEDUP, (
        f"capacity throughput scaled only {top:.2f}x from 1 to "
        f"{WORKER_COUNTS[-1]} workers (need >= {MIN_CAPACITY_SPEEDUP}x)"
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_shard_scaling_with_oracle_identity()
