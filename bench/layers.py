"""Per-layer measurements of the traced pass that need no spans.

Three sources: a ``cProfile`` of a 200-op segment (shares of own time per
source package, and named call counts), isolated replays of single
functions over nodes captured from the final tree, and the serving
frontend's cost over the bare replay.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.clock import SimulationClock
from repro.core.tree import MovingObjectTree
from repro.geometry.bounding import compute_tpbr
from repro.geometry.integrals import area_integral
from repro.geometry.kernels import (
    batch_region_matches,
    multi_query_hits,
    pack_points,
    pack_queries,
)
from repro.geometry.knn import batch_point_distances_sq
from repro.rstar.heuristics import (
    choose_child,
    choose_split,
    reinsert_candidates,
)
from repro.rstar.metrics import KineticMetrics
from repro.serve.frontend import FrontendConfig, ServiceFrontend
from repro.shard.wire import OpCodec
from repro.storage.serial import NodeCodec

from .stream import QueryMaker, step_writes
from .workloads import TREE_CONFIG, Plan

#: Source packages under ``src/repro/`` that own-time shares are kept for.
PACKAGES = (
    "geometry", "rstar", "core", "storage", "shard", "replication",
    "serve", "obs", "workloads",
)

#: Timed ops covered by the profiled segment.
PROFILE_OPS = 200

#: Wall budget of one isolated replay.
_REPLAY_SECONDS = 0.1


# -- the profiled segment ------------------------------------------------------


def _package(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split(os.sep)
    return parts[0] if len(parts) > 1 and parts[0] in PACKAGES else None


def package_shares(stats: dict) -> Dict[str, float]:
    """Share of profiled own time per package, from ``pstats`` data.

    A function in no package (a builtin, numpy, the standard library)
    hands its own time to the packages that called it, following the
    caller edges upward and splitting by each edge's cumulative time;
    what reaches the top without meeting a package is nobody's.
    """
    shares = dict.fromkeys(PACKAGES, 0.0)

    def charge(func, seconds: float, depth: int) -> None:
        package = _package(func[0])
        if package is not None:
            shares[package] += seconds
            return
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[3] for edge in callers.values())
        if not callers or weight <= 0.0 or depth > 8:
            return
        for caller, edge in callers.items():
            charge(caller, seconds * edge[3] / weight, depth + 1)

    total = 0.0
    for func, (_cc, _nc, own, _ct, callers) in stats.items():
        total += own
        if _package(func[0]) is not None:
            shares[_package(func[0])] += own
        else:
            for caller, edge in callers.items():
                charge(caller, edge[2], 1)
    return {
        package: (seconds / total if total else 0.0)
        for package, seconds in shares.items()
    }


def profile_segment(scenario, dep, plan: Plan) -> Dict[str, float]:
    """Profile the first :data:`PROFILE_OPS` timed ops of a rep.

    Untimed steps in between (the churn of ``query_classes``) run
    unprofiled.  Profiler overhead falls on Python calls and not on
    native code, so only shares and call counts are reported.
    """
    profiler = cProfile.Profile()
    ops = writes = 0
    for step in plan.steps:
        if ops >= PROFILE_OPS:
            break
        if not step.timed:
            scenario.execute(dep, step)
            continue
        profiler.enable()
        try:
            scenario.execute(dep, step)
        finally:
            profiler.disable()
        ops += step.samples
        writes += len(step_writes(step))
    stats = pstats.Stats(profiler).stats
    result = {
        f"{package}.self_frac": share
        for package, share in package_shares(stats).items()
    }
    calls = sum(
        entry[1] for func, entry in stats.items()
        if func[2] == "compute_tpbr" and _package(func[0]) == "geometry"
    )
    result["geometry.bounding.compute_tpbr_calls_per_write"] = (
        calls / (writes or ops)
    )
    return result


# -- isolated replays ----------------------------------------------------------


def per_call_us(fn: Callable, items: Sequence) -> float:
    """Median microseconds of ``fn(item)`` over repeated passes."""
    if not items:
        return 0.0
    times: List[float] = []
    deadline = perf_counter() + _REPLAY_SECONDS
    while perf_counter() < deadline:
        for item in items:
            started = perf_counter()
            fn(item)
            times.append(perf_counter() - started)
    return statistics.median(times) * 1e6


def captured_nodes(directories: Sequence[str]):
    """Recover each store plainly; returns nodes, reports and a horizon."""
    nodes, reports = [], []
    for directory in directories:
        tree = MovingObjectTree.open_from(
            directory, TREE_CONFIG, SimulationClock()
        )
        nodes += [tree.disk.peek(pid) for pid in tree.disk.page_ids()]
        reports.append(tree.disk.recovery)
        now, horizon = tree.now, tree.horizon.insertion_horizon()
        tree.disk.abandon()
    return nodes, reports, now, horizon


def isolated_layers(
    nodes: Sequence, now: float, horizon: float, plan: Plan, seed: int
) -> Dict[str, float]:
    """Single functions replayed over the final tree's own nodes."""
    rng = random.Random(seed)
    metrics = KineticMetrics(
        TREE_CONFIG.bounding, now=lambda: now, horizon=lambda: horizon,
        rng=rng,
    )
    layout = TREE_CONFIG.layout()
    leaves = [n for n in nodes if n.is_leaf and len(n.entries) >= 4]
    internal = [n for n in nodes if not n.is_leaf]
    newcomer = leaves[0].entries[0][0]
    min_fill = max(2, int(layout.leaf_capacity * TREE_CONFIG.min_fill))
    splittable = [n for n in leaves if len(n.entries) >= 2 * min_fill]
    maker = QueryMaker(seed, 30.0)
    points = [point for leaf in leaves for point, _ in leaf.entries]
    regions = [q.region() for q in maker.ranges(now, points, 64)]
    packed_queries = pack_queries(regions)
    packed_leaves = [
        ([p for p, _ in leaf.entries],
         pack_points([p for p, _ in leaf.entries]))
        for leaf in leaves
    ]
    probe = maker.knn(now)
    codec = NodeCodec(layout)
    pages = [codec.encode(node, now) for node in nodes]
    return {
        "rstar.heuristics.choose_child_us": per_call_us(
            lambda n: choose_child(metrics, n.regions(), newcomer, False),
            internal,
        ),
        "rstar.heuristics.choose_split_us": per_call_us(
            lambda n: choose_split(metrics, n.regions(), min_fill),
            splittable[:4],
        ),
        "rstar.heuristics.reinsert_candidates_us": per_call_us(
            lambda n: reinsert_candidates(
                metrics, n.regions(),
                int(len(n.entries) * TREE_CONFIG.reinsert_fraction),
            ),
            leaves,
        ),
        "geometry.bounding.compute_tpbr_us": per_call_us(
            lambda n: compute_tpbr(
                n.regions(), now, TREE_CONFIG.bounding,
                horizon=horizon, rng=rng,
            ),
            leaves,
        ),
        "geometry.integrals.area_integral_us": per_call_us(
            lambda br: area_integral(br, now, now + horizon),
            [br for node in internal for br, _ in node.entries],
        ),
        "geometry.kernels.region_matches_us_per_leaf": per_call_us(
            lambda leaf: batch_region_matches(regions[0], leaf[0], leaf[1]),
            packed_leaves,
        ),
        "geometry.kernels.multi_query_hits_us": per_call_us(
            lambda leaf: multi_query_hits(packed_queries, leaf[1]),
            packed_leaves,
        ),
        "geometry.knn.point_distances_us_per_leaf": per_call_us(
            lambda leaf: batch_point_distances_sq(
                probe.x, leaf[0], probe.t, leaf[1]
            ),
            packed_leaves,
        ),
        "storage.serial.encode_us_per_page": per_call_us(
            lambda node: codec.encode(node, now), nodes
        ),
        "storage.serial.decode_us_per_page": per_call_us(
            codec.decode, pages
        ),
    }


def wire_layers(plan: Plan) -> Dict[str, float]:
    """The op codec over the workload's own batches (zero without any)."""
    batches = [s.payload for s in plan.steps if s.kind == "apply"]
    ops = sum(len(batch) for batch in batches)
    if not ops:
        return {
            "shard.wire.encode_us_per_op": 0.0,
            "shard.wire.decode_us_per_op": 0.0,
            "shard.wire.bytes_per_op": 0.0,
        }
    codec = OpCodec(TREE_CONFIG.dims)
    encoded = [codec.encode_ops(batch) for batch in batches]
    per_batch = ops / len(batches)
    return {
        "shard.wire.encode_us_per_op":
            per_call_us(codec.encode_ops, batches) / per_batch,
        "shard.wire.decode_us_per_op":
            per_call_us(codec.decode_ops, encoded) / per_batch,
        "shard.wire.bytes_per_op": sum(map(len, encoded)) / ops,
    }


# -- the serving frontend ------------------------------------------------------


class _TimedIndex:
    """Delegates to an index and clocks the time spent inside its calls."""

    def __init__(self, inner):
        self._inner = inner
        self.seconds = 0.0

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute

        def call(*args, **kwargs):
            started = perf_counter()
            try:
                return attribute(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - started

        return call


def frontend_overhead_us(directory: str, plan: Plan) -> float:
    """Wall of ``ServiceFrontend.run`` minus the time inside the index.

    The frontend's clock is virtual, so this is a layer cost and not a
    workload: no request waits, is shed, or times out.
    """
    ops = [step.payload for step in plan.steps]
    tree = MovingObjectTree.open_from(
        directory, TREE_CONFIG, SimulationClock()
    )
    index = _TimedIndex(tree)
    frontend = ServiceFrontend(index, FrontendConfig(
        queue_capacity=len(ops) + 1, service_time=1e-9,
        query_deadline=float("inf"), checkpoint_interval=len(ops) + 1,
    ))
    started = perf_counter()
    report = frontend.run(ops)
    elapsed = perf_counter() - started
    tree.disk.abandon()
    served = report.served_writes + report.served_queries
    if served != len(ops):
        raise RuntimeError(
            f"the frontend served {served} of {len(ops)} requests"
        )
    return (elapsed - index.seconds) / len(ops) * 1e6
