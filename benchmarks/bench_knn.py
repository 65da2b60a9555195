"""Best-first kNN vs brute force, and incremental vs naive subscriptions.

Two promises from the query-model PR, each held by a gate:

1. **kNN identity + pruning** — ``knn_entries`` on the tree and the
   partitioned forest returns *bit-identical* ``(distance², oid)``
   lists to :func:`~repro.geometry.knn.brute_force_knn` on every probe,
   and the best-first descent demonstrably prunes: the mean node count
   it visits stays below ``MAX_VISIT_FRACTION`` of the tree's nodes.

2. **Continuous maintenance** — with ``SUBSCRIPTIONS`` (≥10k) standing
   range queries registered, the per-event incremental delta update is
   at least ``MIN_RATIO``× cheaper than naively re-evaluating every
   subscription against the live population after each event.  The
   naive baseline is measured on a handful of events (it is exactly the
   quadratic blow-up the subscription index exists to avoid); answers
   are cross-checked against naive re-evaluation at the end.

Writes ``BENCH_knn.json`` for CI artifacts.  Scale follows
``REPRO_SCALE`` (default: tiny).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path

from repro.core.clock import SimulationClock
from repro.core.forest import PartitionedMovingObjectForest
from repro.core.presets import forest_config, rexp_config
from repro.core.tree import MovingObjectTree
from repro.experiments.runner import split_initial_population
from repro.experiments.scale import SCALES
from repro.geometry.intersection import region_matches_point
from repro.geometry.kinematics import MovingPoint
from repro.geometry.knn import brute_force_knn
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.serve import SubscriptionIndex
from repro.workloads.base import InsertOp
from repro.workloads.expiration import FixedPeriod
from repro.workloads.uniform import UniformParams, generate_uniform_workload

SCALE = SCALES[os.environ.get("REPRO_SCALE", "tiny")]
SPACE = 1000.0
PROBES = 200
K = 10
#: Mean nodes visited per kNN must stay below this fraction of the
#: tree's node count — the evidence that the TPBR lower bound prunes.
MAX_VISIT_FRACTION = 0.6
#: The paper's motivation for standing queries: ≥10k of them, where
#: per-event naive re-evaluation is hopeless.
SUBSCRIPTIONS = 10_000
EVENTS = 1_500
NAIVE_EVENTS = 3
MIN_RATIO = 25.0

_REPORT = Path(__file__).resolve().parent.parent / "BENCH_knn.json"


def _population():
    workload = generate_uniform_workload(
        UniformParams(
            target_population=SCALE.target_population,
            insertions=SCALE.insertions,
            update_interval=60.0,
            queries_per_insertions=SCALE.insertions + 1,
            seed=0,
        ),
        FixedPeriod(120.0),
    )
    initial, _ = split_initial_population(workload)
    return initial


def _sizing():
    return dict(page_size=SCALE.page_size, buffer_pages=SCALE.buffer_pages)


def _probes(t_end, count=PROBES, seed=2):
    rng = random.Random(seed)
    return [
        (
            (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE)),
            t_end + rng.uniform(0.0, 30.0),
        )
        for _ in range(count)
    ]


def _knn_section(out_lines):
    initial = _population()
    assert initial, "workload produced no initial population"
    entries = [(point, oid) for oid, point in initial]
    t_end = max(point.t_ref for _, point in initial)
    probes = _probes(t_end)

    start = time.perf_counter()
    oracle = [brute_force_knn(entries, x, t, K) for x, t in probes]
    t_brute = time.perf_counter() - start

    registry = MetricsRegistry()
    clock = SimulationClock()
    tree = MovingObjectTree(rexp_config(**_sizing(), default_ui=60.0), clock)
    tree.enable_observability(registry=registry)
    clock.advance_to(initial[0][1].t_ref)
    tree.bulk_load(entries)
    clock.advance_to(t_end)
    start = time.perf_counter()
    tree_answers = [tree.knn_entries(x, t, K) for x, t in probes]
    t_tree = time.perf_counter() - start
    assert tree_answers == oracle, "tree kNN diverged from brute force"

    clock = SimulationClock()
    forest = PartitionedMovingObjectForest(
        forest_config(partitions=4, **_sizing(), default_ui=60.0), clock
    )
    clock.advance_to(initial[0][1].t_ref)
    forest.apply_ops(
        [InsertOp(clock.time, oid, point) for oid, point in initial]
    )
    clock.advance_to(t_end)
    start = time.perf_counter()
    forest_answers = [forest.knn_entries(x, t, K) for x, t in probes]
    t_forest = time.perf_counter() - start
    assert forest_answers == oracle, "forest kNN diverged from brute force"

    nodes = tree.audit().nodes
    visited = registry.histogram("tree.knn_nodes_visited")
    mean_visited = visited.total / max(visited.count, 1)
    visit_fraction = mean_visited / max(nodes, 1)

    out_lines.append(
        f"[repro] kNN: {len(initial)} objects, {len(probes)} probes, "
        f"k={K} (scale {SCALE.name})"
    )
    out_lines.append(
        f"[repro]   brute {t_brute:.3f}s  tree {t_tree:.3f}s  "
        f"forest {t_forest:.3f}s  — all bit-identical"
    )
    out_lines.append(
        f"[repro]   mean nodes visited {mean_visited:.1f} of {nodes} "
        f"({visit_fraction:.0%}, gate < {MAX_VISIT_FRACTION:.0%})"
    )
    assert visit_fraction < MAX_VISIT_FRACTION, (
        f"best-first visited {visit_fraction:.0%} of the tree's nodes on "
        f"average (gate < {MAX_VISIT_FRACTION:.0%}): the lower bound is "
        "not pruning"
    )
    return {
        "objects": len(initial),
        "probes": len(probes),
        "k": K,
        "oracle": "brute_force_knn; tree and forest answers asserted "
                  "bit-identical ((distance², oid) lists)",
        "brute_force_seconds": round(t_brute, 4),
        "tree_seconds": round(t_tree, 4),
        "forest_seconds": round(t_forest, 4),
        "tree_nodes": nodes,
        "mean_nodes_visited": round(mean_visited, 1),
        "visit_fraction": round(visit_fraction, 3),
        "visit_fraction_gate": MAX_VISIT_FRACTION,
    }


def _standing_queries(rng, count):
    queries = []
    for _ in range(count):
        x, y = rng.uniform(0.0, SPACE * 0.9), rng.uniform(0.0, SPACE * 0.9)
        w = rng.uniform(10.0, 60.0)
        rect = Rect((x, y), (x + w, y + w))
        t1 = rng.uniform(0.0, 120.0)
        kind = rng.randrange(3)
        if kind == 0:
            queries.append(TimesliceQuery(rect, t1))
        elif kind == 1:
            queries.append(WindowQuery(rect, t1, t1 + rng.uniform(0, 30)))
        else:
            x2 = rng.uniform(0.0, SPACE * 0.9)
            y2 = rng.uniform(0.0, SPACE * 0.9)
            rect2 = Rect((x2, y2), (x2 + w, y2 + w))
            queries.append(
                MovingQuery(rect, rect2, t1, t1 + rng.uniform(1, 30))
            )
    return queries


def _random_event(rng, now, live):
    if rng.random() < 0.6 or not live:
        oid = rng.randrange(SCALE.target_population * 2)
        t_exp = (
            math.inf if rng.random() < 0.2
            else now + rng.uniform(5.0, 60.0)
        )
        point = MovingPoint(
            (rng.uniform(0, SPACE), rng.uniform(0, SPACE)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
            now,
            t_exp,
        )
        return ("insert", oid, point)
    return ("delete", rng.choice(sorted(live)), None)


def _continuous_section(out_lines):
    rng = random.Random(7)
    subs = SubscriptionIndex(space=SPACE, cells=32, max_pending=8)
    sids = [subs.register(q) for q in _standing_queries(rng, SUBSCRIPTIONS)]

    # Pre-generate the event stream so only maintenance is timed.
    events = []
    live = set()
    now = 0.0
    for _ in range(EVENTS):
        now += rng.uniform(0.0, 0.1)
        kind, oid, point = _random_event(rng, now, live)
        events.append((now, kind, oid, point))
        live.add(oid) if kind == "insert" else live.discard(oid)

    start = time.perf_counter()
    for when, kind, oid, point in events:
        subs.advance_to(when)
        if kind == "insert":
            subs.notify_insert(oid, point)
        else:
            subs.notify_delete(oid)
    t_incremental = time.perf_counter() - start
    per_event_incremental = t_incremental / len(events)

    # Naive baseline: after each event, re-evaluate every subscription
    # against the live population.  Quadratic — a few events suffice.
    regions = [subs._subs[sid].region for sid in sids[:SUBSCRIPTIONS]]
    population = [point for point, _ in subs.live_entries()]
    start = time.perf_counter()
    for _ in range(NAIVE_EVENTS):
        for region in regions:
            for point in population:
                region_matches_point(region, point)
    t_naive = time.perf_counter() - start
    per_event_naive = t_naive / NAIVE_EVENTS
    ratio = per_event_naive / max(per_event_incremental, 1e-12)

    # Spot-check: the incremental answers equal naive re-evaluation.
    check_now = subs.now
    for sid in rng.sample(sids, 50):
        region = subs._subs[sid].region
        want = tuple(sorted(
            oid for point, oid in subs.live_entries()
            if not point.t_exp < check_now
            and region_matches_point(region, point)
        ))
        assert subs.answer(sid) == want, f"subscription {sid} diverged"

    out_lines.append(
        f"[repro] continuous: {SUBSCRIPTIONS} standing queries, "
        f"{len(events)} events, {subs.live_count} live at end"
    )
    out_lines.append(
        f"[repro]   incremental {per_event_incremental * 1e6:.0f}us/event, "
        f"naive {per_event_naive * 1e3:.1f}ms/event — "
        f"{ratio:.0f}x (gate >= {MIN_RATIO:.0f}x)"
    )
    assert ratio >= MIN_RATIO, (
        f"incremental maintenance only {ratio:.1f}x cheaper than naive "
        f"re-evaluation at {SUBSCRIPTIONS} subscriptions "
        f"(gate >= {MIN_RATIO}x)"
    )
    stats = subs.stats()
    return {
        "subscriptions": SUBSCRIPTIONS,
        "events": len(events),
        "live_at_end": subs.live_count,
        "per_event_incremental_seconds": round(per_event_incremental, 8),
        "per_event_naive_seconds": round(per_event_naive, 6),
        "naive_events_measured": NAIVE_EVENTS,
        "speedup_over_naive": round(ratio, 1),
        "speedup_gate": MIN_RATIO,
        "deltas": {
            "adds": stats["adds"],
            "removes": stats["removes"],
            "expirations": stats["expirations"],
        },
        "oracle": "50 sampled subscriptions re-evaluated naively over "
                  "the live population; answers asserted equal",
    }


def test_knn_and_continuous_maintenance():
    out_lines = []
    knn = _knn_section(out_lines)
    continuous = _continuous_section(out_lines)
    payload = {
        "scale": SCALE.name,
        "knn": knn,
        "continuous": continuous,
    }
    _REPORT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    out = __import__("sys").__stdout__
    print("", file=out)
    for line in out_lines:
        print(line, file=out)
    print(f"[repro] wrote {_REPORT.name}", file=out)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_knn_and_continuous_maintenance()
