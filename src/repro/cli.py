"""Command-line interface for the reproduction.

::

    python -m repro figures fig13            # reproduce one figure
    python -m repro figures all --scale tiny # the whole evaluation
    python -m repro table1                   # workload parameter grid
    python -m repro workload --expt 120      # generate + summarize
    python -m repro compare                  # quick R^exp vs TPR duel
    python -m repro bulkload --scale small   # STR packing vs insertion
    python -m repro batch --queries 1000     # batched vs sequential queries
    python -m repro knn --k 10               # best-first kNN vs brute force
    python -m repro forest --partitions 2 4  # velocity-partitioned forest
    python -m repro profile                  # traced run: tails + events
    python -m repro layout --page-size 4096  # node fan-outs
    python -m repro persist out.d            # durable run: WAL + page file
    python -m repro recover out.d            # replay the WAL, audit, report
    python -m repro faultcheck --stride 4    # crash-at-every-write matrix
    python -m repro soak                     # chaos soak: serve through faults
    python -m repro soak --replica           # soak with failover to a replica
    python -m repro replicate                # WAL-shipped replica + promotion
    python -m repro shards --workers 1 2 4   # process-parallel sharded index
    python -m repro top --workers 2 --once   # live observability dashboard

Figure sweeps honour the same cache as the benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from typing import List, Optional

from .core.clock import SimulationClock
from .core.config import TreeConfig
from .core.forest import MANIFEST_FILENAME, PartitionedMovingObjectForest
from .core.presets import forest_config, rexp_config, tpr_config
from .core.tree import MovingObjectTree
from .experiments.adapters import ForestAdapter, TreeAdapter
from .experiments.figures import ALL_FIGURES
from .experiments.report import format_checks, format_figure, shape_checks
from .experiments.runner import run_workload, split_initial_population
from .experiments.scale import DEFAULT_SCALE, SCALES, Scale
from .geometry.knn import brute_force_knn
from .geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from .geometry.rect import Rect
from .obs import (
    MetricsRegistry, MetricsSnapshotter, SLOTracker, Tracer, accumulate,
    check_slos, default_serve_slos, latency_breakdown, read_jsonl,
    read_snapshots, shard_shares,
)
from .storage.layout import EntryLayout
from .storage.pagefile import PAGES_FILENAME, read_header
from .workloads.base import InsertOp, QueryOp, apply_op
from .workloads.expiration import FixedDistance, FixedPeriod, NeverExpire
from .workloads.network import (
    SPEED_GROUPS,
    NetworkParams,
    generate_network_workload,
)
from .workloads.parameters import PAPER_PARAMETERS
from .workloads.uniform import UniformParams, generate_uniform_workload

#: Extent of the square space every generated workload moves in.
SPACE = NetworkParams.space
_FITS_IN_BUFFER = (
    "index fits entirely in the buffer pool at this scale; "
    "increase --population for a meaningful comparison"
)


def _resolve_scale(args: argparse.Namespace) -> Scale:
    base = SCALES[args.scale]
    population = args.population or base.target_population
    insertions = args.insertions or base.insertions
    if (population, insertions) == (base.target_population, base.insertions):
        return base
    return replace(
        base,
        name=f"{base.name}-custom{population}x{insertions}",
        target_population=population,
        insertions=insertions,
    )


def _expiration_policy(args: argparse.Namespace):
    if getattr(args, "expd", None):
        return FixedDistance(args.expd)
    if getattr(args, "expt", None):
        return FixedPeriod(args.expt)
    if getattr(args, "no_expiry", False):
        return NeverExpire()
    return None


def _workload(args, kind="uniform", default_policy=None, **knobs):
    """Generate the workload a verb replays from its shared flags.

    Sized by the scale flags and ``--ui`` where the verb has them, else
    by ``--insertions`` alone (a quarter as many objects); expiring per
    ``--expd/--expt/--no-expiry``, else ``default_policy``, else the
    generator's own ExpT = 2 UI.
    """
    if hasattr(args, "scale"):
        scale = _resolve_scale(args)
        knobs.update(
            target_population=scale.target_population,
            insertions=scale.insertions,
            update_interval=args.ui,
        )
    else:
        knobs.update(
            target_population=max(args.insertions // 4, 16),
            insertions=args.insertions,
        )
    policy = _expiration_policy(args) or default_policy
    if kind == "network":
        return generate_network_workload(
            NetworkParams(seed=args.seed, **knobs), policy
        )
    return generate_uniform_workload(
        UniformParams(seed=args.seed, **knobs), policy
    )


def _sizing(args: argparse.Namespace) -> dict:
    """Page and buffer sizes of the verb's scale, as tree-config fields."""
    scale = _resolve_scale(args)
    return dict(page_size=scale.page_size, buffer_pages=scale.buffer_pages)


def _population(args: argparse.Namespace):
    """``(first reports, latest report time, sizing)`` of a uniform workload.

    What the build-and-probe verbs load: every first report preceding
    the first query.  ``None`` (after a message) when there is none.
    """
    workload = _workload(args, "uniform", FixedPeriod(120.0))
    initial, _ = split_initial_population(workload)
    if not initial:
        print("workload produced no initial population", file=sys.stderr)
        return None
    return initial, max(p.t_ref for _, p in initial), _sizing(args)


def _loaded(shape: str, initial, t_end: float, sizing: dict, count: int = 0,
            directory: Optional[str] = None):
    """An index of the given shape holding ``initial``, its clock at ``t_end``.

    A bulk-loaded (``tree``) or insert-built (``inserted``) tree, a
    ``count``-member forest filled by one ``apply_ops`` batch, or
    ``count`` bulk-loaded shards under ``directory``.
    """
    if shape in ("tree", "inserted"):
        index = MovingObjectTree(rexp_config(**sizing), SimulationClock())
    elif shape == "forest":
        index = PartitionedMovingObjectForest(
            forest_config(partitions=count, **sizing), SimulationClock()
        )
    else:
        from .shard import ShardConfig, ShardedForest

        index = ShardedForest.create(
            directory,
            ShardConfig(workers=count, tree=rexp_config(**sizing), space=SPACE),
        )
    index.clock.advance_to(initial[0][1].t_ref)
    if shape == "forest":
        index.apply_ops([
            InsertOp(index.clock.time, oid, point) for oid, point in initial
        ])
    elif shape == "inserted":
        for oid, point in initial:
            index.clock.advance_to(point.t_ref)
            index.insert(oid, point)
    else:
        index.bulk_load([(point, oid) for oid, point in initial])
    index.clock.advance_to(t_end)
    return index


def _adapter(sizing: dict, index: str = "rexp", partitions: int = 4,
             partitioner: str = "speed", name: str = "forest"):
    """The accounted index a replaying verb drives (``--index`` et al.)."""
    if index == "forest":
        return ForestAdapter(name, forest_config(
            partitions=partitions, partitioner=partitioner, **sizing
        ))
    if index == "tpr":
        return TreeAdapter("TPR-tree", tpr_config(**sizing))
    return TreeAdapter("Rexp-tree", rexp_config(**sizing))


def _replay_traced(args, adapter, workload, first: bool, **run):
    """One printed ``run_workload`` whose trace, if any, joins ``--trace-out``."""
    tracer = Tracer() if args.trace_out else None
    result = run_workload(adapter, workload, tracer=tracer, **run)
    if tracer is not None:
        tracer.export_jsonl(args.trace_out, append=not first,
                            extra={"adapter": adapter.name})
    print(result.summary())
    return result


# -- subcommands --------------------------------------------------------------


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.figures
    if names == ["all"]:
        names = sorted(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(ALL_FIGURES))} or 'all'",
              file=sys.stderr)
        return 2
    scale = _resolve_scale(args)
    failures = 0
    for name in names:
        figure = ALL_FIGURES[name](scale, seed=args.seed)
        print(format_figure(figure))
        if args.chart:
            from .experiments.plotting import ascii_chart

            print(ascii_chart(figure))
        checks = shape_checks(figure)
        if checks:
            print("shape checks:")
            print(format_checks(checks))
            failures += sum(1 for c in checks if not c.passed)
        print()
    return 1 if failures and args.strict else 0


def cmd_table1(args: argparse.Namespace) -> int:
    print("Table 1: Workload Parameters (standard values starred)")
    print(f"{'Parameter':<10} {'Description':<55} Values")
    for spec in PAPER_PARAMETERS:
        values = ", ".join(
            f"*{v:g}*" if v == spec.standard else f"{v:g}"
            for v in spec.values
        )
        print(f"{spec.name:<10} {spec.description:<55} {values}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    workload = _workload(args, args.kind, new_object_fraction=args.newob)
    workload.validate()
    if args.save:
        from .workloads.io import save_workload

        save_workload(workload, args.save)
        print(f"saved trace to {args.save}")
    duration = workload.ops[-1].time if workload.ops else 0.0
    print(f"workload {workload.name}")
    for key, value in sorted(workload.params.items()):
        print(f"  {key:<22} {value}")
    print(f"  {'operations':<22} {len(workload)}")
    print(f"  {'insertions':<22} {workload.insertion_count}")
    print(f"  {'queries':<22} {workload.query_count}")
    print(f"  {'duration (simulated)':<22} {duration:.1f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = _workload(args, "network", FixedPeriod(120.0))
    sizing = _sizing(args)
    print(f"replaying {workload.name} at scale {_resolve_scale(args).name} ...")
    results = []
    for i, adapter in enumerate(
        (_adapter(sizing, "rexp"), _adapter(sizing, "tpr"))
    ):
        durability = None
        if args.durability:
            durability = os.path.join(
                args.durability, adapter.name.lower().replace("^", "")
            )
        results.append(_replay_traced(
            args, adapter, workload, i == 0, durability=durability
        ))
    if results[0].avg_search_io > 0.0:
        ratio = results[1].avg_search_io / results[0].avg_search_io
        print(f"search I/O advantage of the R^exp-tree: {ratio:.2f}x")
    else:
        print(_FITS_IN_BUFFER)
    return 0


def cmd_forest(args: argparse.Namespace) -> int:
    workload = _workload(args, args.kind, FixedPeriod(120.0))
    sizing = _sizing(args)
    print(f"replaying {workload.name} at scale {_resolve_scale(args).name} ...")
    adapters = [_adapter(sizing)] + [
        _adapter(sizing, "forest", k, args.partitioner,
                 name=f"forest/{k} ({args.partitioner})")
        for k in args.partitions
    ]
    results = []
    for i, adapter in enumerate(adapters):
        result = _replay_traced(
            args, adapter, workload, i == 0,
            verify=args.verify, prepopulate=True,
        )
        results.append(result)
        if args.verify:
            print(f"  oracle mismatches: {result.oracle_mismatches}")
        if isinstance(adapter, ForestAdapter):
            forest = adapter.forest
            labels = forest.partition_labels()
            snaps = forest.partition_snapshots()
            pages = forest.partition_page_counts()
            for label, snap, page in zip(labels, snaps, pages):
                print(f"  {label:<24} pages={page:5d}  "
                      f"reads={snap.reads:7d}  writes={snap.writes:7d}")
    baseline = results[0]
    mismatched = sum(r.oracle_mismatches or 0 for r in results if args.verify)
    for result in results[1:]:
        if baseline.avg_search_io > 0.0 and result.avg_search_io > 0.0:
            ratio = baseline.avg_search_io / result.avg_search_io
            factor = ratio if ratio >= 1.0 else 1.0 / ratio
            direction = "lower" if ratio >= 1.0 else "HIGHER"
            print(f"{result.adapter}: search I/O {factor:.2f}x {direction} "
                  f"than the single tree")
    if baseline.avg_search_io == 0.0:
        print(_FITS_IN_BUFFER)
    return 1 if mismatched else 0


def _sum_metric(registry: MetricsRegistry, suffix: str) -> float:
    """Sum a metric over every scope (``tree.splits`` and
    ``partition<i>.tree.splits`` alike)."""
    total = 0
    for name in registry.names():
        if name == suffix or name.endswith("." + suffix):
            total += registry.get(name).value
    return total


def cmd_profile(args: argparse.Namespace) -> int:
    workload = _workload(args, args.workload, FixedPeriod(120.0))
    adapter = _adapter(_sizing(args), args.index, args.partitions)

    registry = MetricsRegistry()
    tracer = Tracer()
    print(f"profiling {workload.name} at scale {_resolve_scale(args).name} "
          f"on {adapter.name} ...")
    result = run_workload(
        adapter, workload, prepopulate=args.prepopulate,
        registry=registry, tracer=tracer,
    )
    print(result.summary())
    print()

    print(f"{'per-operation cost':<26}{'p50':>10}{'p95':>10}{'p99':>10}")
    print(f"{'  search I/O (pages)':<26}{result.search_io_p50:>10.0f}"
          f"{result.search_io_p95:>10.0f}{result.search_io_p99:>10.0f}")
    print(f"{'  update I/O (pages)':<26}{result.update_io_p50:>10.0f}"
          f"{result.update_io_p95:>10.0f}{result.update_io_p99:>10.0f}")
    print(f"{'  search latency (ms)':<26}"
          f"{result.search_latency_p50 * 1e3:>10.3f}"
          f"{result.search_latency_p95 * 1e3:>10.3f}"
          f"{result.search_latency_p99 * 1e3:>10.3f}")
    print(f"{'  update latency (ms)':<26}"
          f"{result.update_latency_p50 * 1e3:>10.3f}"
          f"{result.update_latency_p95 * 1e3:>10.3f}"
          f"{result.update_latency_p99 * 1e3:>10.3f}")
    print()

    print(f"buffer pool: hits={result.buffer_hits}  "
          f"misses={result.buffer_misses}  "
          f"evictions={result.buffer_evictions}  "
          f"hit rate={result.buffer_hit_rate:.1%}")
    print()

    print("structural events:")
    tallies = tracer.event_totals()
    if not tallies:
        print("  (none)")
    for name in sorted(tallies):
        line = f"  {name:<18}{tallies[name]:>8}"
        if name == "lazy_purge":
            line += (f"   entries purged: "
                     f"{_sum_metric(registry, 'tree.purged_leaf_entries'):.0f}")
        elif name == "subtree_dealloc":
            line += (f"   pages freed: "
                     f"{_sum_metric(registry, 'tree.purged_subtree_pages'):.0f}")
        elif name == "condense_drop":
            line += (f"   entries reinserted: "
                     f"{_sum_metric(registry, 'tree.condense_orphaned_entries'):.0f}")
        print(line)
    if tracer.dropped:
        print(f"  (ring buffer dropped {tracer.dropped} records)")
    print()

    print(f"slowest operations (top {args.top}):")
    for record in tracer.slowest_spans(args.top):
        attrs = record.get("attrs", {})
        detail = "  ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        print(f"  {record['name']:<14}{record['dur'] * 1e3:>9.3f} ms  {detail}")
    print()

    print("node occupancy by level:")
    occupancy = adapter.index.level_occupancy()
    for level in sorted(occupancy, reverse=True):
        nodes, entries = occupancy[level]
        kind = "leaf" if level == 0 else "internal"
        avg = entries / nodes if nodes else 0.0
        print(f"  level {level} ({kind:<8}) {nodes:>6} nodes "
              f"{entries:>8} entries  avg {avg:5.1f}/node")

    if args.trace_out:
        n = tracer.export_jsonl(args.trace_out, extra={"adapter": adapter.name})
        print(f"\nwrote {n} trace records to {args.trace_out}")
    if args.metrics_out:
        registry.export_json(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def cmd_bulkload(args: argparse.Namespace) -> int:
    population = _population(args)
    if population is None:
        return 2
    initial, t_end, sizing = population
    print(f"population: {len(initial)} first reports "
          f"(uniform workload, scale {_resolve_scale(args).name}, "
          f"seed {args.seed})")

    print(f"{'build':<14}{'wall (s)':>10}{'writes':>9}{'pages':>7}{'height':>7}")
    rows = []
    for label, shape in (("insert-built", "inserted"), ("bulk-loaded", "tree")):
        start = time.perf_counter()
        tree = _loaded(shape, initial, t_end, sizing)
        wall = time.perf_counter() - start
        rows.append((tree, wall))
        print(f"{label:<14}{wall:>10.3f}{tree.stats.writes:>9}"
              f"{tree.page_count:>7}{tree.height:>7}")
    (inserted, t_ins), (bulked, t_blk) = rows
    if t_blk > 0.0:
        print(f"build speedup: {t_ins / t_blk:.1f}x")
    rng = random.Random(args.seed + 1)
    mismatches = 0
    for _ in range(args.queries):
        x, y = rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)
        query = TimesliceQuery(
            Rect((x, y), (x + 100.0, y + 100.0)),
            t_end + rng.uniform(0.0, 30.0),
        )
        if sorted(inserted.query(query)) != sorted(bulked.query(query)):
            mismatches += 1
    status = "identical" if mismatches == 0 else f"{mismatches} MISMATCHED"
    print(f"query check: {args.queries} timeslice queries, {status} answers")
    return 1 if mismatches else 0


def cmd_batch(args: argparse.Namespace) -> int:
    population = _population(args)
    if population is None:
        return 2
    initial, t_end, sizing = population

    rng = random.Random(args.seed + 1)

    def make_query():
        x, y = rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)
        rect = Rect((x, y), (x + 100.0, y + 100.0))
        kind = rng.randrange(3)
        if kind == 0:
            return TimesliceQuery(rect, t_end + rng.uniform(0.0, 30.0))
        t1 = t_end + rng.uniform(0.0, 20.0)
        if kind == 1:
            return WindowQuery(rect, t1, t1 + rng.uniform(0.0, 10.0))
        x2, y2 = rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)
        rect2 = Rect((x2, y2), (x2 + 100.0, y2 + 100.0))
        return MovingQuery(rect, rect2, t1, t1 + rng.uniform(0.0, 10.0))

    queries = [make_query() for _ in range(args.queries)]
    print(f"population: {len(initial)} first reports, "
          f"{len(queries)} mixed queries (scale {_resolve_scale(args).name}, "
          f"seed {args.seed})")

    print(f"{'index':<10}{'sequential (s)':>16}{'batched (s)':>14}"
          f"{'speedup':>9}{'answers':>9}")
    mismatches = 0
    for label, index in (
        ("tree", _loaded("tree", initial, t_end, sizing)),
        ("forest", _loaded("forest", initial, t_end, sizing, args.partitions)),
    ):
        start = time.perf_counter()
        sequential = [index.query(query) for query in queries]
        t_seq = time.perf_counter() - start
        start = time.perf_counter()
        batched = index.query_batch(queries)
        t_bat = time.perf_counter() - start
        bad = sum(1 for a, b in zip(sequential, batched) if a != b)
        mismatches += bad
        speedup = t_seq / t_bat if t_bat > 0.0 else float("inf")
        status = "equal" if bad == 0 else f"{bad} DIFFER"
        print(f"{label:<10}{t_seq:>16.3f}{t_bat:>14.3f}{speedup:>8.1f}x"
              f"{status:>9}")
    if mismatches:
        print(f"batched answers differ from sequential on {mismatches} "
              f"queries", file=sys.stderr)
        return 1
    print("batched answers identical to sequential on both indexes")
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    population = _population(args)
    if population is None:
        return 2
    initial, t_end, sizing = population
    entries = [(point, oid) for oid, point in initial]

    rng = random.Random(args.seed + 1)
    probes = [
        (
            (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            t_end + rng.uniform(0.0, 30.0),
        )
        for _ in range(args.queries)
    ]
    print(f"population: {len(initial)} first reports, "
          f"{len(probes)} kNN probes at k={args.k} "
          f"(scale {_resolve_scale(args).name}, seed {args.seed})")

    oracle = [brute_force_knn(entries, x, t, args.k) for x, t in probes]

    indexes = [
        ("tree", _loaded("tree", initial, t_end, sizing)),
        ("forest", _loaded("forest", initial, t_end, sizing, args.partitions)),
    ]
    base = None
    if args.workers:
        base = tempfile.mkdtemp(prefix="repro-knn-")
        indexes.append((
            f"sharded/{args.workers}",
            _loaded("sharded", initial, t_end, sizing, args.workers, base),
        ))

    print(f"{'index':<12}{'wall (s)':>10}{'answers':>10}")
    mismatches = 0
    try:
        for label, index in indexes:
            start = time.perf_counter()
            got = [index.knn_entries(x, t, args.k) for x, t in probes]
            wall = time.perf_counter() - start
            bad = sum(1 for a, b in zip(got, oracle) if a != b)
            mismatches += bad
            status = "exact" if bad == 0 else f"{bad} DIFFER"
            print(f"{label:<12}{wall:>10.3f}{status:>10}")
    finally:
        if base is not None:
            indexes[-1][1].close()
            shutil.rmtree(base, ignore_errors=True)
    if mismatches:
        print("kNN answers differ from the brute-force oracle",
              file=sys.stderr)
        return 1
    print("every kNN answer bit-identical to the brute-force oracle "
          "(distances, membership and tie order)")
    return 0


def cmd_persist(args: argparse.Namespace) -> int:
    workload = _workload(args, "uniform", FixedPeriod(120.0))
    adapter = _adapter(_sizing(args), args.index, args.partitions)
    print(f"replaying {workload.name} durably into {args.directory} ...")
    result = run_workload(
        adapter, workload, prepopulate=args.prepopulate,
        durability=args.directory,
    )
    print(result.summary())
    total = 0
    for root, _, files in os.walk(args.directory):
        for name in sorted(files):
            path = os.path.join(root, name)
            size = os.path.getsize(path)
            total += size
            print(f"  {os.path.relpath(path, args.directory):<24}"
                  f"{size:>12,} bytes")
    print(f"durable store: {total:,} bytes, "
          f"WAL I/O charged as auxiliary: {result.auxiliary_io} writes")
    return 0


def _open_recovered(directory: str, buffer_pages: int):
    """Open (and so recover) whichever index shape ``directory`` holds.

    A forest by its manifest — wherever its members ran, they recover
    in-process — or a bare tree by its page file; ``None`` for neither.
    """
    if os.path.exists(os.path.join(directory, MANIFEST_FILENAME)):
        return PartitionedMovingObjectForest.open(directory)
    if os.path.exists(os.path.join(directory, PAGES_FILENAME)):
        return MovingObjectTree.open_from(
            directory,
            TreeConfig.for_layout(read_header(directory), buffer_pages),
        )
    return None


def cmd_recover(args: argparse.Namespace) -> int:
    index = _open_recovered(args.directory, args.buffer_pages)
    if index is None:
        print(f"{args.directory}: no forest or tree store to recover",
              file=sys.stderr)
        return 2
    try:
        print(f"recovered {args.directory} (clock {index.clock.time:g})")
        stores = index.local_stores()
        for i, store in enumerate(stores):
            report = store.recovery
            label = f"member{i}: " if len(stores) > 1 else ""
            print(f"  {label}scanned={report.records_scanned}  "
                  f"commits={report.commits_applied}  "
                  f"pages={report.pages_replayed}  "
                  f"frees={report.frees_replayed}  "
                  f"skipped-expired={report.wal_skipped_expired}  "
                  f"torn-bytes={report.torn_bytes}  "
                  f"op-seq={report.op_seq}")
        audit = index.audit()
        print(f"  audit: {audit.nodes} nodes, {audit.leaf_entries} leaf "
              f"entries ({audit.expired_fraction:.1%} expired), "
              f"{index.page_count} pages")
        if args.checkpoint:
            index.checkpoint()
            print("  checkpointed: WAL truncated")
    finally:
        index.close()
    return 0


def cmd_faultcheck(args: argparse.Namespace) -> int:
    from .experiments.faultcheck import default_workload, run_faultcheck

    workload = default_workload(insertions=args.insertions, seed=args.seed)
    config = TreeConfig(
        page_size=args.page_size, buffer_pages=args.buffer_pages
    )
    print(f"crash matrix over {len(workload.ops)} ops "
          f"(stride {args.stride}, modes {', '.join(args.modes)}) ...")

    ticks = [0]

    def progress(outcome) -> None:
        ticks[0] += 1
        if not outcome.ok:
            print(f"  FAIL write {outcome.write_index} ({outcome.mode}): "
                  f"{outcome.detail}")
        elif ticks[0] % 100 == 0:
            print(f"  ... {ticks[0]} crash points checked")

    report = run_faultcheck(
        workload=workload, config=config, stride=args.stride,
        modes=args.modes, seed=args.seed, progress=progress,
    )
    print(report.summary())
    return 0 if report.passed else 1


def cmd_soak(args: argparse.Namespace) -> int:
    from .experiments.soak import (
        FaultScript,
        default_fault_script,
        default_replica_scenario,
        default_soak_params,
        run_soak,
        write_report,
    )

    if args.script is not None:
        with open(args.script, "r", encoding="utf-8") as handle:
            script = FaultScript.from_json(json.load(handle))
    else:
        script = default_fault_script(seed=args.seed)
    params = default_soak_params(seed=script.seed, insertions=args.insertions)
    tracer = Tracer() if args.trace else None
    print(f"chaos soak: {params.insertions} insertions, "
          f"script seed {script.seed} "
          f"(kill at write {script.kill_at_write}, "
          f"{len(script.transient_writes)} transient writes, "
          f"{args.subscriptions} standing queries) ...")
    scenario = None
    if args.replica:
        scenario = default_replica_scenario()
        print(f"  replication: poll every {scenario.poll_every} requests, "
              f"WAL soft limit {scenario.wal_soft_limit} B, "
              f"channel faults at transfers "
              f"{list(scenario.channel_transients)} (transient) and "
              f"{scenario.channel_torn_at} (torn)")
    report = run_soak(
        script, params=params, tracer=tracer,
        subscriptions=args.subscriptions, replica=scenario,
    )
    print(report.summary())
    if report.replication:
        r = report.replication
        print(f"  replication: {r['promotions']:.0f} promotion(s), "
              f"{r['applied_batches']:.0f}/{r['shipped_batches']:.0f} "
              f"batches applied, staleness max {r['max_staleness']:.2f}s "
              f"(budget {r['staleness_budget']:.0f}s), "
              f"{r['truncation_cycles']:.0f} truncation cycles, "
              f"{r['spills']:.0f} spills, "
              f"{r['channel_faults']:.0f} channel faults, "
              f"footprint high water {r['footprint_high_water']:.0f} B")
    if report.subscriptions:
        s = report.subscriptions
        print(f"  standing queries: {s['subscriptions']} subs, "
              f"{s['adds']} adds, {s['removes']} removes, "
              f"{s['expirations']} expirations, {s['delivered']} deltas "
              f"delivered, {s['dropped']} dropped")
    for violation in report.violations:
        print(f"  SLO violation: {violation}")
    write_report(report, args.out)
    print(f"wrote {args.out}")
    if tracer is not None and args.trace:
        count = tracer.export_jsonl(args.trace)
        print(f"wrote {args.trace} ({count} records)")
    return 0 if report.passed else 1


def cmd_replicate(args: argparse.Namespace) -> int:
    from .replication import ReplicaLink, start_follower
    from .storage.faults import FaultInjector

    workload = _workload(args, "network")
    config = TreeConfig(
        page_size=args.page_size, buffer_pages=args.buffer_pages
    )
    registry = MetricsRegistry()
    base = tempfile.mkdtemp(prefix="repro-replicate-")
    try:
        tree = MovingObjectTree.create_durable(
            os.path.join(base, "primary"), config, SimulationClock()
        )
        channel_injector = None
        if args.torn_at or args.transients:
            channel_injector = FaultInjector(
                crash_at_write=args.torn_at or None, mode="torn",
                seed=args.seed + 77,
                transient_writes=tuple(args.transients),
            )
        channel, follower, maintainer = start_follower(
            tree.disk, os.path.join(base, "replica"),
            injector=channel_injector, registry=registry,
            wal_soft_limit=args.wal_soft_limit,
        )
        shipper = channel.shipper
        link = ReplicaLink(
            channel, follower, maintainer,
            promote_config=config, registry=registry,
            poll_every=args.poll_every,
        )
        print(f"replicating {len(workload.ops)} ops "
              f"({args.insertions} insertions, poll every "
              f"{args.poll_every} ops) ...")
        queries = []
        for op in workload.ops:
            tree.clock.advance_to(op.time)
            if isinstance(op, QueryOp):
                queries.append(op.query)  # asked after the replay, below
            else:
                apply_op(tree, op)
            link.tick()
        link.tick(force=True)

        answers = [sorted(tree.query(q)) for q in queries]
        mismatches = sum(
            1 for q, want in zip(queries, answers)
            if follower.query(q) != want
        )
        batched = follower.query_batch(queries)
        mismatches += sum(
            1 for got, want in zip(batched, answers) if got != want
        )
        centre = (SPACE / 2.0, SPACE / 2.0)
        knn_want = tree.query_knn(centre, tree.clock.time, 8)
        if follower.query_knn(centre, tree.clock.time, 8) != knn_want:
            mismatches += 1
        print(f"  parity: {len(queries)} queries + batch + knn, "
              f"{mismatches} mismatches")
        print(f"  shipping: cursor {shipper.acked}, lag "
              f"{shipper.lag_batches()} batches, "
              f"{registry.value('replication.channel_faults'):.0f} channel "
              f"faults, {registry.value('replication.spills'):.0f} spills")
        print(f"  maintenance: {maintainer.cycles} truncation cycles, "
              f"primary WAL {maintainer.wal_bytes()} B, footprint high "
              f"water {link.footprint_high_water} B")
        print(f"  staleness: max {link.max_staleness:.2f}s over "
              f"{link.polls} polls")
        failed = mismatches > 0
        if not args.no_promote:
            committed = tree.disk.op_seq
            want_final = [sorted(tree.query(q)) for q in queries[-8:]]
            tree.disk.abandon()
            promoted, _injector = link.failover()
            lost = committed - promoted.disk.op_seq
            got_final = [sorted(promoted.query(q)) for q in queries[-8:]]
            ok = lost == 0 and got_final == want_final
            print(f"  failover: promoted at op_seq {promoted.disk.op_seq} "
                  f"({lost} committed batches lost), answer parity "
                  f"{'OK' if ok else 'FAILED'}")
            promoted.close()
            failed = failed or not ok
        else:
            tree.close()
        if link.replica is not None:
            link.replica.close()
        return 1 if failed else 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


def cmd_shards(args: argparse.Namespace) -> int:
    from .shard import ShardConfig, ShardedForest

    scale = _resolve_scale(args)
    policy = _expiration_policy(args) or FixedPeriod(2.0 * args.ui)
    workload = _workload(
        args, "network", policy, queries_per_insertions=args.queries
    )
    tree_config = rexp_config(default_ui=args.ui, **_sizing(args))
    print(f"network workload: {len(workload.ops)} ops "
          f"({scale.insertions} insertions, population "
          f"{scale.target_population})")

    expected = None
    if args.verify:
        clock = SimulationClock()
        oracle = MovingObjectTree(tree_config, clock)
        expected = {}
        for index, op in enumerate(workload.ops):
            clock.advance_to(op.time)
            outcome = apply_op(oracle, op)
            if isinstance(op, QueryOp):
                expected[index] = sorted(outcome)

    base = args.directory or tempfile.mkdtemp(prefix="repro-shards-")
    print(f"{'workers':>7} {'wall s':>8} {'ops/s':>9} {'capacity/s':>11} "
          f"{'busiest s':>9} {'batches':>8}")
    failures = 0
    for workers in args.workers:
        config = ShardConfig(
            workers=workers,
            tree=tree_config,
            partitioner=args.partitioner,
            max_speed=max(SPEED_GROUPS),
            space=SPACE,
            reach=max(SPEED_GROUPS) * policy.period
            if isinstance(policy, FixedPeriod) else None,
            batch_ops=args.batch_ops,
        )
        directory = os.path.join(base, f"w{workers}")
        forest = ShardedForest.create(directory, config)
        try:
            result = forest.apply_ops(workload.ops)
        finally:
            forest.close()
        capacity = result.ops / max(result.model_makespan_seconds, 1e-9)
        print(f"{workers:>7} {result.wall_seconds:>8.2f} "
              f"{result.ops / max(result.wall_seconds, 1e-9):>9.0f} "
              f"{capacity:>11.0f} "
              f"{max(result.shard_busy_seconds, default=0.0):>9.2f} "
              f"{result.batches:>8}")
        if expected is not None:
            mismatches = sum(
                1 for index, answer in expected.items()
                if sorted(result.answers.get(index, [])) != answer
            )
            if mismatches:
                failures += 1
                print(f"        VERIFY FAILED: {mismatches} of "
                      f"{len(expected)} answers differ from the oracle")
            else:
                print(f"        verified: {len(expected)} scatter-gather "
                      f"answers identical to the single-tree oracle")
    if args.directory is None:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if failures else 0


def _top_bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _render_top(records, registry, slo_statuses, heading) -> None:
    print(heading)
    shares = shard_shares(records)
    if shares:
        print("  shard load share (worker wall time)")
        for shard in sorted(shares):
            frac = shares[shard]
            print(f"    shard {shard:<3} {_top_bar(frac)} {frac * 100:5.1f}%")
    queue_s = 0.0
    if registry is not None:
        wait = registry.get("serve.queue_wait")
        queue_s = getattr(wait, "total", 0.0) or 0.0
    breakdown = latency_breakdown(records, queue_s=queue_s)
    total = breakdown["total_s"]
    if total > 0:
        print("  latency breakdown (cumulative)")
        stages = (
            ("queue", "queue_s"),
            ("router", "router_s"),
            ("wire", "wire_s"),
            ("worker-cpu", "worker_cpu_s"),
            ("worker-io", "worker_io_s"),
        )
        for label, key in stages:
            seconds = breakdown[key]
            print(f"    {label:<11} {seconds * 1e3:9.3f} ms "
                  f"{_top_bar(seconds / total)} {seconds / total * 100:5.1f}%")
        print(f"    {'total':<11} {total * 1e3:9.3f} ms   "
              f"(worker wall raw "
              f"{breakdown['worker_wall_raw_s'] * 1e3:.3f} ms)")
    if registry is not None:
        hits = registry.value("buffer.hits")
        misses = registry.value("buffer.misses")
        if hits or misses:
            rate = hits / (hits + misses)
            print(f"  buffer pool: hit rate {rate * 100:5.1f}%  "
                  f"(hits {hits:.0f}, misses {misses:.0f}, evictions "
                  f"{registry.value('buffer.evictions'):.0f})")
        if registry.get("replication.polls") is not None:
            promoted_at = registry.value("replication.last_promotion_time")
            line = (
                f"  replication: staleness "
                f"{registry.value('replication.staleness_seconds'):.2f}s  "
                f"cursor lag "
                f"{registry.value('replication.cursor_lag_batches'):.0f} "
                f"batches  promotions "
                f"{registry.value('replication.promotions'):.0f}"
            )
            if promoted_at:
                line += f"  last promoted at t={promoted_at:.1f}"
            print(line)
    for status in slo_statuses:
        state = "OK  " if status["met"] else "MISS"
        print(f"  SLO {status['name']:<13} {state} "
              f"ratio {status['ratio']:.3f} vs target "
              f"{status['target']:.3f}  "
              f"budget {status['budget_remaining'] * 100:6.1f}% left  "
              f"burn {status['burn_rate']:.2f}")


def cmd_top(args: argparse.Namespace) -> int:
    from .shard import ShardConfig, ShardedForest

    if args.from_trace or args.from_metrics:
        records = read_jsonl(args.from_trace) if args.from_trace else []
        registry = None
        statuses = []
        if args.from_metrics:
            registry = accumulate(read_snapshots(args.from_metrics))
            tracker = SLOTracker(registry, default_serve_slos())
            statuses = [
                s for s in tracker.to_dict().values()
                if s["good"] or s["bad"]
            ]
        _render_top(records, registry, statuses,
                    "repro top — from artifacts")
        return 0

    ui = NetworkParams.update_interval
    workload = _workload(
        args, "network", queries_per_insertions=args.queries
    )
    tree_config = rexp_config(page_size=2048, buffer_pages=64, default_ui=ui)
    registry = MetricsRegistry()
    tracer = Tracer(capacity=65536)
    tracker = SLOTracker(registry, default_serve_slos())
    rounds = 1 if args.once else args.rounds
    config = ShardConfig(
        workers=args.workers,
        tree=tree_config,
        max_speed=max(SPEED_GROUPS),
        space=SPACE,
        reach=max(SPEED_GROUPS) * 2.0 * ui,
        batch_ops=args.batch_ops,
        flush_every=1,
    )
    base = tempfile.mkdtemp(prefix="repro-top-")
    snapper = None
    if args.snapshots:
        snapper = MetricsSnapshotter(registry, args.snapshots,
                                     interval_s=1e-9)
    forest = ShardedForest.create(
        base, config, registry=registry, tracer=tracer
    )
    try:
        ops = workload.ops
        size = max(1, (len(ops) + rounds - 1) // rounds)
        for round_no in range(rounds):
            chunk = ops[round_no * size:(round_no + 1) * size]
            if not chunk and round_no:
                break
            plain = [op for op in chunk if not isinstance(op, QueryOp)]
            queries = [op.query for op in chunk if isinstance(op, QueryOp)]
            if plain:
                forest.apply_ops(plain)
            try:
                answers = forest.query_batch(queries)
                registry.counter("serve.queries_ok").inc(len(answers))
            except Exception:
                registry.counter("serve.failed_queries").inc(len(queries))
                raise
            tracker.checkpoint()
            live = forest.live_registry()
            if snapper is not None:
                snapper.registry = live
                snapper.snapshot()
            _, statuses = check_slos(tracker)
            _render_top(
                tracer.records(), live, statuses,
                f"repro top — round {round_no + 1}/{rounds} "
                f"({args.workers} workers, {len(plain)} ops, "
                f"{len(queries)} queries)",
            )
    finally:
        forest.close()
        shutil.rmtree(base, ignore_errors=True)
    if args.trace_out:
        tracer.export_jsonl(args.trace_out)
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    print(f"{'configuration':<42} {'leaf':>6} {'internal':>9}")
    combos = [
        ("TPBRs with velocities + expiration times", True, True),
        ("TPBRs with velocities, no expiration times", True, False),
        ("static TPBRs + expiration times", False, True),
        ("static TPBRs, no expiration times", False, False),
    ]
    for label, velocities, expiration in combos:
        layout = EntryLayout(
            page_size=args.page_size,
            dims=args.dims,
            store_velocities=velocities,
            store_br_expiration=expiration,
        )
        print(f"{label:<42} {layout.leaf_capacity:>6} "
              f"{layout.internal_capacity:>9}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the R^exp-tree (Saltenis & Jensen, "
        "ICDE 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by many verbs are declared once, as argparse parents.
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument(
        "--scale", choices=sorted(SCALES), default=DEFAULT_SCALE,
        help="experiment scale preset",
    )
    scale.add_argument(
        "--population", type=int, default=None,
        help="override the scale's target population",
    )
    scale.add_argument(
        "--insertions", type=int, default=None,
        help="override the scale's insertion count",
    )
    scale.add_argument("--seed", type=int, default=0)
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--ui", type=float, default=60.0)
    stream.add_argument("--expt", type=float, default=None)
    stream.add_argument("--expd", type=float, default=None)

    p = sub.add_parser("figures", parents=[scale],
                       help="reproduce the paper's figures")
    p.add_argument("figures", nargs="+",
                   help="figure ids (fig9..fig16) or 'all'")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any shape check misses")
    p.add_argument("--chart", action="store_true",
                   help="also render an ASCII chart per figure")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("table1", help="print the workload parameter grid")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("workload", parents=[stream, scale],
                       help="generate a workload and summarize it")
    p.add_argument("--kind", choices=("network", "uniform"), default="network")
    p.add_argument("--no-expiry", action="store_true")
    p.add_argument("--newob", type=float, default=0.0)
    p.add_argument("--save", metavar="PATH", default=None,
                   help="write the generated trace to a JSONL file")
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("compare", parents=[stream, scale],
                       help="R^exp-tree vs TPR-tree on one workload")
    p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                   help="append both runs' span/event traces as JSON Lines")
    p.add_argument("--durability", metavar="DIR", default=None,
                   help="run each tree on a durable page store under DIR "
                   "(write-ahead-log I/O reported as auxiliary)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "bulkload", parents=[stream, scale],
        help="STR bulk loading vs repeated insertion on one population",
    )
    p.add_argument("--queries", type=int, default=20,
                   help="timeslice queries compared across both trees")
    p.set_defaults(func=cmd_bulkload)

    p = sub.add_parser(
        "batch", parents=[stream, scale],
        help="cross-query batched traversal vs sequential queries",
    )
    p.add_argument("--queries", type=int, default=1000,
                   help="queries answered both ways and compared")
    p.add_argument("--partitions", type=int, default=4,
                   help="velocity classes in the forest comparison")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "knn", parents=[stream, scale],
        help="best-first k-nearest-neighbor search vs a brute-force oracle",
    )
    p.add_argument("--k", type=int, default=10,
                   help="neighbors returned per probe")
    p.add_argument("--queries", type=int, default=200,
                   help="kNN probes answered and verified")
    p.add_argument("--partitions", type=int, default=4,
                   help="velocity classes in the forest comparison")
    p.add_argument("--workers", type=int, default=0,
                   help="also run a sharded index with this many workers")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser(
        "forest", parents=[stream, scale],
        help="velocity-partitioned forest vs a single R^exp-tree",
    )
    p.add_argument("--kind", choices=("uniform", "network"), default="uniform")
    p.add_argument("--partitions", type=int, nargs="+", default=[4],
                   help="forest sizes to compare against the single tree")
    p.add_argument("--partitioner", choices=("speed", "direction"),
                   default="speed")
    p.add_argument("--verify", action="store_true",
                   help="check every answer against a brute-force oracle")
    p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                   help="append every run's span/event trace as JSON Lines")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser(
        "profile", parents=[stream, scale],
        help="traced run: I/O and latency tails, structural events, "
        "buffer hit rate, node occupancy",
    )
    p.add_argument("--workload", choices=("uniform", "network"),
                   default="uniform")
    p.add_argument("--index", choices=("rexp", "tpr", "forest"),
                   default="rexp")
    p.add_argument("--partitions", type=int, default=4,
                   help="forest size (with --index forest)")
    p.add_argument("--prepopulate", action="store_true",
                   help="bulk-load the initial population instead of "
                   "replaying it as insertions")
    p.add_argument("--top", type=int, default=10,
                   help="slowest operations to list")
    p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                   help="write the span/event trace as JSON Lines")
    p.add_argument("--metrics-out", metavar="FILE.json", default=None,
                   help="write the metrics registry as JSON")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("layout", help="node fan-outs for a page size")
    p.add_argument("--page-size", type=int, default=4096)
    p.add_argument("--dims", type=int, default=2)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser(
        "persist", parents=[stream, scale],
        help="replay a workload on a durable page store (WAL + page file)",
    )
    p.add_argument("directory", help="target directory for the durable store")
    p.add_argument("--index", choices=("rexp", "forest"), default="rexp")
    p.add_argument("--partitions", type=int, default=4,
                   help="forest size (with --index forest)")
    p.add_argument("--prepopulate", action="store_true",
                   help="bulk-load the initial population")
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser(
        "recover",
        help="open a durable store, replaying its write-ahead log",
    )
    p.add_argument("directory", help="durable store to open")
    p.add_argument("--buffer-pages", type=int, default=50)
    p.add_argument("--checkpoint", action="store_true",
                   help="checkpoint after recovery (truncates the WAL)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "faultcheck",
        help="crash a durable replay at every Nth write and verify recovery",
    )
    p.add_argument("--insertions", type=int, default=60,
                   help="insertions in the generated crash workload")
    p.add_argument("--stride", type=int, default=1,
                   help="check every Nth physical write")
    p.add_argument("--modes", nargs="+", default=["kill", "torn", "bitflip"],
                   choices=("kill", "torn", "bitflip"))
    p.add_argument("--page-size", type=int, default=512)
    p.add_argument("--buffer-pages", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_faultcheck)

    p = sub.add_parser(
        "soak",
        help="chaos soak: serve a workload through a scheduled fault script",
    )
    p.add_argument("--insertions", type=int, default=2000,
                   help="insertions in the generated network workload")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the default fault script and workload")
    p.add_argument("--script", default=None,
                   help="JSON fault-script file (overrides the default)")
    p.add_argument("--subscriptions", type=int, default=0,
                   help="standing queries maintained (and verified) "
                   "through the chaos run")
    p.add_argument("--replica", action="store_true",
                   help="run the replication chaos scenario: a WAL-shipped "
                   "replica tails the primary and the kill is answered by "
                   "promotion instead of reopen")
    p.add_argument("--out", default="BENCH_soak.json",
                   help="report JSON path")
    p.add_argument("--trace", default=None,
                   help="also write a JSONL trace of serving events")
    p.set_defaults(func=cmd_soak)

    p = sub.add_parser(
        "replicate",
        help="WAL-shipped read replica: tail a live primary through a "
        "faulty channel, verify parity, promote, verify zero loss",
    )
    p.add_argument("--insertions", type=int, default=400,
                   help="insertions in the generated network workload")
    p.add_argument("--poll-every", type=int, default=8,
                   help="operations between replica shipping polls")
    p.add_argument("--wal-soft-limit", type=int, default=16 * 1024,
                   help="primary WAL bytes arming an online truncation")
    p.add_argument("--torn-at", type=int, default=7,
                   help="shipping transfer that dies mid-send (0 disables)")
    p.add_argument("--transients", type=int, nargs="*", default=[3],
                   help="1-based shipping transfers that fail transiently")
    p.add_argument("--page-size", type=int, default=1024)
    p.add_argument("--buffer-pages", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-promote", action="store_true",
                   help="skip the final failover exercise")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser(
        "shards", parents=[stream, scale],
        help="process-parallel sharded index: scatter-gather replay "
        "with per-worker durable stores",
    )
    p.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                   help="worker counts to replay (one run each)")
    p.add_argument("--partitioner", choices=("grid", "speed", "direction"),
                   default="grid")
    p.add_argument("--batch-ops", type=int, default=256,
                   help="operations per wire batch")
    p.add_argument("--queries", type=int, default=100,
                   help="queries per 100 insertions (paper's parameter)")
    p.add_argument("--verify", action="store_true",
                   help="check answers against a single-tree oracle")
    p.add_argument("--directory", default=None,
                   help="keep the shard stores here (default: temp dir)")
    p.set_defaults(func=cmd_shards)

    p = sub.add_parser(
        "top",
        help="observability dashboard: shard load share, latency "
        "breakdown, buffer hit rates and SLO budgets",
    )
    p.add_argument("--workers", type=int, default=2,
                   help="shard worker processes for the live run")
    p.add_argument("--rounds", type=int, default=5,
                   help="dashboard refresh rounds over the workload")
    p.add_argument("--once", action="store_true",
                   help="render a single round and exit (CI smoke)")
    p.add_argument("--insertions", type=int, default=400,
                   help="insertions in the generated network workload")
    p.add_argument("--queries", type=int, default=50,
                   help="queries per 100 insertions")
    p.add_argument("--batch-ops", type=int, default=128,
                   help="operations per wire batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snapshots", default=None,
                   help="write per-round metrics snapshots (JSONL) here")
    p.add_argument("--trace-out", default=None,
                   help="write the run's span records (JSONL) here")
    p.add_argument("--from-trace", default=None,
                   help="render from a trace JSONL instead of a live run")
    p.add_argument("--from-metrics", default=None,
                   help="render from a metrics snapshot JSONL "
                   "(combinable with --from-trace)")
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
