"""The noise protocol: build twice, replay R identical reps, crash, recover.

Every timing metric is computed from the *best* vector — per timed call,
the fastest of its R executions — because on a shared host a neighbour
slows the whole process for seconds at a time: medians over a rep move
by 20% between runs of the same code, per-call minima by under 5%.
Counts (answers, page I/O, log bytes) must be identical in every rep.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter
from typing import List, Optional, Tuple

from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.storage.pagefile import PAGES_FILENAME, WAL_FILENAME
from repro.storage.wal import scan_wal
from repro.workloads.base import QueryOp

from .catalogue import PER_LAYER
from .layers import (
    captured_nodes,
    frontend_overhead_us,
    isolated_layers,
    profile_segment,
    wire_layers,
)
from .spans import Recorder, self_time_of
from .stats import best_vector, percentile, trimmed_ops_per_second
from .stream import (
    SPACE,
    Model,
    Step,
    entries_mismatch,
    model_after,
    step_writes,
)
from .workloads import Plan, Sizing, Trace

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Rep 0 checks every Nth range query against the brute-force model
#: (and every kNN); checks sit between timed calls, never inside one.
CHECK_EVERY = 8

#: Recovery trials beyond the one each rep ends with, on fresh copies of
#: rep 0's crashed deployment: at least two, and more while they are
#: cheap (a failover takes 16 ms; its best-of needs more than 6 draws).
MIN_EXTRA_RECOVERIES = 2
MAX_EXTRA_RECOVERIES = 10
EXTRA_RECOVERY_SECONDS = 1.0


def scratch_root() -> str:
    """A fresh working directory inside the checkout, removed on exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)


def probe_query(plan: Plan) -> TimesliceQuery:
    """The first query a recovered deployment must answer correctly."""
    quarter = SPACE / 4.0
    return TimesliceQuery(
        Rect((quarter, quarter), (3 * quarter, 3 * quarter)),
        plan.steps[-1].time,
    )


class Checker:
    """Rep 0's answer checks against the brute-force model."""

    def __init__(self, scenario, model: Model):
        self.scenario = scenario
        self.model = model
        self.failed = 0
        self._ranges = 0

    def _range(self, model: Model, query, answer) -> None:
        self._ranges += 1
        if self._ranges % CHECK_EVERY == 0 and model.wrong(query, answer):
            self.failed += 1

    def after(self, dep, step: Step, answer) -> None:
        """Fold one executed step into the model and check its answer."""
        op = step.payload
        model = self.model
        if step.kind == "write":
            model.write(op, self.scenario.mark(dep))
            # A delete that misses an entry the model holds live was
            # acknowledged wrongly; one that misses an expired entry is
            # the paper's lazy-deletion discipline.
            if answer is False and op.old_point.t_exp > step.time + 1e-3:
                self.failed += 1
        elif step.kind == "query":
            self._range(model, op.query, answer)
        elif step.kind == "replica_query":
            self._range(
                model.rewound(dep.replica.applied_op_seq), op.query, answer
            )
        elif step.kind == "batch":
            for query, oids in zip(op, answer):
                self._range(model, query, oids)
        elif step.kind == "knn":
            if answer != model.knn(op):
                self.failed += 1
        elif step.kind == "apply":
            answers = dict(answer)
            for index, item in enumerate(op):
                if isinstance(item, QueryOp):
                    self._range(model, item.query, answers[index])
                else:
                    model.write(item)


def replay(
    scenario, dep, plan: Plan,
    checker: Optional[Checker] = None, rec: Optional[Recorder] = None,
) -> Tuple[List[float], str, int]:
    """Run one rep.  Returns per-step seconds, an answer hash, raised ops."""
    seconds: List[float] = []
    answers = hashlib.sha256()
    raised = 0
    for index, step in enumerate(plan.steps):
        if rec is not None:
            rec.begin("step." + step.kind, index)
        started = perf_counter()
        try:
            answer = scenario.execute(dep, step, rec)
            ok = True
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            answer, ok, raised = None, False, raised + 1
        elapsed = perf_counter() - started
        if rec is not None:
            rec.end()
        seconds.append(elapsed)
        answers.update(repr(answer).encode())
        if checker is not None and ok:
            checker.after(dep, step, answer)
    return seconds, answers.hexdigest(), raised


def timed_samples(plan: Plan, seconds: List[float]) -> List[float]:
    """Per-op latencies: a call carrying k ops gives k samples of t/k."""
    samples: List[float] = []
    for step, elapsed in zip(plan.steps, seconds):
        if step.timed:
            samples.extend([elapsed / step.samples] * step.samples)
    return samples


def ops_per_second(samples: List[float]) -> float:
    """Timed ops over the time they took."""
    return len(samples) / sum(samples)


def file_hash(directories: List[str], filename: str) -> str:
    """One hash over the named file of every store directory."""
    hasher = hashlib.sha256()
    for directory in directories:
        with open(os.path.join(directory, filename), "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def build_snapshot(scenario, seed: int, sizing: Sizing, directory: str):
    """Generate the inputs and build the snapshot; returns plan, phases."""
    started = perf_counter()
    plan = scenario.plan(seed, sizing)
    phases = {"workloads.generate_s": perf_counter() - started}
    phases.update(scenario.build(plan, directory))
    phases["setup_s"] = perf_counter() - started
    return plan, phases


def recover_and_check(
    scenario, directory: str, plan: Plan, model: Model
) -> Tuple[float, int, object]:
    """Timed crash -> first answer, then the durability check (untimed).

    Only flushed WAL bytes are used: the crashed deployment took no
    checkpoint and closed nothing.  Returns seconds, lost-or-wrong
    objects, and the recovered deployment (still open).
    """
    probe = probe_query(plan)
    started = perf_counter()
    dep, answer = scenario.recover(directory, probe)
    elapsed = perf_counter() - started
    wrong = int(model.wrong(probe, answer))
    wrong += entries_mismatch(scenario.live_entries(dep), model, probe.t)
    return elapsed, wrong, dep


def run_untraced(
    scenario, seed: int, sizing: Sizing, budget: float
) -> dict:
    """The end-to-end pass: every metric a user of the system would see."""
    root = scratch_root()
    try:
        return _run_untraced(scenario, seed, sizing, budget, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_untraced(scenario, seed, sizing, budget, root) -> dict:
    failed = 0
    notes: List[str] = []

    # Set-up runs twice: the faster build is setup_s, and the two
    # snapshots must be byte-identical or the inputs are not a function
    # of the seed.
    builds = []
    for number in range(2):
        directory = os.path.join(root, f"snapshot{number}")
        plan, phases = build_snapshot(scenario, seed, sizing, directory)
        builds.append((
            phases["setup_s"], plan.digest(),
            file_hash(scenario.store_dirs(directory), PAGES_FILENAME),
        ))
    if builds[0][1:] != builds[1][1:]:
        failed += 1
        notes.append("the two set-ups differ")
    snapshot = os.path.join(root, "snapshot0")

    per_rep: List[List[float]] = []
    recoveries: List[float] = []
    reference = None
    final_model = None
    attempted = 0
    crashed = os.path.join(root, "crashed")

    def recovery_trial(directory: str) -> int:
        elapsed, wrong, recovered = recover_and_check(
            scenario, directory, plan, final_model
        )
        scenario.close(recovered)
        recoveries.append(elapsed)
        return wrong

    measured = perf_counter()
    for rep in range(sizing.reps):
        if rep >= sizing.min_reps and perf_counter() - measured >= budget:
            notes.append(f"budget of {budget:g}s spent after {rep} reps")
            break
        workdir = os.path.join(root, f"rep{rep}")
        shutil.copytree(snapshot, workdir)
        gc.collect()
        dep = scenario.open(workdir, plan)
        checker = None
        if rep == 0:
            # The model starts from what the reopened deployment itself
            # holds (binary32-rounded by the page codec), after checking
            # that against the inputs; later writes stay exact in memory.
            stored = scenario.live_entries(dep)
            failed += entries_mismatch(
                stored, model_after(plan.entries, plan.warmup),
                plan.warmup[-1].time,
            )
            checker = Checker(scenario, Model(stored))
        seconds, answers, raised = replay(scenario, dep, plan, checker)
        counters = scenario.counters(dep, workdir)
        scenario.crash(dep)
        failed += raised
        attempted += sum(step.samples for step in plan.steps)
        per_rep.append(seconds)
        observed = (answers, counters)
        if rep == 0:
            reference = observed
            final_model = checker.model
            failed += checker.failed
            shutil.copytree(workdir, crashed)
        elif observed != reference:
            failed += 1
            notes.append(f"rep {rep} differs from rep 0: {observed}")
        failed += recovery_trial(workdir)
        shutil.rmtree(workdir)
    reps = len(per_rep)
    while len(recoveries) - reps < MIN_EXTRA_RECOVERIES or (
        len(recoveries) - reps < MAX_EXTRA_RECOVERIES
        and sum(recoveries[reps:]) < EXTRA_RECOVERY_SECONDS
    ):
        trial = os.path.join(root, "trial")
        shutil.copytree(crashed, trial)
        failed += recovery_trial(trial)
        shutil.rmtree(trial)

    best = best_vector(per_rep)
    samples = timed_samples(plan, best)
    answers, counters = reference
    writes = sum(len(step_writes(step)) for step in plan.steps)
    live = sum(
        1 for point in final_model.points.values()
        if not point.t_exp < plan.steps[-1].time
    )
    metrics = {
        "setup_s": min(build[0] for build in builds),
        "ops_s": trimmed_ops_per_second(samples),
        "op_p50_ms": percentile(samples, 50) * 1e3,
        "op_p95_ms": percentile(samples, 95) * 1e3,
        "io_per_op": counters["io"] / sum(s.samples for s in plan.steps),
        "wal_bytes_per_write": counters["wal_bytes"] / writes,
        "store_bytes_per_entry": counters["store_bytes"] / live,
        "recovery_s": min(recoveries),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": {
            "reps": reps,
            "timed_samples": len(samples),
            "writes_per_rep": writes,
            "live_entries": live,
            # What the structural ops do to the mean and the far tail is
            # seed-dependent at this run length: printed, never gated.
            "mean_ops_s": ops_per_second(samples),
            "op_p99_ms": percentile(samples, 99) * 1e3,
            "setups_s": [build[0] for build in builds],
            "recoveries_s": recoveries,
            # Raw per-rep figures, printed beside the best-of ones and
            # never gated: they show what the host did to each rep.
            "rep_ops_s": [
                ops_per_second(timed_samples(plan, rep)) for rep in per_rep
            ],
            "rep_p50_ms": [
                statistics.median(timed_samples(plan, rep)) * 1e3
                for rep in per_rep
            ],
            "notes": notes,
        },
    }


class IOByKind:
    """Page I/O of the traced rep, split between searches and updates.

    An observer with the :class:`Checker` interface; only deployments
    with an in-process tree expose their ``IOStats`` per step.
    """

    _KIND = {"query": "search", "batch": "search", "knn": "search",
             "write": "update"}

    def __init__(self, dep):
        self.pages = {"search": 0, "update": 0}
        self.ops = {"search": 0, "update": 0}
        self._stats = dep.tree.stats if hasattr(dep, "tree") else None
        self._seen = self._total()

    def _total(self) -> int:
        stats = self._stats
        return stats.reads + stats.writes if stats is not None else 0

    def after(self, dep, step: Step, answer) -> None:
        """Charge the step's page I/O to its kind."""
        total = self._total()
        kind = self._KIND.get(step.kind)
        if kind is not None and self._stats is not None:
            self.pages[kind] += total - self._seen
            self.ops[kind] += step.samples
        self._seen = total

    def per_op(self, kind: str) -> float:
        """Pages per operation of ``kind`` (0 when none ran)."""
        return self.pages[kind] / self.ops[kind] if self.ops[kind] else 0.0


def run_traced(scenario, seed: int, sizing: Sizing) -> dict:
    """The per-layer pass: spans, counts, a profile, isolated replays."""
    root = scratch_root()
    try:
        return _run_traced(scenario, seed, sizing, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_traced(scenario, seed, sizing, root) -> dict:
    snapshot = os.path.join(root, "snapshot")
    plan, phases = build_snapshot(scenario, seed, sizing, snapshot)

    def fresh(name: str) -> str:
        workdir = os.path.join(root, name)
        shutil.copytree(snapshot, workdir)
        gc.collect()
        return workdir

    # One untraced rep: what the spans cost is judged against it.
    dep = scenario.open(fresh("plain"), plan)
    plain, plain_answers, raised = replay(scenario, dep, plan)
    scenario.crash(dep)

    workdir = fresh("traced")
    trace = Trace(Recorder())
    traced_dep = scenario.open(workdir, plan, trace)
    io = IOByKind(traced_dep)
    traced, answers, raised_traced = replay(
        scenario, traced_dep, plan, io, trace.recorder
    )
    registry = scenario.registry(traced_dep)
    audit = scenario.audit(traced_dep)
    scenario.crash(traced_dep)
    failed = raised + raised_traced + int(answers != plain_answers)

    # The crashed stores, reopened plainly: what recovery replays and
    # skips, how fast the log scans, and the final tree's own nodes.
    crashed = os.path.join(root, "crashed")
    shutil.copytree(workdir, crashed)
    wal_bytes = scan_seconds = 0.0
    for directory in scenario.store_dirs(crashed):
        path = os.path.join(directory, WAL_FILENAME)
        wal_bytes += os.path.getsize(path)
        started = perf_counter()
        scan_wal(path)
        scan_seconds += perf_counter() - started
    nodes, reports, now, horizon = captured_nodes(scenario.store_dirs(crashed))
    recovery_s, wrong, recovered = recover_and_check(
        scenario, workdir, plan,
        model_after(plan.entries, plan.warmup + plan.steps),
    )
    scenario.close(recovered)

    dep = scenario.open(fresh("profiled"), plan)
    profile = profile_segment(scenario, dep, plan)
    scenario.crash(dep)

    rec = trace.recorder
    ops = sum(step.samples for step in plan.steps)
    writes = sum(len(step_writes(step)) for step in plan.steps)
    kops = ops / 1000.0
    value = registry.value

    def p50_ms(name: str) -> float:
        spans = rec.durations(name)
        return statistics.median(spans) * 1e3 if spans else 0.0

    def mean_of(name: str) -> float:
        histogram = registry.get(name)
        return histogram.mean if histogram is not None else 0.0

    metrics = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    metrics.update(
        (name, seconds) for name, seconds in phases.items()
        if name in metrics
    )
    metrics.update(profile)
    metrics.update(isolated_layers(nodes, now, horizon, plan, seed))
    metrics.update(wire_layers(plan))
    own = self_time_of(rec.spans, "core.tree.update")
    batched = sum(s.samples for s in plan.steps if s.kind == "batch")
    hits, misses = value("buffer.hits"), value("buffer.misses")
    metrics.update({
        "core.tree.update_self_ms":
            statistics.fmean(own) * 1e3 if own else 0.0,
        "core.tree.splits_per_kop": value("tree.splits") / kops,
        "core.tree.reinserts_per_kop": value("tree.forced_reinserts") / kops,
        "core.tree.purged_entries_per_kop": (
            value("tree.purged_leaf_entries")
            + value("tree.purged_subtree_leaf_entries")
        ) / kops,
        "core.tree.query_timeslice_p50_ms":
            p50_ms("core.tree.query.timeslice"),
        "core.tree.query_window_p50_ms": p50_ms("core.tree.query.window"),
        "core.tree.query_moving_p50_ms": p50_ms("core.tree.query.moving"),
        "core.tree.query_batch_ms_per_query": (
            rec.total("core.tree.query_batch") / batched * 1e3
            if batched else 0.0
        ),
        "core.tree.knn_p50_ms": p50_ms("core.tree.knn"),
        "core.tree.nodes_visited_per_query":
            mean_of("tree.query_nodes_visited"),
        "core.tree.knn_nodes_visited": mean_of("tree.knn_nodes_visited"),
        "core.tree.search_io_per_query": io.per_op("search"),
        "core.tree.update_io_per_update": io.per_op("update"),
        "core.tree.height": audit.height,
        "core.tree.pages": audit.nodes,
        "core.tree.expired_frac": audit.expired_fraction,
        "storage.buffer.hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "storage.buffer.evictions_per_op": value("buffer.evictions") / ops,
        "storage.wal.scan_mb_s": wal_bytes / scan_seconds / 1e6,
        "storage.wal.recover_pages_replayed":
            sum(report.pages_replayed for report in reports),
        "storage.wal.skipped_expired":
            sum(report.wal_skipped_expired for report in reports)
            + value("replication.skipped_expired"),
        "obs.tracing_overhead_frac": 1.0 - (
            ops_per_second(timed_samples(plan, traced))
            / ops_per_second(timed_samples(plan, plain))
        ),
    })
    store = getattr(getattr(traced_dep, "tree", None), "disk", None)
    if store is not None and store.commits:
        metrics.update({
            "storage.pagefile.commit_ms_per_write":
                rec.total("storage.pagefile.commit") / writes * 1e3,
            "storage.pagefile.pages_per_commit":
                (store.records - store.commits) / store.commits,
            "storage.pagefile.commits_per_write": store.commits / writes,
            "storage.wal.records_per_write": store.records / writes,
            # One flush to the OS per non-empty group commit (fsync off).
            "storage.wal.flushes_per_write": store.commits / writes,
        })
    runs = getattr(traced_dep, "runs", [])
    if runs:
        applied = sum(run.ops for run in runs)
        busy = [
            sum(run.shard_busy_seconds[i] for run in runs)
            for i in range(len(runs[0].shard_busy_seconds))
        ]
        queries = sum(
            1 for step in plan.steps if step.kind == "apply"
            for op in step.payload if isinstance(op, QueryOp)
        )
        metrics.update({
            "shard.router.cpu_ms_per_op":
                sum(r.router_cpu_seconds for r in runs) / applied * 1e3,
            "shard.router.blocked_frac":
                sum(r.blocked_seconds for r in runs)
                / sum(r.wall_seconds for r in runs),
            "shard.router.scatter_width":
                sum(r.scattered_queries for r in runs) / queries,
            "shard.worker.busy_ms_per_op": sum(busy) / applied * 1e3,
            "shard.worker.busy_balance":
                max(busy) / statistics.fmean(busy),
        })
    link = getattr(traced_dep, "link", None)
    if link is not None:
        replica_spans = rec.durations("replication.replica.query")
        metrics.update({
            "replication.tick_ms_per_op":
                rec.total("replication.link.tick") / ops * 1e3,
            "replication.shipped_bytes_per_write":
                value("replication.shipped_bytes") / writes,
            "replication.max_staleness_s": link.max_staleness,
            "replication.truncation_cycles": traced_dep.maintainer.cycles,
            "replication.footprint_high_water_b": link.footprint_high_water,
            "replication.replica_query_ms":
                statistics.fmean(replica_spans) * 1e3,
            "replication.failover_s": recovery_s,
            "serve.subscriptions.notify_us_per_write":
                rec.total("serve.subscriptions.notify") / writes * 1e6,
            "serve.subscriptions.deltas_per_write":
                (traced_dep.subs.adds + traced_dep.subs.removes) / writes,
        })
    if scenario.name == "ingest_durable":
        metrics["serve.frontend.overhead_us_per_req"] = frontend_overhead_us(
            scenario.store_dirs(fresh("frontend"))[0], plan
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write_jsonl(os.path.join(OUT_DIR, f"trace-{scenario.name}.jsonl"))
    failed += wrong
    return {
        "correct": failed == 0,
        "attempted": 2 * ops,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": {"spans": len(rec.spans), "nodes": len(nodes)},
    }
