"""Chaos soak: drive a served workload through a scheduled fault script.

The soak harness is the serving layer's end-to-end acceptance test.  It
replays a Section 5.1 network workload twice:

1. An *oracle* pass: a pure-python brute-force replay over the exact
   float64 workload points, recording every query's answer set and each
   object's full report history.
2. A *served* pass: a durable tree behind a
   :class:`~repro.serve.frontend.ServiceFrontend`, with a
   :class:`FaultScript` injecting transient I/O bursts, one mid-run
   process kill (recovered via WAL replay) and a sustained overload
   phase (compressed arrivals).

It then asserts the serving SLOs:

* every non-degraded (``ok``) answer equals the oracle answer exactly;
* every degraded answer is explainable within expiration semantics —
  each *extra* object is backed by a genuinely reported motion that
  still matched the query inside its expiration window, and each
  *missing* object's latest report postdates the backing snapshot;
* the write backlog fully drains (nothing lost, nothing duplicated)
  and no write is ever shed;
* breaker trips, probes, recoveries and kills match the script's
  pinned expectations exactly;
* degraded staleness stays under the script's bound.

``repro soak`` runs the seeded default script and writes
``BENCH_soak.json``.  With ``--replica`` a :class:`ReplicaScenario`
rides on top: the primary ships its WAL to a tailing replica through a
faulty channel while online maintenance truncates the log, the kill is
answered by promotion instead of a reopen (audited for zero committed-
write loss), and the replication SLOs — bounded staleness, completed
truncation cycles, bounded WAL footprint — are asserted alongside the
serving ones.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.tree import MovingObjectTree
from ..geometry.intersection import region_matches_point
from ..obs.metrics import MetricsRegistry
from ..obs.slo import default_serve_slos
from ..replication import OnlineMaintainer, ReplicaLink, start_follower
from ..serve.frontend import FrontendConfig, ServiceFrontend, ServiceReport
from ..serve.retry import RetryPolicy
from ..serve.subscriptions import SubscriptionIndex
from ..storage.faults import FaultInjector
from ..workloads.base import DeleteOp, InsertOp, QueryOp, UpdateOp
from ..workloads.network import NetworkParams, generate_network_workload
from ..workloads.pacing import ArrivalPacer, BurstWindow


def _to_json(spec) -> dict:
    """A frozen dataclass as JSON-serializable data: tuples become lists."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(spec).items()
    }


def _from_json(cls, payload: dict):
    """Rebuild a dataclass from its :func:`_to_json` form.

    Missing fields take their defaults and unknown keys are ignored, so
    a script survives the format growing a field.
    """
    known = {spec.name for spec in fields(cls)}
    return cls(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
        if key in known
    })


@dataclass(frozen=True)
class FaultScript:
    """A deterministic schedule of faults and overload for one soak run.

    Attributes
    ----------
    transient_writes : tuple of int
        1-based physical-write indices that fail transiently in the
        first process incarnation.
    transient_reads : tuple of int
        1-based guarded-read indices (reads are only counted while a
        query executes) that fail transiently in the first incarnation.
    kill_at_write : int, optional
        Physical write at which the first incarnation dies
        (:class:`~repro.storage.faults.SimulatedCrash`); ``None`` for
        no kill.
    post_kill_transient_writes, post_kill_transient_reads : tuple of int
        Transient schedules armed on the post-recovery incarnation.
    overload : tuple of float, optional
        ``(start, end, compress)``: workload times whose arrivals are
        compressed by ``compress`` (the sustained overload phase).
    seed : int
        Seed shared by the workload generator and the backoff jitter.
    staleness_bound : float
        Maximum tolerated degraded-answer staleness, workload seconds.
    expected_trips, expected_probes, expected_recoveries : int, optional
        Pinned breaker counts the run must reproduce exactly; ``None``
        skips the check (used while calibrating a new script).
    """

    transient_writes: Tuple[int, ...] = ()
    transient_reads: Tuple[int, ...] = ()
    kill_at_write: Optional[int] = None
    post_kill_transient_writes: Tuple[int, ...] = ()
    post_kill_transient_reads: Tuple[int, ...] = ()
    overload: Optional[Tuple[float, float, float]] = None
    seed: int = 0
    staleness_bound: float = 60.0
    expected_trips: Optional[int] = None
    expected_probes: Optional[int] = None
    expected_recoveries: Optional[int] = None

    def injector(self, incarnation: int) -> FaultInjector:
        """Build the fault injector for process incarnation ``incarnation``.

        Incarnation 0 carries the transient schedules plus the kill;
        every later incarnation (after WAL recovery) carries the
        post-kill schedules and never dies again.
        """
        if incarnation == 0:
            return FaultInjector(
                crash_at_write=self.kill_at_write,
                mode="kill",
                seed=self.seed,
                transient_writes=self.transient_writes,
                transient_reads=self.transient_reads,
            )
        return FaultInjector(
            seed=self.seed + incarnation,
            transient_writes=self.post_kill_transient_writes,
            transient_reads=self.post_kill_transient_reads,
        )

    def bursts(self) -> Tuple[BurstWindow, ...]:
        """The overload phase as arrival-pacing burst windows."""
        if self.overload is None:
            return ()
        start, end, compress = self.overload
        return (BurstWindow(start, end, compress),)

    def to_json(self) -> dict:
        """A JSON-serializable form (the documented fault-script format)."""
        return _to_json(self)

    @classmethod
    def from_json(cls, payload: dict) -> "FaultScript":
        """Rebuild a script from its :meth:`to_json` form."""
        return _from_json(cls, payload)


def default_fault_script(seed: int = 0) -> FaultScript:
    """The seeded default script ``repro soak`` runs.

    Two transient write bursts (each long enough to outlast the retry
    ladder and trip the breaker, with one fault left over to fail the
    first probe), a guarded-read hiccup during a query (retried
    successfully), one process kill with WAL recovery, a transient
    fault in the recovered incarnation, and a 25x arrival-compression
    overload phase.  The expected breaker counts are pinned from the
    recorded deterministic run.
    """
    return FaultScript(
        transient_writes=(2000, 2001, 2002, 2003, 8000, 8001, 8002, 8003),
        transient_reads=(1500,),
        kill_at_write=16000,
        post_kill_transient_writes=(200,),
        overload=(220.0, 260.0, 25.0),
        seed=seed,
        staleness_bound=30.0,
        expected_trips=2,
        expected_probes=4,
        expected_recoveries=2,
    )


@dataclass(frozen=True)
class ReplicaScenario:
    """The replication chaos scenario riding on a soak's fault script.

    When active, the soak's primary ships its WAL to a tailing replica
    through a faulty channel while an online maintainer truncates the
    log under it; the script's process kill is answered by *failover*
    (promotion) instead of a reopen, with a fresh follower re-seeded
    from the promoted primary.  The scenario's own SLOs are asserted on
    top of the serving ones.

    Attributes
    ----------
    poll_every : int
        Served requests between replica shipping polls.
    wal_soft_limit : int
        Primary WAL bytes that arm an online truncation cycle.
    chain_budget : int
        Free-chain slot writes per maintenance step.
    staleness_budget : float
        Maximum tolerated replica lag (index-clock seconds) — both the
        per-poll SLO budget and the run-level ``max_staleness`` bound.
    slo_target : float
        Target fraction of polls inside the budget.
    channel_transients : tuple of int
        1-based shipping-channel transfer indices that fail
        transiently (the transfer never happened; retried).
    channel_torn_at : int, optional
        Transfer at which the shipping connection dies mid-send,
        delivering torn bytes; ``None`` for no torn fault.
    min_truncations : int
        Truncation cycles the run must complete (across incarnations)
        for the WAL-footprint measurement to mean anything.
    footprint_bound : int
        Bound on the replication disk high-water mark (live primary
        WAL + archive segments + replica WAL), in bytes.
    expected_trips, expected_probes, expected_recoveries : int, optional
        Breaker pins for the *replicated* run (maintenance writes share
        the injector's write counter, so the script's own pins do not
        transfer); ``None`` skips, as in :class:`FaultScript`.
    """

    poll_every: int = 4
    wal_soft_limit: int = 24 * 1024
    chain_budget: int = 8
    staleness_budget: float = 30.0
    slo_target: float = 0.9
    channel_transients: Tuple[int, ...] = (3,)
    channel_torn_at: Optional[int] = 9
    min_truncations: int = 3
    footprint_bound: int = 1 << 20
    expected_trips: Optional[int] = None
    expected_probes: Optional[int] = None
    expected_recoveries: Optional[int] = None

    def to_json(self) -> dict:
        """A JSON-serializable form, symmetric with :meth:`from_json`."""
        return _to_json(self)

    @classmethod
    def from_json(cls, payload: dict) -> "ReplicaScenario":
        """Rebuild a scenario from its :meth:`to_json` form."""
        return _from_json(cls, payload)


def default_replica_scenario() -> ReplicaScenario:
    """The pinned replication scenario ``repro soak --replica`` runs.

    A transient shipping fault and a torn mid-transfer connection death
    early in the run, aggressive truncation (small soft limit) so log
    compaction races shipment many times, and the default script's kill
    answered by promotion.  Breaker pins recorded from the
    deterministic run.
    """
    return ReplicaScenario(
        poll_every=4,
        wal_soft_limit=24 * 1024,
        staleness_budget=30.0,
        channel_transients=(3,),
        channel_torn_at=9,
        min_truncations=3,
        footprint_bound=1 << 20,
        expected_trips=1,
        expected_probes=1,
        expected_recoveries=1,
    )


def default_soak_params(seed: int = 0, insertions: int = 2000) -> NetworkParams:
    """The small Section 5.1 network workload the soak drives."""
    return NetworkParams(
        target_population=60,
        insertions=insertions,
        update_interval=10.0,
        space=100.0,
        destinations=6,
        queries_per_insertions=5,
        seed=seed,
    )


def default_frontend_config(script: FaultScript) -> FrontendConfig:
    """Serving parameters matched to the default script's overload."""
    return FrontendConfig(
        queue_capacity=256,
        service_time=0.05,
        query_deadline=5.0,
        retry=RetryPolicy(budget=200),
        failure_threshold=3,
        cooldown=5.0,
        checkpoint_interval=25,
        backlog_capacity=512,
        seed=script.seed,
    )


@dataclass
class SoakReport:
    """Outcome of one soak run: counters, SLO verdicts, violations."""

    ops: int
    queries: int
    total_writes: int
    violations: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    script: Optional[dict] = None
    #: Per-objective status exports from the frontend's SLOTracker
    #: (availability / freshness error budgets), keyed by SLO name.
    slos: Dict[str, dict] = field(default_factory=dict)
    #: Standing-query counters (adds/removes/expirations/delivered/
    #: dropped), present only when the soak ran with subscriptions.
    subscriptions: Dict[str, int] = field(default_factory=dict)
    #: Replication scenario measurements (shipping, staleness, failover,
    #: truncation), present only when the soak ran with a replica.
    replication: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every SLO held."""
        return not self.violations

    def summary(self) -> str:
        """One line: ops served, degradation/retry counts, verdict."""
        verdict = "PASS" if self.passed else f"FAIL({len(self.violations)})"
        c = self.counters
        return (
            f"soak {verdict}: {self.ops} ops ({self.queries} queries, "
            f"{self.total_writes} physical writes); "
            f"degraded {c.get('degraded_answers', 0)}, retries "
            f"{c.get('retries', 0)}, trips {c.get('trips', 0)}, "
            f"recoveries {c.get('recoveries', 0)}, kills "
            f"{c.get('kills', 0)}, shed {c.get('shed_queries', 0)}q/"
            f"{c.get('shed_writes', 0)}w, timeouts "
            f"{c.get('deadline_timeouts', 0)}, max staleness "
            f"{c.get('max_staleness', 0.0):.1f}s"
        )

    def to_json(self) -> dict:
        """JSON payload written to ``BENCH_soak.json``."""
        return {
            "passed": self.passed,
            "ops": self.ops,
            "queries": self.queries,
            "total_writes": self.total_writes,
            "counters": self.counters,
            "violations": self.violations,
            "script": self.script,
            "slos": self.slos,
            "subscriptions": self.subscriptions,
            "replication": self.replication,
        }


def _oracle_replay(ops: Sequence) -> Tuple[Dict[int, set], Dict[int, list]]:
    """Brute-force replay: per-query answer sets and report histories.

    Returns
    -------
    answers : dict
        Stream index of each query -> set of matching oids.
    history : dict
        oid -> ordered ``(stream_index, point_or_None)`` report events
        (``None`` marks an explicit deletion).
    """
    live: Dict[int, object] = {}
    history: Dict[int, list] = {}
    answers: Dict[int, set] = {}
    for i, op in enumerate(ops):
        if isinstance(op, InsertOp):
            live[op.oid] = op.point
            history.setdefault(op.oid, []).append((i, op.point))
        elif isinstance(op, UpdateOp):
            live[op.oid] = op.new_point
            history.setdefault(op.oid, []).append((i, op.new_point))
        elif isinstance(op, DeleteOp):
            live.pop(op.oid, None)
            history.setdefault(op.oid, []).append((i, None))
        elif isinstance(op, QueryOp):
            region = op.query.region()
            answers[i] = {
                oid
                for oid, point in live.items()
                if region_matches_point(region, point)
            }
    return answers, history


def _points_close(a, b, tol: float = 1e-4) -> bool:
    """Whether two motion points agree up to float32 round-tripping."""
    def close(x: float, y: float) -> bool:
        return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

    return (
        all(close(x, y) for x, y in zip(a.pos, b.pos))
        and all(close(x, y) for x, y in zip(a.vel, b.vel))
        and close(a.t_ref, b.t_ref)
        and (a.t_exp == b.t_exp or close(a.t_exp, b.t_exp))
    )


def _verify_degraded(outcome, op, oracle_answer, history) -> List[str]:
    """SLO 2: a degraded answer must be explainable within expiration."""
    violations: List[str] = []
    region = op.query.region()
    got = set(outcome.answer)
    idx = outcome.index
    for oid in sorted(got - oracle_answer):
        evidence = outcome.evidence.get(oid)
        if evidence is None:
            violations.append(
                f"query {idx}: extra oid {oid} carries no evidence"
            )
            continue
        if not region_matches_point(region, evidence):
            violations.append(
                f"query {idx}: extra oid {oid} evidence does not match "
                f"the query within its expiration window"
            )
            continue
        reported = any(
            point is not None
            and event_index <= idx
            and _points_close(point, evidence)
            for event_index, point in history.get(oid, ())
        )
        if not reported:
            violations.append(
                f"query {idx}: extra oid {oid} evidence matches no "
                f"actually reported motion"
            )
    for oid in sorted(oracle_answer - got):
        events = [
            event_index
            for event_index, _ in history.get(oid, ())
            if event_index <= idx
        ]
        latest = max(events) if events else -1
        if latest < outcome.snapshot_op_index:
            violations.append(
                f"query {idx}: missing oid {oid} was last reported at "
                f"op {latest}, inside the snapshot horizon "
                f"{outcome.snapshot_op_index}"
            )
    return violations


def _check_slos(
    script: FaultScript,
    report: ServiceReport,
    ops: Sequence,
    oracle_answers: Dict[int, set],
    history: Dict[int, list],
    replicated: bool = False,
) -> List[str]:
    """Assert every serving SLO; return the violations found."""
    violations: List[str] = []
    for outcome in report.outcomes:
        if outcome.status == "ok":
            want = oracle_answers.get(outcome.index)
            if want is None:
                violations.append(
                    f"op {outcome.index} answered but is not a query"
                )
            elif set(outcome.answer) != want:
                violations.append(
                    f"query {outcome.index}: non-degraded answer "
                    f"{sorted(outcome.answer)} != oracle {sorted(want)}"
                )
        elif outcome.status == "degraded":
            violations.extend(
                _verify_degraded(
                    outcome,
                    ops[outcome.index],
                    oracle_answers.get(outcome.index, set()),
                    history,
                )
            )
    if report.backlog_replayed != report.backlog_enqueued:
        violations.append(
            f"backlog not fully replayed: {report.backlog_replayed} of "
            f"{report.backlog_enqueued}"
        )
    if report.backlog_remaining:
        violations.append(
            f"{report.backlog_remaining} atoms left in the backlog"
        )
    if report.shed_writes:
        violations.append(f"{report.shed_writes} writes shed")
    if report.failed_queries:
        violations.append(
            f"{report.failed_queries} queries failed terminally"
        )
    expected_kills = 1 if script.kill_at_write is not None else 0
    if replicated:
        # A ready follower turns every kill into a promotion; a reopen
        # would mean the failover path was silently bypassed.
        if report.kills != expected_kills or \
                report.promotions != expected_kills:
            violations.append(
                f"kills/promotions {report.kills}/{report.promotions} != "
                f"expected {expected_kills}"
            )
        if report.reopens:
            violations.append(
                f"{report.reopens} reopens despite a promotable replica"
            )
    elif report.kills != expected_kills or report.reopens != expected_kills:
        violations.append(
            f"kills/reopens {report.kills}/{report.reopens} != "
            f"expected {expected_kills}"
        )
    for name, expected in (
        ("trips", script.expected_trips),
        ("probes", script.expected_probes),
        ("recoveries", script.expected_recoveries),
    ):
        if expected is not None and getattr(report, name) != expected:
            violations.append(
                f"{name} {getattr(report, name)} != pinned {expected}"
            )
    if report.max_staleness > script.staleness_bound:
        violations.append(
            f"max degraded staleness {report.max_staleness:.1f}s exceeds "
            f"bound {script.staleness_bound:.1f}s"
        )
    if script.overload is not None and not (
        report.shed_queries or report.deadline_timeouts
    ):
        violations.append(
            "overload phase produced neither shedding nor timeouts"
        )
    return violations


def _standing_queries(
    count: int, space: float, duration: float, seed: int
) -> List:
    """Seeded standing queries mixing all three paper query types."""
    import random as _random

    from ..geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
    from ..geometry.rect import Rect

    rng = _random.Random(seed)

    def rect() -> Rect:
        x = rng.uniform(0.0, 0.8 * space)
        y = rng.uniform(0.0, 0.8 * space)
        w = rng.uniform(0.05, 0.25) * space
        return Rect((x, y), (x + w, y + w))

    queries = []
    for _ in range(count):
        kind = rng.randrange(3)
        t1 = rng.uniform(0.0, duration)
        if kind == 0:
            queries.append(TimesliceQuery(rect(), t1))
        elif kind == 1:
            queries.append(
                WindowQuery(rect(), t1, t1 + rng.uniform(0.0, duration / 4))
            )
        else:
            queries.append(MovingQuery(
                rect(), rect(), t1, t1 + rng.uniform(1.0, duration / 4)
            ))
    return queries


def _check_subscriptions(
    subs: SubscriptionIndex,
    sids: Sequence[int],
    final_entries: Sequence[Tuple],
    now: float,
) -> List[str]:
    """Assert the continuous-query SLOs; return violations found.

    Three checks per subscription: no deltas were dropped, replaying
    the published deltas from empty reconstructs exactly the maintained
    answer, and that answer equals a fresh brute-force evaluation of
    the standing query over the mirrored live population.  Finally the
    mirrored population itself must agree with the served index's final
    expiration-visible leaf entries.
    """
    violations: List[str] = []
    if subs.dropped:
        violations.append(
            f"{subs.dropped} subscription deltas dropped to queue overflow"
        )
    for sid in sids:
        if subs.is_lagged(sid):
            violations.append(f"subscription {sid} lagged")
            continue
        replayed: set = set()
        for delta in subs.poll(sid):
            replayed |= set(delta.added)
            replayed -= set(delta.removed)
        answer = set(subs.answer(sid))
        if replayed != answer:
            violations.append(
                f"subscription {sid}: delta replay {sorted(replayed)} != "
                f"maintained answer {sorted(answer)}"
            )
        region = subs._subs[sid].region
        fresh = {
            oid for point, oid in subs.live_entries()
            if not point.t_exp < now and region_matches_point(region, point)
        }
        if answer != fresh:
            violations.append(
                f"subscription {sid}: maintained answer {sorted(answer)} "
                f"!= re-evaluated answer {sorted(fresh)}"
            )
    mirrored = {
        oid for point, oid in subs.live_entries() if not point.t_exp < now
    }
    indexed = {
        oid for point, oid in final_entries if not point.t_exp < now
    }
    if mirrored != indexed:
        violations.append(
            f"subscription live mirror diverged from the index: "
            f"{len(mirrored ^ indexed)} oids differ"
        )
    return violations


def run_soak(
    script: Optional[FaultScript] = None,
    params: Optional[NetworkParams] = None,
    tree_config: Optional[TreeConfig] = None,
    frontend_config: Optional[FrontendConfig] = None,
    registry=None,
    tracer=None,
    subscriptions: int = 0,
    replica: Optional[ReplicaScenario] = None,
) -> SoakReport:
    """Run the chaos soak and verify every SLO.

    Parameters
    ----------
    script : FaultScript, optional
        Fault schedule; the pinned default when omitted.
    params : NetworkParams, optional
        Workload shape; the small default network workload when omitted.
    tree_config : TreeConfig, optional
        Member tree configuration (512-byte pages by default, the
        densest commit cadence).
    frontend_config : FrontendConfig, optional
        Serving parameters; defaults matched to the default script.
    registry, tracer : optional
        Observability sinks passed through to the frontend.  A
        registry is created when none is given: the soak always
        *measures* its SLOs through the frontend's SLOTracker (error
        budgets are asserted like every other SLO), rather than only
        re-deriving them from report counters.
    subscriptions : int, optional
        Standing queries registered on a
        :class:`~repro.serve.subscriptions.SubscriptionIndex` the
        frontend notifies through every fault, crash and backlog
        replay.  After the run, every subscription's delta stream must
        replay to exactly its re-evaluated answer set (see
        :func:`_check_subscriptions`); 0 disables the scenario.
    replica : ReplicaScenario, optional
        Runs the replication chaos scenario: a WAL-shipped read
        replica tails the primary through a faulty channel, online
        maintenance truncates the primary's log mid-run, and the
        script's kill is answered by promoting the replica (zero
        committed writes lost, audited bit-for-bit against the dead
        primary's committed prefix).  ``None`` disables the scenario.

    Returns
    -------
    SoakReport
        Counters plus the list of SLO violations (empty = pass).
    """
    if script is None:
        script = default_fault_script()
    if registry is None:
        registry = MetricsRegistry()
    if params is None:
        params = default_soak_params(seed=script.seed)
    if tree_config is None:
        tree_config = TreeConfig(page_size=512, buffer_pages=8)
    if frontend_config is None:
        frontend_config = default_frontend_config(script)
    workload = generate_network_workload(params)
    ops = workload.ops
    oracle_answers, history = _oracle_replay(ops)

    subs = None
    sub_sids: List[int] = []
    if subscriptions:
        duration = ops[-1].time if ops else 0.0
        # An unbounded-in-practice queue: the soak polls only at the
        # end, and a dropped delta would (correctly) fail the replay
        # check rather than model consumer lag.
        subs = SubscriptionIndex(
            space=params.space,
            cells=8,
            max_pending=1 << 30,
            registry=registry,
        )
        for query in _standing_queries(
            subscriptions, params.space, max(duration, 1.0), script.seed + 1
        ):
            sub_sids.append(subs.register(query))

    with tempfile.TemporaryDirectory(prefix="soak-") as tmp:
        directory = os.path.join(tmp, "store")
        injector = script.injector(0)
        injectors = [injector]
        tree = MovingObjectTree.create_durable(
            directory, tree_config, SimulationClock(), injector=injector
        )

        def reopen():
            reopened = MovingObjectTree.open_from(
                directory, tree_config, SimulationClock()
            )
            fresh = script.injector(len(injectors))
            injectors.append(fresh)
            reopened.disk.arm_injector(fresh)
            return reopened, fresh

        link: Optional[ReplicaLink] = None
        maintainers: List[OnlineMaintainer] = []
        audit_violations: List[str] = []
        if replica is not None:
            primary_dirs = [directory]

            def build_follower(primary_tree, channel_injector=None):
                n = len(maintainers)
                channel, follower, maintainer = start_follower(
                    primary_tree.disk, os.path.join(tmp, f"replica{n}"),
                    injector=channel_injector, registry=registry,
                    wal_soft_limit=replica.wal_soft_limit,
                    chain_budget=replica.chain_budget,
                )
                maintainers.append(maintainer)
                return channel, follower, maintainer

            def audit_promotion(promoted) -> None:
                # Zero-loss check: recover a copy of the dead primary's
                # directory (its durable committed prefix, exactly what
                # a plain reopen would serve) and demand the promoted
                # tree matches it bit for bit — same commit sequence,
                # identical unexpired entries.
                ground_dir = os.path.join(tmp, f"audit{len(injectors)}")
                shutil.copytree(primary_dirs[-1], ground_dir)
                ground = MovingObjectTree.open_from(
                    ground_dir, tree_config, SimulationClock()
                )
                now = promoted.clock.time

                def unexpired(t):
                    return sorted(
                        (oid, tuple(p.pos), tuple(p.vel), p.t_ref, p.t_exp)
                        for p, oid in t.snapshot().leaf_entries()
                        if not p.t_exp < now
                    )

                if ground.disk.op_seq != promoted.disk.op_seq:
                    audit_violations.append(
                        f"promotion lost commits: op_seq "
                        f"{promoted.disk.op_seq} != committed prefix "
                        f"{ground.disk.op_seq}"
                    )
                elif unexpired(ground) != unexpired(promoted):
                    audit_violations.append(
                        "promoted state is not bit-identical to the dead "
                        "primary's committed prefix"
                    )
                ground.close()

            def on_promote(promoted):
                audit_promotion(promoted)
                primary_dirs.append(promoted.disk.directory)
                fresh = script.injector(len(injectors))
                injectors.append(fresh)
                promoted.disk.arm_injector(fresh)
                return fresh

            channel_injector = None
            if replica.channel_torn_at or replica.channel_transients:
                channel_injector = FaultInjector(
                    crash_at_write=replica.channel_torn_at,
                    mode="torn",
                    seed=script.seed + 77,
                    transient_writes=replica.channel_transients,
                )
            first_channel, first_follower, first_maint = build_follower(
                tree, channel_injector
            )
            link = ReplicaLink(
                first_channel, first_follower, first_maint,
                promote_config=tree_config,
                registry=registry,
                staleness_budget=replica.staleness_budget,
                slo_target=replica.slo_target,
                poll_every=replica.poll_every,
                reseed=build_follower,
                on_promote=on_promote,
                tracer=tracer,
            )

        # The chaos script *deliberately* sheds and times out queries
        # (the pinned default burns ~15% of them), so the soak asserts
        # chaos-mode error budgets rather than the production serving
        # targets of :func:`~repro.obs.slo.default_serve_slos`.
        frontend = ServiceFrontend(
            tree,
            frontend_config,
            registry=registry,
            tracer=tracer,
            injector=injector,
            reopen=reopen,
            slos=default_serve_slos(
                availability_target=0.75, freshness_target=0.70
            ),
            subscriptions=subs,
            replication=link,
        )
        served = frontend.run(
            ops, pacer=ArrivalPacer(script.bursts())
        )
        total_writes = sum(inj.writes for inj in injectors)
        slo_statuses = frontend.slo_status()
        final_entries: List[Tuple] = []
        if subs is not None:
            final_entries = list(frontend.index.snapshot().leaf_entries())
        frontend.index.close()
        if link is not None and link.replica is not None:
            link.replica.close()

    if replica is not None:
        script = replace(
            script,
            expected_trips=replica.expected_trips,
            expected_probes=replica.expected_probes,
            expected_recoveries=replica.expected_recoveries,
        )
    violations = _check_slos(
        script, served, ops, oracle_answers, history,
        replicated=replica is not None,
    )
    replication_stats: Dict[str, float] = {}
    if link is not None:
        violations.extend(audit_violations)
        truncations = sum(m.cycles for m in maintainers)
        if link.max_staleness > replica.staleness_budget:
            violations.append(
                f"replica staleness {link.max_staleness:.1f}s exceeds "
                f"budget {replica.staleness_budget:.1f}s"
            )
        if truncations < replica.min_truncations:
            violations.append(
                f"only {truncations} online truncation cycles completed "
                f"(need >= {replica.min_truncations} for a meaningful "
                f"footprint bound)"
            )
        if link.footprint_high_water > replica.footprint_bound:
            violations.append(
                f"replication WAL footprint high water "
                f"{link.footprint_high_water} bytes exceeds bound "
                f"{replica.footprint_bound}"
            )
        expected_faults = len(replica.channel_transients) + (
            1 if replica.channel_torn_at else 0
        )
        observed_faults = registry.value("replication.channel_faults")
        if observed_faults < expected_faults:
            violations.append(
                f"shipping channel saw {observed_faults} faults, "
                f"scheduled {expected_faults}"
            )
        replication_stats = {
            "promotions": served.promotions,
            "replica_answers": served.replica_answers,
            "max_staleness": link.max_staleness,
            "staleness_budget": replica.staleness_budget,
            "polls": link.polls,
            "shipped_batches": registry.value("replication.shipped_batches"),
            "applied_batches": registry.value("replication.applied_batches"),
            "channel_faults": observed_faults,
            "spills": registry.value("replication.spills"),
            "truncation_cycles": truncations,
            "footprint_high_water": link.footprint_high_water,
            "footprint_bound": replica.footprint_bound,
        }
    sub_stats: Dict[str, int] = {}
    if subs is not None:
        violations.extend(_check_subscriptions(
            subs, sub_sids, final_entries, subs.now
        ))
        sub_stats = subs.stats()
    for name, status in sorted(slo_statuses.items()):
        if not status["met"]:
            violations.append(
                f"SLO {name!r} error budget exhausted: success ratio "
                f"{status['ratio']:.4f} < target {status['target']:.4f} "
                f"(burn rate {status['burn_rate']:.2f})"
            )
    counters = {
        name: getattr(served, name)
        for name in (
            "admitted", "served_queries", "served_writes", "shed_queries",
            "shed_writes", "retries", "retry_successes", "retry_exhausted",
            "deadline_timeouts", "trips", "probes", "probe_failures",
            "recoveries", "degraded_answers", "backlog_enqueued",
            "backlog_replayed", "backlog_peak", "backlog_remaining",
            "kills", "reopens", "promotions", "replica_answers",
            "checkpoints", "failed_queries", "max_staleness",
        )
    }
    return SoakReport(
        ops=len(ops),
        queries=workload.query_count,
        total_writes=total_writes,
        violations=violations,
        counters=counters,
        script=script.to_json(),
        slos=slo_statuses,
        subscriptions=sub_stats,
        replication=replication_stats,
    )


def write_report(report: SoakReport, path: str) -> None:
    """Write the soak report JSON (the ``BENCH_soak.json`` artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
