"""End-to-end tests for the overload-safe serving frontend."""

import os

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.forest import ForestConfig, PartitionedMovingObjectForest
from repro.core.tree import MovingObjectTree
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    REJECT_NEWEST,
    FrontendConfig,
    ServiceFrontend,
)
from repro.storage.faults import FaultInjector
from repro.workloads.base import DeleteOp, InsertOp, QueryOp, UpdateOp
from repro.workloads.expiration import FixedPeriod
from repro.workloads.pacing import ArrivalPacer, BurstWindow
from repro.workloads.uniform import UniformParams, generate_uniform_workload

CONFIG = TreeConfig(page_size=512, buffer_pages=8)


def _workload(insertions=200, seed=1, queries_per_insertions=10):
    params = UniformParams(
        target_population=30,
        insertions=insertions,
        update_interval=10.0,
        space=100.0,
        queries_per_insertions=queries_per_insertions,
        seed=seed,
    )
    return generate_uniform_workload(params, FixedPeriod(20.0))


def _oracle_answers(ops):
    """Fault-free replay on a simulated tree: op index -> answer set."""
    clock = SimulationClock()
    tree = MovingObjectTree(CONFIG, clock)
    answers = {}
    for i, op in enumerate(ops):
        clock.advance_to(op.time)
        if isinstance(op, InsertOp):
            tree.insert(op.oid, op.point)
        elif isinstance(op, UpdateOp):
            tree.delete(op.oid, op.old_point)
            tree.insert(op.oid, op.new_point)
        elif isinstance(op, DeleteOp):
            tree.delete(op.oid, op.point)
        elif isinstance(op, QueryOp):
            answers[i] = set(tree.query(op.query))
    return answers


def _durable_frontend(tmp_path, injector_factory, config=None,
                      tree_config=CONFIG, registry=None, tracer=None):
    """A durable tree behind a frontend wired for crash reopen."""
    directory = os.path.join(str(tmp_path), "store")
    incarnations = [injector_factory(0)]
    tree = MovingObjectTree.create_durable(
        directory, tree_config, SimulationClock(), injector=incarnations[0]
    )

    def reopen():
        reopened = MovingObjectTree.open_from(
            directory, tree_config, SimulationClock()
        )
        fresh = injector_factory(len(incarnations))
        incarnations.append(fresh)
        reopened.disk.arm_injector(fresh)
        return reopened, fresh

    frontend = ServiceFrontend(
        tree,
        config or FrontendConfig(),
        registry=registry,
        tracer=tracer,
        injector=incarnations[0],
        reopen=reopen,
    )
    return frontend


def test_no_faults_matches_direct_replay():
    workload = _workload()
    want = _oracle_answers(workload.ops)
    frontend = ServiceFrontend(
        MovingObjectTree(CONFIG, SimulationClock())
    )
    report = frontend.run(workload.ops)
    assert report.admitted == len(workload.ops)
    assert report.trips == 0 and report.retries == 0
    assert report.shed_queries == 0 and report.shed_writes == 0
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want


def test_no_faults_forest_matches_direct_replay():
    workload = _workload()
    want = _oracle_answers(workload.ops)
    forest = PartitionedMovingObjectForest(
        ForestConfig(tree=CONFIG, partitions=2)
    )
    report = ServiceFrontend(forest).run(workload.ops)
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want


def test_transient_write_fault_is_retried(tmp_path):
    workload = _workload()
    want = _oracle_answers(workload.ops)
    frontend = _durable_frontend(
        tmp_path,
        lambda inc: FaultInjector(transient_writes={40}),
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    assert report.retries >= 1
    assert report.retry_successes >= 1
    assert report.trips == 0
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want


def test_transient_read_fault_is_retried(tmp_path):
    workload = _workload()
    want = _oracle_answers(workload.ops)
    frontend = _durable_frontend(
        tmp_path,
        # Guarded reads are only counted while a query executes; a tiny
        # buffer pool forces queries onto the physical read path.
        lambda inc: FaultInjector(transient_reads={1}),
        tree_config=TreeConfig(page_size=512, buffer_pages=2),
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    assert report.retries >= 1
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want


def test_fault_burst_trips_degrades_and_recovers(tmp_path):
    workload = _workload(insertions=300)
    want = _oracle_answers(workload.ops)
    frontend = _durable_frontend(
        tmp_path,
        lambda inc: FaultInjector(
            transient_writes={400, 401, 402, 403, 404}
        ),
        config=FrontendConfig(failure_threshold=3, cooldown=3.0),
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    assert report.trips == 1
    assert report.recoveries == 1
    assert report.degraded_answers >= 1
    assert report.backlog_enqueued >= 1
    assert report.backlog_replayed == report.backlog_enqueued
    assert report.backlog_remaining == 0
    # Every fresh answer — including all post-recovery ones — is exact.
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert all(got[i] == want[i] for i in got)
    # Degraded answers carry their staleness and snapshot provenance.
    degraded = [o for o in report.outcomes if o.status == "degraded"]
    assert degraded and all(o.staleness >= 0.0 for o in degraded)


def test_kill_and_recovery_preserve_answers(tmp_path):
    workload = _workload(insertions=300)
    want = _oracle_answers(workload.ops)

    def injectors(incarnation):
        if incarnation == 0:
            return FaultInjector(crash_at_write=500, mode="kill")
        return FaultInjector()

    frontend = _durable_frontend(tmp_path, injectors)
    report = frontend.run(workload.ops)
    frontend.index.close()
    assert report.kills == 1 and report.reopens == 1
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want, "recovery plus redo must reproduce every answer"


def test_overload_sheds_and_times_out():
    workload = _workload(insertions=400, queries_per_insertions=5)
    burst = BurstWindow(50.0, 90.0, 50.0)
    frontend = ServiceFrontend(
        MovingObjectTree(CONFIG, SimulationClock()),
        FrontendConfig(queue_capacity=16, service_time=0.05,
                       query_deadline=2.0),
    )
    report = frontend.run(workload.ops, pacer=ArrivalPacer([burst]))
    assert report.shed_queries + report.deadline_timeouts > 0
    # Shed and timed-out queries still get recorded outcomes.
    statuses = {o.status for o in report.outcomes}
    assert statuses & {"shed", "timeout"}


def test_reject_newest_policy_sheds_arrivals():
    workload = _workload(insertions=400, queries_per_insertions=5)
    burst = BurstWindow(50.0, 90.0, 50.0)
    frontend = ServiceFrontend(
        MovingObjectTree(CONFIG, SimulationClock()),
        FrontendConfig(queue_capacity=8, service_time=0.05,
                       shed_policy=REJECT_NEWEST),
    )
    report = frontend.run(workload.ops, pacer=ArrivalPacer([burst]))
    assert report.shed_queries + report.shed_writes > 0


def test_observability_counters_mirror_report(tmp_path):
    workload = _workload()
    registry = MetricsRegistry()
    tracer = Tracer()
    frontend = _durable_frontend(
        tmp_path,
        lambda inc: FaultInjector(transient_writes={40}),
        registry=registry, tracer=tracer,
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    assert registry.value("serve.admitted") == report.admitted
    assert registry.value("serve.retries") == report.retries == 1
    depth = registry.get("serve.queue_depth")
    assert depth is not None and depth.count == len(workload.ops)
    latency = registry.get("serve.retry_latency")
    assert latency is not None and latency.count == report.retries
    assert tracer.spans("serve.retry")


def test_run_rejects_mismatched_arrivals():
    workload = _workload(insertions=50)
    frontend = ServiceFrontend(MovingObjectTree(CONFIG, SimulationClock()))
    with pytest.raises(ValueError):
        frontend.run(workload.ops, arrivals=[0.0])


def test_batched_serving_matches_direct_replay():
    workload = _workload()
    want = _oracle_answers(workload.ops)
    frontend = ServiceFrontend(
        MovingObjectTree(CONFIG, SimulationClock()),
        FrontendConfig(batch_queries=8),
    )
    report = frontend.run(workload.ops)
    assert report.admitted == len(workload.ops)
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want
    assert report.served_queries == len(want)


def test_batched_serving_times_out_per_request():
    """Deadlines stay per-request inside a batch: expired ones time
    out individually while a later-arriving batchmate is still served."""
    from repro.geometry.queries import TimesliceQuery
    from repro.geometry.rect import Rect
    from repro.workloads.base import QueryOp

    query = TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0)
    ops = [QueryOp(0.0, query) for _ in range(9)]
    # Eight queries arrive at once, the ninth at t=1.5.  One second of
    # service, a two-second relative deadline, batches of three: the
    # head query is served alone at t=0, the next three batch at t=1,
    # and everything else reaches the server at t=2 — past every t=0
    # deadline but within the late arrival's.
    arrivals = [0.0] * 8 + [1.5]
    report = ServiceFrontend(
        MovingObjectTree(CONFIG, SimulationClock()),
        FrontendConfig(queue_capacity=16, service_time=1.0,
                       query_deadline=2.0, batch_queries=3,
                       failure_threshold=10),
    ).run(ops, arrivals=arrivals)
    statuses = [o.status for o in report.outcomes]
    assert statuses == ["ok"] * 4 + ["timeout"] * 4 + ["ok"]
    assert report.deadline_timeouts == 4
    assert report.served_queries == 5


def test_batched_serving_with_transient_faults_matches_oracle(tmp_path):
    workload = _workload()
    want = _oracle_answers(workload.ops)
    frontend = _durable_frontend(
        tmp_path,
        # Read faults land mid-batch; the frontend falls back to the
        # sequential retry path without losing any answer.
        lambda inc: FaultInjector(transient_reads={1, 20}),
        config=FrontendConfig(batch_queries=8),
        tree_config=TreeConfig(page_size=512, buffer_pages=2),
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    for index in got:
        assert got[index] == want[index]
    assert set(want) == set(got)


def test_retried_write_commit_is_not_applied_twice(tmp_path):
    from repro.geometry.kinematics import MovingPoint
    from repro.geometry.queries import TimesliceQuery
    from repro.geometry.rect import Rect

    def inserts():
        return [
            InsertOp(
                float(i + 1), i,
                MovingPoint((7.0 * i + 2.0, 50.0), (0.0, 0.0),
                            float(i + 1), 1000.0),
            )
            for i in range(12)
        ]

    def ops():
        return inserts() + [QueryOp(
            13.0, TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 13.0),
        )]

    # Calibration pass: count the physical writes of a fault-free run
    # of the inserts alone, so the transient can be aimed at the last
    # insert's commit.  The run's trailing maintenance writes retry
    # silently (no report.retries), so search downward for the highest
    # index whose retry the serving path actually handles.
    probe = _durable_frontend(
        os.path.join(str(tmp_path), "probe"), lambda inc: FaultInjector()
    )
    probe.run(inserts())
    total_writes = probe._injector.writes
    probe.index.close()

    report = None
    for attempt, index in enumerate(
        range(total_writes, max(total_writes - 8, 0), -1)
    ):
        frontend = _durable_frontend(
            os.path.join(str(tmp_path), f"real-{attempt}"),
            # The fault fires mid-commit of an insert: the entry is
            # already in the in-memory tree with its commit pending.
            # The breaker never trips, so the same request's retry
            # loop must land the commit without re-driving the atom.
            lambda inc, index=index: FaultInjector(
                transient_writes={index}
            ),
            config=FrontendConfig(failure_threshold=50),
        )
        report = frontend.run(ops())
        frontend.index.close()
        if report.retries:
            break
    assert report is not None and report.retries == 1
    assert report.retry_successes == 1 and report.trips == 0
    (outcome,) = [o for o in report.outcomes if o.status == "ok"
                  and o.answer is not None]
    # A retry that re-drove the whole atom would insert the faulted
    # entry twice — a duplicate oid that set-based comparisons
    # silently collapse, so compare the full multiset.
    assert sorted(outcome.answer) == list(range(12))


def test_kill_fails_over_to_replica_instead_of_reopening(tmp_path):
    from repro.replication import ReplicaLink, start_follower

    workload = _workload(insertions=300)
    want = _oracle_answers(workload.ops)
    directory = os.path.join(str(tmp_path), "store")
    injector = FaultInjector(crash_at_write=500, mode="kill")
    tree = MovingObjectTree.create_durable(
        directory, CONFIG, SimulationClock(), injector=injector
    )
    followers = []

    def reseed(promoted):
        follower = start_follower(
            promoted.disk,
            os.path.join(str(tmp_path), f"replica-{len(followers)}"),
        )
        followers.append(follower[1])
        return follower

    channel, replica, _maintainer = reseed(tree)

    def on_promote(promoted):
        clean = FaultInjector()
        promoted.disk.arm_injector(clean)
        return clean

    link = ReplicaLink(
        channel, replica,
        promote_config=CONFIG, poll_every=4,
        reseed=reseed, on_promote=on_promote,
    )
    frontend = ServiceFrontend(
        tree, FrontendConfig(), injector=injector, replication=link
    )
    report = frontend.run(workload.ops)
    frontend.index.close()
    for follower in followers:
        follower.close()
    # Failover wins over reopen: the follower was promoted in place and
    # the dead store was never resurrected.
    assert report.kills == 1
    assert report.promotions == 1
    assert report.reopens == 0
    got = {o.index: set(o.answer) for o in report.outcomes
           if o.status == "ok"}
    assert got == want, "failover plus redo must reproduce every answer"
