"""The overload-safe serving frontend.

:class:`ServiceFrontend` wraps any index shape (the contract of
:mod:`repro.core.index`: a tree, a forest, a sharded forest) and processes
a workload operation stream as a traffic-shaped request flow:

* **Admission.**  Requests arrive on a virtual serving clock (see
  :mod:`repro.workloads.pacing`), wait in a bounded
  :class:`~repro.serve.queue.AdmissionQueue` and are served FIFO by a
  single logical server with a fixed per-request service time.  A full
  queue sheds per the configured policy; queries carry deadlines derived
  from the workload clock and are abandoned — never executed — once they
  cannot finish in time.
* **Retries.**  Transient storage faults
  (:class:`~repro.storage.faults.TransientIOError`) are retried under a
  :class:`~repro.serve.retry.RetryPolicy`: capped exponential backoff
  with seeded jitter, a per-request attempt cap and a per-run budget.
* **Degradation.**  A :class:`~repro.serve.breaker.CircuitBreaker`
  trips after consecutive attempt failures; while it is open, queries
  are answered from the last committed checkpoint snapshot through a
  :class:`~repro.serve.degraded.DegradedReader` (tagged ``degraded``
  with their staleness) and writes are backlogged.  After a cooldown
  the frontend probes: it re-drives any pending commit, replays the
  write backlog through the normal WAL path, and closes the breaker on
  success.
* **Crash recovery.**  A :class:`~repro.storage.faults.SimulatedCrash`
  kills the store; the frontend reopens it via the caller-supplied
  ``reopen`` callback (running WAL recovery) and re-drives exactly the
  atoms whose commits did not survive, so the served history stays
  equivalent to a fault-free run.

Two clocks run side by side and never mix: the *index* clock always
advances to each operation's workload timestamp (so answers are
comparable to a fault-free oracle), while the *serving* clock models
queueing, service, backoff and cooldown delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import LATENCY_BUCKETS, NULL_REGISTRY
from ..obs.slo import SLOTracker, default_serve_slos
from ..obs.trace import NULL_TRACER
from ..storage.faults import SimulatedCrash, TransientIOError
from ..storage.pagefile import FilePageStore
from ..workloads.base import InsertOp, Operation, QueryOp, apply_op, op_atoms
from ..workloads.pacing import ArrivalPacer
from .breaker import OPEN, CircuitBreaker, HealthMonitor
from .degraded import DegradedReader
from .queue import SHED_QUERIES_FIRST, AdmissionQueue, Request
from .retry import RetryPolicy
from .subscriptions import subscription_slo

#: Outcome statuses a request can end with.
STATUSES = ("ok", "degraded", "shed", "timeout", "failed")


@dataclass(frozen=True)
class FrontendConfig:
    """Tunable parameters of :class:`ServiceFrontend`.

    Parameters
    ----------
    queue_capacity : int
        Bounded admission queue size.
    shed_policy : str
        One of :data:`~repro.serve.queue.SHED_POLICIES`.
    service_time : float
        Virtual seconds one request occupies the server.
    query_deadline : float
        Relative deadline for queries, from arrival; a query that
        cannot start executing by ``arrival + query_deadline -
        service_time`` times out unexecuted.  Writes have no deadline.
    retry : RetryPolicy
        Backoff policy for transient storage faults.
    failure_threshold : int
        Consecutive attempt failures that trip the breaker.
    cooldown : float
        Virtual seconds the breaker stays open before a probe.
    checkpoint_interval : int
        Served requests between checkpoint-plus-snapshot refreshes
        (durable indexes only).
    backlog_capacity : int
        Maximum write *atoms* held while the breaker is open; overflow
        sheds the arriving write.
    seed : int
        Seed for the backoff-jitter RNG.
    batch_queries : int
        Maximum queries served per tick.  Above 1, a run of already-
        arrived queries at the head of the admission queue is answered
        through the index's ``query_batch`` (one shared traversal, one
        ``service_time`` for the whole run); the default of 1 keeps the
        one-request-per-tick serving model bit-identical to earlier
        revisions.
    """

    queue_capacity: int = 64
    shed_policy: str = SHED_QUERIES_FIRST
    service_time: float = 0.05
    query_deadline: float = 5.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 3
    cooldown: float = 5.0
    checkpoint_interval: int = 25
    backlog_capacity: int = 256
    seed: int = 0
    batch_queries: int = 1


@dataclass
class QueryOutcome:
    """What the frontend answered (or didn't) for one query request.

    Attributes
    ----------
    index : int
        The request's position in the workload stream.
    time : float
        The query's workload timestamp.
    status : str
        One of :data:`STATUSES`.
    answer : tuple of int or None
        Sorted matching oids; ``None`` unless status is ``ok`` or
        ``degraded``.
    degraded : bool
        Whether the answer came from the snapshot path.
    staleness : float
        Snapshot age at answer time (0.0 for fresh answers).
    snapshot_op_index : int
        Stream index the backing snapshot was current through
        (degraded answers only).
    overlay_oids : tuple of int
        Oids answered from the post-snapshot overlay (degraded only).
    evidence : dict
        Degraded answers: the motion point that matched, per oid.
    source : str
        Where the answer's base state came from: ``live`` for healthy
        index answers, ``snapshot`` for checkpoint-backed degraded
        answers, ``replica`` when the degraded reader was rebased onto
        a fresher live-follower state.
    """

    index: int
    time: float
    status: str
    answer: Optional[Tuple[int, ...]] = None
    degraded: bool = False
    staleness: float = 0.0
    snapshot_op_index: int = 0
    overlay_oids: Tuple[int, ...] = ()
    evidence: Dict[int, object] = field(default_factory=dict)
    source: str = "live"


@dataclass
class ServiceReport:
    """Counters and per-query outcomes of one :meth:`ServiceFrontend.run`.

    All counts are plain integers mirrored into the metrics registry;
    the report is the source of truth the soak harness asserts against.
    """

    admitted: int = 0
    served_queries: int = 0
    served_writes: int = 0
    shed_queries: int = 0
    shed_writes: int = 0
    retries: int = 0
    retry_successes: int = 0
    retry_exhausted: int = 0
    deadline_timeouts: int = 0
    trips: int = 0
    probes: int = 0
    probe_failures: int = 0
    recoveries: int = 0
    degraded_answers: int = 0
    backlog_enqueued: int = 0
    backlog_replayed: int = 0
    backlog_peak: int = 0
    backlog_remaining: int = 0
    kills: int = 0
    reopens: int = 0
    promotions: int = 0
    replica_answers: int = 0
    checkpoints: int = 0
    failed_queries: int = 0
    max_staleness: float = 0.0
    outcomes: List[QueryOutcome] = field(default_factory=list)

    def summary(self) -> str:
        """One line of the headline counters."""
        return (
            f"served {self.served_queries}q+{self.served_writes}w "
            f"(degraded {self.degraded_answers}, shed "
            f"{self.shed_queries}q/{self.shed_writes}w, timeout "
            f"{self.deadline_timeouts}); retries {self.retries}, trips "
            f"{self.trips}, recoveries {self.recoveries}, kills "
            f"{self.kills}; backlog {self.backlog_replayed}/"
            f"{self.backlog_enqueued} replayed"
        )


class ServiceFrontend:
    """Serve a workload stream against an index, riding out faults.

    Parameters
    ----------
    index : MovingObjectTree or PartitionedMovingObjectForest
        The wrapped index.  With no faults and default pacing the
        frontend drives it exactly as the plain workload runner would.
    config : FrontendConfig, optional
        Serving parameters; defaults throughout.
    registry : MetricsRegistry, optional
        Receives ``serve.*`` counters and histograms.
    tracer : Tracer, optional
        Receives retry spans and trip/probe/recovery/kill events.
    injector : FaultInjector, optional
        The injector armed on the index's stores; the frontend manages
        its read-guard arming (reads are only guarded during queries).
    reopen : callable, optional
        Zero-argument callback invoked after a simulated crash; must
        return ``(new_index, new_injector)`` with recovery already run.
        Without it a crash propagates.
    slos : sequence of SLO, optional
        Objectives for the frontend's :class:`~repro.obs.slo.SLOTracker`;
        defaults to :func:`~repro.obs.slo.default_serve_slos`.  The
        tracker only exists when a real ``registry`` is given — the
        disabled path stays a ``None``-guard no-op.
    subscriptions : SubscriptionIndex, optional
        Standing-query index notified after every successfully applied
        write atom (and advanced with the index clock, sweeping
        expirations).  Notifications are idempotent, so the frontend's
        at-least-once redo paths (crash recovery, backlog replay) never
        double-publish a delta.  With a registry, the tracker
        additionally watches the
        :func:`~repro.serve.subscriptions.subscription_slo` delivery
        objective.
    replication : ReplicaLink, optional
        A :class:`~repro.replication.link.ReplicaLink` ticked once per
        served request (shipping poll, staleness accounting, online
        WAL maintenance).  When present it upgrades two paths: degraded
        reads rebase onto the follower's state whenever it is fresher
        than the last checkpoint snapshot (freshest wins), and a crash
        prefers promoting the follower over reopening the dead store —
        ``reopen`` becomes the fallback for when no follower is ready.
    """

    def __init__(
        self,
        index,
        config: Optional[FrontendConfig] = None,
        *,
        registry=None,
        tracer=None,
        injector=None,
        reopen=None,
        slos=None,
        subscriptions=None,
        replication=None,
    ):
        self.index = index
        self.config = config if config is not None else FrontendConfig()
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._injector = injector
        self._reopen = reopen
        self._rng = random.Random(self.config.seed)
        self._queue = AdmissionQueue(
            self.config.queue_capacity, self.config.shed_policy
        )
        self._breaker = CircuitBreaker(
            self.config.failure_threshold, self.config.cooldown
        )
        self.health = HealthMonitor()
        self.report = ServiceReport()
        self._reader: Optional[DegradedReader] = None
        self._backlog: List[Operation] = []
        self._pending: List[Tuple[Operation, int]] = []
        self._vfree = 0.0
        self._retry_budget = self.config.retry.budget
        self._snapshot = None
        self._snapshot_op_index = 0
        self._served = 0
        self._since_checkpoint = 0
        self._disarm_reads()
        reg = self._registry
        self._c = {
            name: reg.counter(f"serve.{name}")
            for name in (
                "admitted", "shed_queries", "shed_writes", "retries",
                "retry_exhausted", "deadline_timeouts", "breaker_trips",
                "breaker_probes", "breaker_recoveries", "degraded_answers",
                "backlog_enqueued", "backlog_replayed", "kills", "reopens",
                "queries_ok", "failed_queries", "promotions",
                "replica_answers",
            )
        }
        self._queue_depth = reg.histogram("serve.queue_depth")
        self._queue_wait = reg.histogram("serve.queue_wait", kind="latency")
        self._retry_latency = reg.histogram(
            "serve.retry_latency", bounds=LATENCY_BUCKETS
        )
        reg.gauge("serve.backlog", fn=lambda: len(self._backlog))
        reg.gauge("serve.breaker_open", fn=lambda: int(self._is_open))
        self._staleness = reg.gauge("serve.staleness")
        # SLO accounting exists only alongside a real registry: the
        # tracker reads the serve.* counters straight off it, and the
        # registry-less path stays the zero-overhead no-op.
        self._subs = subscriptions
        self._replication = replication
        self._slo: Optional[SLOTracker] = None
        if registry is not None:
            slos = list(
                slos if slos is not None else default_serve_slos()
            )
            if subscriptions is not None:
                slos.append(subscription_slo())
            if replication is not None:
                slos.extend(replication.slos())
            self._slo = SLOTracker(registry, slos)

    # -- plumbing -----------------------------------------------------------

    def slo_status(self) -> Dict[str, Dict[str, object]]:
        """Current per-objective SLO status (empty without a registry).

        Maps objective name to its
        :meth:`~repro.obs.slo.SLOStatus.to_dict` export — the payload
        ``repro soak`` asserts on and ``repro top`` renders.
        """
        if self._slo is None:
            return {}
        return self._slo.to_dict()

    def _count(self, field: str, metric: Optional[str] = None) -> None:
        """Bump a report counter and its ``serve.*`` registry mirror together."""
        setattr(self.report, field, getattr(self.report, field) + 1)
        self._c[metric or field].inc()

    def _maintain(self, serving_now: float, force: bool = False) -> None:
        """Tick the replication link between requests.

        The tick interleaves shipping polls and one online-maintenance
        step with serving; a simulated kill during maintenance (the
        injector counts those writes like any others) is a primary
        death and goes through the normal crash path — which, with a
        ready follower, means failover.
        """
        link = self._replication
        if link is None:
            return
        try:
            link.tick(force=force)
        except SimulatedCrash:
            self._handle_crash(serving_now)

    @property
    def _is_open(self) -> bool:
        return self._breaker.state == OPEN

    @property
    def _durable(self) -> bool:
        # A sharded index has no local stores (they live in its worker
        # processes, as does their commit bookkeeping): vacuously durable.
        return all(
            isinstance(store, FilePageStore)
            for store in self.index.local_stores()
        )

    def _op_seq_mark(self) -> int:
        stores = self.index.local_stores()
        if not all(isinstance(store, FilePageStore) for store in stores):
            return 0
        return sum(store.op_seq for store in stores)

    def _disarm_reads(self) -> None:
        if self._injector is not None:
            self._injector.reads_armed = False

    def _guarded_read(self, read, argument):
        """Run one index read with the injector's read guard armed."""
        if self._injector is not None:
            self._injector.reads_armed = True
        try:
            return read(argument)
        finally:
            self._disarm_reads()

    # -- snapshots and degraded state ---------------------------------------

    def _refresh_snapshot(self) -> None:
        """Checkpoint (durable only) and re-cut the degraded-read snapshot.

        Skipped wholesale when the checkpoint faults transiently — the
        previous snapshot stays valid (it is merely staler).
        """
        if self._durable:
            try:
                self.index.checkpoint()
            except TransientIOError:
                return
            self.report.checkpoints += 1
        self._snapshot = self.index.snapshot()
        self._snapshot_op_index = self._served
        self._since_checkpoint = 0

    def _open_degraded(self, now: float) -> None:
        """Enter degraded mode: build the snapshot-plus-overlay reader."""
        if self._reader is None:
            self._reader = DegradedReader(
                self._snapshot, self._snapshot_op_index
            )
        self._count("trips", "breaker_trips")
        self._tracer.event("serve.trip", at=now)

    # -- atom application with crash/pending bookkeeping --------------------

    def _drive(self, atom: Operation) -> None:
        """Apply one atom to the live index at its workload time.

        A successfully applied atom also notifies the subscription
        index (when one is attached): the clock advance sweeps
        expirations, then the atom itself publishes add/remove deltas.
        A faulted apply notifies nothing — the atom re-drives later and
        notification is idempotent anyway.
        """
        self.index.clock.advance_to(atom.time)
        apply_op(self.index, atom)
        if self._subs is not None:
            self._subs.advance_to(atom.time)
            if isinstance(atom, InsertOp):
                self._subs.notify_insert(atom.oid, atom.point)
            else:
                self._subs.notify_delete(atom.oid)

    def _apply_atom(self, atom: Operation, serving_now: float) -> None:
        """Apply and commit one atom, surviving crashes.

        Raises
        ------
        TransientIOError
            The atom is applied in memory but its commit is pending;
            it has been recorded so a later commit (or crash redo)
            lands it exactly once.
        """
        mark = self._op_seq_mark()
        try:
            self._drive(atom)
        except TransientIOError:
            self._pending.append((atom, mark))
            raise
        except SimulatedCrash:
            self._pending.append((atom, mark))
            self._handle_crash(serving_now)
            return
        # A successful op group-commits everything staged, including
        # any previously pending images merged into the same batch.
        self._pending.clear()

    def _commit_pending(self, serving_now: float) -> None:
        """Re-drive any pending commit on every store.

        Raises
        ------
        TransientIOError
            The commit faulted again; everything stays pending.
        """
        try:
            for store in self.index.local_stores():
                store.commit()
        except SimulatedCrash:
            self._handle_crash(serving_now)
            return
        self._pending.clear()

    def _handle_crash(self, serving_now: float) -> None:
        """Take over after a simulated kill and re-drive lost atoms.

        With a ready replica attached, failover wins: the follower is
        promoted into the primary role (zero committed writes lost —
        the promotion path drains and verifies the committed prefix)
        and ``reopen`` is never consulted.  Otherwise the dead store is
        reopened through the caller's callback, as before.  Either way
        the atoms whose commits did not survive are re-driven against
        the new incarnation.
        """
        self._count("kills")
        self._tracer.event("serve.kill", at=serving_now)
        link = self._replication
        failing_over = link is not None and link.ready
        if not failing_over and self._reopen is None:
            raise SimulatedCrash("no reopen callback configured")
        for store in self.index.local_stores():
            if isinstance(store, FilePageStore):
                store.abandon()
        if failing_over:
            self.index, self._injector = link.failover()
            self._count("promotions")
            self._tracer.event("serve.failover", at=serving_now)
        else:
            self.index, self._injector = self._reopen()
            self._count("reopens")
        self._disarm_reads()
        recovered = self._op_seq_mark()
        redo = [(atom, m) for atom, m in self._pending if recovered <= m]
        self._pending = []
        for atom, _ in redo:
            # May itself fault transiently (re-pending the atom and
            # propagating) or crash again (recursing, bounded by the
            # injector's finite kill schedule).
            self._apply_atom(atom, serving_now)
        # The old snapshot describes pages of the dead incarnation's
        # store; content-wise it is still a committed prefix, but after
        # a clean recovery a fresh cut is both newer and cheaper than
        # reasoning about staleness across incarnations.
        if not self._is_open:
            self._refresh_snapshot()

    # -- probe and backlog replay -------------------------------------------

    def _attempt_probe(self, serving_now: float) -> None:
        """Half-open probe: land pending commits, replay the backlog."""
        self._breaker.begin_probe()
        self._count("probes", "breaker_probes")
        self._tracer.event("serve.probe", at=serving_now)
        try:
            self._commit_pending(serving_now)
            while self._backlog:
                atom = self._backlog[0]
                self._apply_atom(atom, serving_now)
                self._backlog.pop(0)
                self._count("backlog_replayed")
        except TransientIOError:
            # A transiently faulted atom is applied with its commit
            # pending: it must leave the backlog now or a later replay
            # would apply it twice.  The pending commit lands it.
            if self._backlog and self._pending and (
                self._backlog[0] is self._pending[-1][0]
            ):
                self._backlog.pop(0)
                self._count("backlog_replayed")
            self._breaker.probe_failed(serving_now)
            self.report.probe_failures += 1
            return
        self._breaker.probe_succeeded()
        self._count("recoveries", "breaker_recoveries")
        self._tracer.event("serve.recovery", at=serving_now)
        self._reader = None
        self._refresh_snapshot()

    # -- the serving loop ---------------------------------------------------

    def run(
        self,
        ops: Sequence[Operation],
        arrivals: Optional[Sequence[float]] = None,
        pacer: Optional[ArrivalPacer] = None,
    ) -> ServiceReport:
        """Serve a whole operation stream and return the report.

        Parameters
        ----------
        ops : sequence of Operation
            The workload stream, in timestamp order.
        arrivals : sequence of float, optional
            Arrival time per operation on the serving clock; derived
            from ``pacer`` (or the identity pacing) when omitted.
        pacer : ArrivalPacer, optional
            Used to derive arrivals when none are given.
        """
        ops = list(ops)
        if arrivals is None:
            arrivals = (pacer or ArrivalPacer()).arrivals(ops)
        if len(arrivals) != len(ops):
            raise ValueError(
                f"{len(ops)} ops but {len(arrivals)} arrival times"
            )
        self._refresh_snapshot()
        for i, (op, arrival) in enumerate(zip(ops, arrivals)):
            self._drain_until(arrival)
            deadline = (
                arrival + self.config.query_deadline
                if isinstance(op, QueryOp)
                else float("inf")
            )
            request = Request(i, op, arrival, deadline)
            self._queue_depth.record(len(self._queue))
            shed = self._queue.offer(request)
            if shed is not None:
                self._record_shed(shed)
            else:
                self._count("admitted")
        self._drain_until(float("inf"))
        self._finalize()
        return self.report

    def _drain_until(self, horizon: float) -> None:
        """Serve queued requests whose start time is within ``horizon``."""
        while len(self._queue):
            start = max(self._vfree, self._queue.peek().arrival)
            if start > horizon:
                return
            batch = self._pop_query_batch(start)
            if batch is not None:
                self._serve_query_batch(batch, start)
            else:
                self._serve(self._queue.pop(), start)

    def _pop_query_batch(self, start: float) -> Optional[List[Request]]:
        """Pop up to ``batch_queries`` compatible head queries, or ``None``.

        Compatible means: the breaker is closed, the head request is a
        query, and every further query has already arrived by ``start``
        (a tick cannot serve a request from the future).  Returns
        ``None`` — leaving the queue untouched — whenever batching is
        off or the head must go through the one-request path.
        """
        limit = self.config.batch_queries
        if limit <= 1 or self._is_open or not self._queue.peek().is_query:
            return None
        batch = [self._queue.pop()]
        while len(batch) < limit and len(self._queue):
            head = self._queue.peek()
            if not head.is_query or head.arrival > start:
                break
            batch.append(self._queue.pop())
        return batch

    def _serve_query_batch(self, batch: List[Request], start: float) -> None:
        """Answer a run of queries in one serving tick.

        Requests whose deadline cannot fit ``start + service_time``
        time out individually; the survivors are answered through the
        index's ``query_batch`` (bit-identical to one-by-one queries)
        and share a single ``service_time``.  A transient fault or a
        crash during the shared traversal falls back to serving each
        survivor through the sequential path, which owns the full
        retry/degraded machinery; the failed batch attempt itself is
        not counted against the retry budget or the breaker.
        """
        live: List[Request] = []
        for request in batch:
            self._queue_wait.record(max(0.0, start - request.arrival))
            if start + self.config.service_time > request.deadline:
                self._timeout(request, start)
            else:
                live.append(request)
        if live:
            for request in live:
                self.index.clock.advance_to(request.op.time)
            try:
                answers = self._guarded_read(
                    self.index.query_batch,
                    [request.op.query for request in live],
                )
            except SimulatedCrash:
                self._handle_crash(start)
                self._serve_queries_sequentially(live, start)
            except TransientIOError:
                self._serve_queries_sequentially(live, start)
            else:
                self._answered(live, answers, start)
        for request in batch:
            self._served = max(self._served, request.index + 1)
        self._end_tick(start)

    def _end_tick(self, start: float) -> None:
        """What every serving tick ends with, whatever it served."""
        self._maintain(start)
        if self._slo is not None:
            self._slo.checkpoint()  # one served-request burn-window step
        if (
            not self._is_open
            and self._since_checkpoint >= self.config.checkpoint_interval
        ):
            self._refresh_snapshot()

    def _answered(self, requests, answers, cur: float) -> None:
        """Book the fresh answers one successful read attempt produced."""
        self._breaker.record_success()
        self.health.record(True)
        self._vfree = cur + self.config.service_time
        self.report.served_queries += len(requests)
        self._since_checkpoint += len(requests)
        self._c["queries_ok"].inc(len(requests))
        for request, answer in zip(requests, answers):
            self.report.outcomes.append(
                QueryOutcome(
                    request.index, request.op.time, "ok",
                    answer=tuple(sorted(answer)),
                )
            )

    def _serve_queries_sequentially(
        self, requests: List[Request], start: float
    ) -> None:
        """Fallback after a failed batch attempt: one query at a time."""
        cur = start
        for request in requests:
            self._serve_query(request, cur)
            cur = max(cur, self._vfree)

    def _record_shed(self, shed: Request) -> None:
        if shed.is_query:
            self._count("shed_queries")
            self.report.outcomes.append(
                QueryOutcome(shed.index, shed.op.time, "shed")
            )
        else:
            self._count("shed_writes")
        self._tracer.event(
            "serve.shed", index=shed.index, query=shed.is_query
        )

    def _serve(self, request: Request, start: float) -> None:
        self._queue_wait.record(max(0.0, start - request.arrival))
        if self._is_open and self._breaker.ready_to_probe(start):
            self._attempt_probe(start)
        if self._is_open:
            self._serve_open(request, start)
        elif request.is_query:
            self._serve_query(request, start)
        else:
            self._serve_write(request, start)
        self._served = max(self._served, request.index + 1)
        if self._replication is not None and not request.is_query:
            # Same convention as _refresh_snapshot: the store's commit
            # sequence as of this write is current through the number
            # of requests served so far.  stream_mark() inverts this
            # when a degraded read rebases onto the replica.
            self._replication.note_write(self._op_seq_mark(), self._served)
        self._end_tick(start)

    # -- closed-breaker paths -----------------------------------------------

    def _serve_query(self, request: Request, start: float) -> None:
        now = request.op.time
        self.index.clock.advance_to(now)
        cur = start
        attempt = 1
        while True:
            if cur + self.config.service_time > request.deadline:
                self._timeout(request, cur)
                return
            try:
                answer = self._guarded_read(
                    self.index.query, request.op.query
                )
            except TransientIOError:
                cur = self._retry_or_fail(request, cur, attempt)
                if cur is None:
                    return
                attempt += 1
            except SimulatedCrash:
                self._handle_crash(cur)
                # Recovery re-drove every lost write; re-run the query.
            else:
                if attempt > 1:
                    self.report.retry_successes += 1
                self._answered([request], [answer], cur)
                return

    def _retry_or_fail(
        self, request: Request, cur: float, attempt: int
    ) -> Optional[float]:
        """Handle one transient query failure; return the next try time.

        Returns ``None`` when the request will not be retried (the
        outcome has been recorded: degraded, timeout or failed).
        """
        tripped, exhausted = self._record_fault(cur, attempt)
        if tripped:
            self._answer_degraded(request, cur)
        elif exhausted:
            self._count("failed_queries")
            self.report.outcomes.append(
                QueryOutcome(request.index, request.op.time, "failed")
            )
        else:
            return cur + self._backoff(attempt, index=request.index)
        self._vfree = cur
        return None

    def _record_fault(self, cur: float, attempt: int) -> Tuple[bool, bool]:
        """Book one transiently failed attempt: ``(tripped, exhausted)``.

        ``exhausted``: the attempt cap or the run's retry budget is
        spent, which force-trips the breaker.  ``tripped``: this fault
        opened the breaker (degraded mode is entered here); what that
        means for the request is the caller's decision.
        """
        self.health.record(False)
        tripped = self._breaker.record_failure(cur)
        exhausted = (
            attempt >= self.config.retry.max_attempts
            or self._retry_budget <= 0
        )
        if not tripped and exhausted:
            self._count("retry_exhausted")
            tripped = self._breaker.trip(cur)
        if tripped:
            self._open_degraded(cur)
        return tripped, exhausted

    def _backoff(self, attempt: int, **where) -> float:
        """Spend one retry from the budget; return the delay before it."""
        delay = self.config.retry.delay(attempt, self._rng)
        self._retry_budget -= 1
        self._count("retries")
        self._retry_latency.record(delay)
        with self._tracer.span("serve.retry", **where, attempt=attempt):
            pass
        return delay

    def _timeout(self, request: Request, cur: float) -> None:
        self._count("deadline_timeouts")
        self.health.record(False)
        if self._breaker.record_failure(cur):
            self._open_degraded(cur)
        self.report.outcomes.append(
            QueryOutcome(request.index, request.op.time, "timeout")
        )

    def _serve_write(self, request: Request, start: float) -> None:
        atoms = op_atoms(request.op)
        cur = start
        for position, atom in enumerate(atoms):
            cur = self._write_atom(atom, cur)
            if self._is_open:
                # The breaker tripped under this write: whatever was
                # not applied joins the backlog behind it.
                for rest in atoms[position + 1:]:
                    self._backlog_atom(rest)
                break
        else:
            cur += self.config.service_time
        self._vfree = cur
        self.report.served_writes += 1
        self._since_checkpoint += 1

    def _write_atom(self, atom: Operation, cur: float) -> float:
        """Apply one write atom with retries; return the serving time."""
        attempt = 1
        applied = False
        while True:
            try:
                if applied:
                    # The first fault left the atom applied in memory
                    # with its commit pending (the TransientIOError
                    # contract of _apply_atom); re-driving it would
                    # apply it twice, so retries land the commit only.
                    self._commit_pending(cur)
                else:
                    self._apply_atom(atom, cur)
            except TransientIOError:
                applied = True
                if self._record_fault(cur, attempt)[0]:
                    # The atom is applied with its commit pending (it
                    # lands with the probe's first commit), so it must
                    # not join the backlog — but degraded reads need it.
                    if self._reader is not None:
                        self._reader.apply(atom)
                    return cur
                cur += self._backoff(attempt)
                attempt += 1
            else:
                self._breaker.record_success()
                self.health.record(True)
                if attempt > 1:
                    self.report.retry_successes += 1
                return cur

    # -- open-breaker paths -------------------------------------------------

    def _serve_open(self, request: Request, start: float) -> None:
        if request.is_query:
            self._answer_degraded(request, start)
            return
        for atom in op_atoms(request.op):
            self._backlog_atom(atom)
        self.report.served_writes += 1
        self._since_checkpoint += 1

    def _backlog_atom(self, atom: Operation) -> None:
        if len(self._backlog) >= self.config.backlog_capacity:
            self._count("shed_writes")
            return
        self._backlog.append(atom)
        self._count("backlog_enqueued")
        self.report.backlog_peak = max(
            self.report.backlog_peak, len(self._backlog)
        )
        if self._reader is not None:
            self._reader.apply(atom)

    def _answer_degraded(self, request: Request, cur: float) -> None:
        """Answer a query from the freshest committed base available.

        Zero service cost either way.  The base is the last checkpoint
        snapshot unless a replication link holds a follower state that
        is strictly fresher *and* whose stream mark has caught up —
        then the reader rebases onto the follower (freshest wins),
        keeping its overlay: the overlay holds strictly newer per-oid
        information than any committed base.
        """
        now = request.op.time
        reader = self._reader
        if self._replication is not None:
            base = self._replication.fresher_base(reader.snapshot.taken_at)
            if (
                base is not None
                and self._replication.stream_mark() >= reader.snapshot_op_index
            ):
                reader.rebase(base, self._replication.stream_mark())
        source = (
            "replica"
            if reader.snapshot.applied_op_seq is not None
            else "snapshot"
        )
        answer = reader.query(request.op.query, now)
        self._count("degraded_answers")
        if source == "replica":
            self._count("replica_answers")
        self.report.served_queries += 1
        self._since_checkpoint += 1
        self.report.max_staleness = max(
            self.report.max_staleness, answer.staleness
        )
        self._staleness.set(answer.staleness)
        self.report.outcomes.append(
            QueryOutcome(
                request.index, now, "degraded",
                answer=answer.oids,
                degraded=True,
                staleness=answer.staleness,
                snapshot_op_index=answer.snapshot_op_index,
                overlay_oids=answer.overlay_oids,
                evidence=answer.evidence,
                source=source,
            )
        )

    # -- shutdown -----------------------------------------------------------

    def _finalize(self, max_probes: int = 100) -> None:
        """Drain the backlog, land pending commits, final checkpoint."""
        probes = 0
        while self._is_open and (self._backlog or self._pending):
            if probes >= max_probes:
                raise RuntimeError(
                    f"backlog not drained after {max_probes} probes"
                )
            cur = max(self._vfree, self._breaker.open_until)
            self._vfree = cur
            self._attempt_probe(cur)
            probes += 1
        if self._is_open and self._breaker.ready_to_probe(
            max(self._vfree, self._breaker.open_until)
        ):
            # Nothing left to replay; close the breaker so the final
            # checkpoint runs against a healthy store.
            self._attempt_probe(max(self._vfree, self._breaker.open_until))
        for _ in range(max_probes):
            if not self._pending:
                break
            try:
                self._commit_pending(self._vfree)
            except TransientIOError:
                continue
        if self._durable:
            self._refresh_snapshot()
        # Let the replica catch up to the final committed state so the
        # run ends with a measured (not merely scheduled) staleness.
        self._maintain(self._vfree, force=True)
        self.report.backlog_remaining = len(self._backlog)
