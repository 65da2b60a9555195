"""The frontend's handle on replication: paced polling, health, failover.

A :class:`ReplicaLink` bundles one :class:`~repro.replication.channel.
ShippingChannel`, one :class:`~repro.replication.replica.Replica` and an
optional :class:`~repro.replication.maintenance.OnlineMaintainer` into
the single object the :class:`~repro.serve.frontend.ServiceFrontend`
talks to.  The frontend ticks the link once per served request; the
link polls the channel on a fixed cadence (retrying transient transport
faults under the usual :class:`~repro.serve.retry.RetryPolicy` budget
discipline), applies what arrived, acknowledges, measures the staleness
lag, and steps the maintainer.  When the primary dies, the frontend
asks the link to :meth:`~ReplicaLink.failover` instead of re-opening
the corpse.

Staleness is defined on the index clock: the time of the newest commit
the primary's log asserts, minus the time of the newest commit the
replica has applied, clamped at zero.  With ``poll_every`` requests
between polls and mean inter-commit spacing ``d``, the lag a poll can
observe is bounded by ``poll_every * d`` plus one in-flight fetch —
the bound the ``replica_staleness`` SLO budgets (see DESIGN.md §14).
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..obs.slo import SLO
from ..storage.faults import TransientIOError
from ..storage.pagefile import FilePageStore
from .channel import ShippingChannel
from .maintenance import OnlineMaintainer
from .replica import Replica
from .shipper import ShippingGapError, WalShipper

#: Polls one poll cycle tries before a transient transport fault is
#: dropped (the next cycle re-fetches from the durable cursor).
POLL_ATTEMPTS = 4


def start_follower(
    store: FilePageStore,
    directory: str,
    *,
    injector=None,
    registry=None,
    wal_soft_limit: Optional[int] = None,
    chain_budget: int = 8,
) -> Tuple[ShippingChannel, Replica, Optional[OnlineMaintainer]]:
    """Bootstrap a follower of ``store``: ``(channel, replica, maintainer)``.

    The one place a follower is assembled — shipper, bootstrapped
    replica in ``directory``, channel, and (when ``wal_soft_limit`` is
    given) the primary's online maintainer — returning the triple a
    :class:`ReplicaLink` takes, and its ``reseed`` callback returns.

    Parameters
    ----------
    store : FilePageStore
        The primary's open page store.
    directory : str
        Where to create the replica's store.
    injector : FaultInjector, optional
        Fault schedule for the channel's transfers.
    registry : MetricsRegistry, optional
        Receives every part's ``replication.*`` metrics.
    wal_soft_limit, chain_budget : optional
        The maintainer's parameters; no maintainer without a limit.
    """
    shipper = WalShipper(store.directory, registry=registry)
    replica = Replica.bootstrap(store, shipper, directory, registry=registry)
    channel = ShippingChannel(shipper, injector=injector, registry=registry)
    maintainer = None
    if wal_soft_limit is not None:
        maintainer = OnlineMaintainer(
            store, wal_soft_limit, chain_budget, registry=registry
        )
    return channel, replica, maintainer


def replication_slos(staleness_target: float = 0.9) -> List[SLO]:
    """The replication health objective for the frontend's SLO tracker.

    Each poll cycle scores one event: *good* when the measured lag is
    within the link's staleness budget, *bad* otherwise.
    """
    return [
        SLO(
            name="replica_staleness",
            target=staleness_target,
            good=("replication.polls_within_budget",),
            bad=("replication.polls_over_budget",),
            description=(
                "fraction of replication polls observing lag within "
                "the configured staleness budget"
            ),
        )
    ]


class ReplicaLink:
    """Wire a tailing replica into the serving loop.

    Parameters
    ----------
    channel : ShippingChannel
        Transport from the primary's shipper.
    replica : Replica
        The follower applying shipped batches.
    maintainer : OnlineMaintainer, optional
        Primary-side incremental checkpointer, stepped once per tick.
    promote_config : TreeConfig
        Tree configuration for :meth:`failover`'s ``open_from``.
    registry : MetricsRegistry, optional
        Receives all ``replication.*`` gauges and counters.
    staleness_budget : float, optional
        Index-clock seconds of lag a poll may observe and still count
        as healthy (default: unbounded).
    slo_target : float, optional
        Target fraction of healthy polls for the ``replica_staleness``
        objective.
    poll_every : int, optional
        Served requests between poll cycles.
    on_promote : callable, optional
        ``f(tree) -> injector | None`` invoked after a promotion (and
        after re-seeding), e.g. to arm a fresh fault injector on the
        new primary.  The returned injector is handed to the frontend.
    reseed : callable, optional
        ``f(tree) -> (channel, replica, maintainer)`` building a fresh
        follower for the promoted primary.  Without it the link goes
        inert after one failover.
    tracer : Tracer, optional
        Emits ``replication.promote`` events.
    """

    def __init__(
        self,
        channel: ShippingChannel,
        replica: Replica,
        maintainer: Optional[OnlineMaintainer] = None,
        *,
        promote_config=None,
        registry=None,
        staleness_budget: float = float("inf"),
        slo_target: float = 0.9,
        poll_every: int = 8,
        on_promote: Optional[Callable] = None,
        reseed: Optional[Callable] = None,
        tracer=None,
    ):
        self.channel: Optional[ShippingChannel] = channel
        self.replica: Optional[Replica] = replica
        self.maintainer: Optional[OnlineMaintainer] = maintainer
        self.promote_config = promote_config
        self.staleness_budget = staleness_budget
        self.slo_target = slo_target
        self.poll_every = max(1, poll_every)
        self.promotions = 0
        self.polls = 0
        self.max_staleness = 0.0
        self.footprint_high_water = 0
        self._on_promote = on_promote
        self._reseed = reseed
        self._tracer = tracer
        self._ticks = 0
        self._mark_seqs: List[int] = []
        self._mark_indices: List[int] = []
        self._snapshot_cache: Tuple[int, object] = (-1, None)
        #: As given (maybe None): handed on to a promoted tree.
        self._registry = registry
        registry = registry or NULL_REGISTRY
        self._g_staleness = registry.gauge("replication.staleness_seconds")
        self._g_lag = registry.gauge("replication.cursor_lag_batches")
        self._g_promoted = registry.gauge("replication.last_promotion_time")
        registry.gauge(
            "replication.wal_footprint_bytes", fn=self.wal_footprint
        )
        registry.gauge(
            "replication.footprint_high_water",
            fn=lambda: self.footprint_high_water,
        )
        self._c_polls = registry.counter("replication.polls")
        self._c_within = registry.counter("replication.polls_within_budget")
        self._c_over = registry.counter("replication.polls_over_budget")
        self._c_promotions = registry.counter("replication.promotions")

    # -- health --------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether a live follower is attached and unpromoted.

        That is also whether :meth:`failover` can promote one.
        """
        return (
            self.replica is not None
            and self.channel is not None
            and not self.replica.promoted
        )

    def slos(self) -> List[SLO]:
        """The link's SLOs, for appending to the frontend tracker."""
        return replication_slos(self.slo_target)

    def staleness(self) -> float:
        """Index-clock replication lag in seconds (>= 0).

        Against the newest commit the last poll's one log scan saw.
        """
        if not self.ready:
            return 0.0
        last_seq, last_clock = self.channel.shipper.last_committed()
        if last_seq <= self.replica.applied_op_seq:
            return 0.0
        return max(0.0, last_clock - self.replica.applied_clock_time)

    def wal_footprint(self) -> int:
        """Total replication-relevant disk footprint in bytes.

        Live primary WAL, archive segments plus cursor, and the
        replica's own WAL — the number whose high-water mark the soak
        asserts stays bounded across truncation cycles.
        """
        total = 0
        if self.maintainer is not None:
            total += self.maintainer.wal_bytes()
        if self.channel is not None:
            total += self.channel.shipper.archive_bytes()
        if self.replica is not None and not self.replica.promoted:
            total += self.replica.wal_bytes()
        return total

    # -- stream-index marks --------------------------------------------------

    def note_write(self, op_seq: int, served_through: int) -> None:
        """Record that the primary reached ``op_seq`` at stream position.

        Mirrors the frontend's snapshot convention: a state at
        ``op_seq`` is declared current through the number of requests
        served when that sequence number was observed.  Marks are
        consulted by :meth:`stream_mark` to translate the replica's
        applied position into the ``snapshot_op_index`` the soak
        harness verifies degraded answers against.
        """
        self._mark_seqs.append(op_seq)
        self._mark_indices.append(served_through)
        if len(self._mark_seqs) > 65536:
            del self._mark_seqs[:32768]
            del self._mark_indices[:32768]

    def stream_mark(self) -> int:
        """Stream index the replica's applied state is current through."""
        if self.replica is None:
            return 0
        pos = bisect.bisect_right(
            self._mark_seqs, self.replica.applied_op_seq
        )
        if pos == 0:
            return 0
        return self._mark_indices[pos - 1]

    # -- the per-request tick ------------------------------------------------

    def tick(self, force: bool = False) -> None:
        """One serving-loop tick: maintenance step, cadenced poll cycle.

        A transient transport fault is retried up to
        :data:`POLL_ATTEMPTS` polls and then dropped — the next cycle
        re-fetches from the durable cursor, so giving up loses nothing.  A
        :class:`~repro.replication.shipper.ShippingGapError` propagates:
        it means truncation bypassed the shipping gate and the replica
        must be re-bootstrapped, which is a wiring bug, not weather.
        """
        self._ticks += 1
        if self.maintainer is not None:
            self.maintainer.step()
        if not self.ready:
            return
        if not force and self._ticks % self.poll_every:
            self._observe_footprint()
            return
        batches = None
        for _attempt in range(POLL_ATTEMPTS):
            try:
                batches = self.channel.poll()
                break
            except TransientIOError:
                continue
        if batches is not None:
            # The lag this poll *observed*: how far behind the replica
            # was at fetch time.  Measured before applying — post-apply
            # staleness is ~0 by construction and would gate nothing.
            lag = self.staleness()
            self.polls += 1
            if batches:
                self.replica.apply(batches)
                self.channel.ack(self.replica.applied_op_seq)
            self.max_staleness = max(self.max_staleness, lag)
            self._c_polls.inc()
            self._g_staleness.set(self.staleness())
            self._g_lag.set(self.channel.shipper.lag_batches())
            if lag <= self.staleness_budget:
                self._c_within.inc()
            else:
                self._c_over.inc()
        self._observe_footprint()

    def _observe_footprint(self) -> None:
        self.footprint_high_water = max(
            self.footprint_high_water, self.wal_footprint()
        )

    # -- degraded reads ------------------------------------------------------

    def fresher_base(self, taken_at: float):
        """A replica snapshot strictly fresher than ``taken_at``, or None.

        The frontend's degraded reader rebases onto this when the live
        follower has applied past the last checkpoint snapshot —
        freshest wins.  Snapshots are cached per applied position, so a
        burst of degraded answers between polls cuts one snapshot, not
        hundreds.
        """
        if not self.ready:
            return None
        if self.replica.applied_clock_time <= taken_at:
            return None
        cached_seq, cached = self._snapshot_cache
        if cached_seq != self.replica.applied_op_seq:
            cached = self.replica.snapshot()
            self._snapshot_cache = (self.replica.applied_op_seq, cached)
        return cached

    # -- failover ------------------------------------------------------------

    def failover(self):
        """Promote the follower and re-seed; return ``(tree, injector)``.

        Drains every committed batch still fetchable from the dead
        primary's on-disk log, promotes the replica through the full
        verification path, re-seeds a fresh follower via the ``reseed``
        callback (when configured), and finally invokes ``on_promote``
        for a replacement fault injector.  Zero committed writes are
        lost: the drain reads the durable committed prefix, and
        promotion verifies the replica's log is dense up to it.
        """
        if not self.ready:
            raise ShippingGapError("no promotable replica attached")
        replica, channel = self.replica, self.channel
        tree = replica.promote(
            self.promote_config,
            channel=channel,
            registry=self._registry,
            tracer=self._tracer,
        )
        self.promotions += 1
        self._c_promotions.inc()
        self._g_promoted.set(tree.clock.time)
        if self._tracer is not None:
            self._tracer.event("replication.promote", at=tree.clock.time)
        self.channel = self.replica = self.maintainer = None
        self._snapshot_cache = (-1, None)
        if self._reseed is not None:
            self.channel, self.replica, self.maintainer = self._reseed(tree)
        injector = self._on_promote(tree) if self._on_promote else None
        return tree, injector
