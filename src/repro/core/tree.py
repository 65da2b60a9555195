"""The R^exp-tree (and, by configuration, the TPR-tree).

A balanced R-tree over the current and anticipated future positions of
moving point objects.  Leaf entries are (moving point, object id) pairs;
internal entries are (TPBR, child page) pairs.  The tree follows the
paper's Section 4:

* insertion heuristics are the R*-tree's with time-integral objectives
  (Equation 1) and a self-tuned horizon H = UI + W;
* bounding rectangles are recomputed by the configured algorithm
  whenever a node is modified;
* expired entries are purged *lazily*: whenever a modified node is about
  to be written, its expired entries are dropped (whole subtrees are
  deallocated for expired internal entries), and the insertion/deletion
  algorithms handle nodes that thereby become underfull through a shared
  CondenseTree/PropagateUp pass with an orphans list (Figure 8).
"""

from __future__ import annotations

import heapq
import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.block import RegionBlock, as_block
from ..geometry.bounding import compute_tpbr
from ..geometry.kernels import multi_query_hits, pack_queries, select_queries
from ..geometry.intersection import region_matches_point
from ..geometry.kinematics import NEVER, MovingPoint
from ..geometry.knn import (
    point_distances_sq_rows,
    tpbr_min_distances_sq_rows,
    validate_knn_args,
)
from ..geometry.queries import SpatioTemporalQuery
from ..geometry.tpbr import TPBR
from ..obs.metrics import NULL_REGISTRY
from ..rstar.heuristics import choose_child, choose_split, reinsert_candidates
from ..rstar.metrics import KineticMetrics
from ..rstar.node import Node
from ..storage.buffer import BufferPool
from ..storage.disk import DiskManager, PageId
from ..storage.faults import TransientIOError
from ..storage.pagefile import PAGES_FILENAME, FilePageStore, PersistReport
from ..storage.stats import IOStats
from .bulkload import bulk_load_tree
from .clock import SimulationClock
from .config import TreeConfig
from .horizon import HorizonTracker
from .index import MovingObjectIndex

#: Tolerance for the point-in-rectangle pruning used by deletions: an
#: absolute floor, and a relative slack for what the page codec's
#: binary32 rounding (half an ulp, 2**-24 relative, on each of a
#: bound's coordinates and velocities) can move a reopened bound by.
_DELETE_EPS = 1e-6
_DELETE_REL_EPS = 2.0 ** -21

LeafEntry = Tuple[MovingPoint, int]
Orphan = Tuple[Tuple[object, object], int]  # ((region, value), level)


@dataclass(frozen=True)
class TreeAudit:
    """Structural census produced by :meth:`MovingObjectTree.audit`."""

    height: int
    nodes: int
    leaf_entries: int
    expired_leaf_entries: int
    internal_entries: int
    expired_internal_entries: int

    @property
    def expired_fraction(self) -> float:
        """Fraction of leaf entries whose expiration time has passed."""
        if self.leaf_entries == 0:
            return 0.0
        return self.expired_leaf_entries / self.leaf_entries

    @classmethod
    def merged(cls, audits: Sequence["TreeAudit"]) -> "TreeAudit":
        """The census of several member trees: tallest height, summed counts."""
        return cls(
            height=max(audit.height for audit in audits),
            nodes=sum(audit.nodes for audit in audits),
            leaf_entries=sum(audit.leaf_entries for audit in audits),
            expired_leaf_entries=sum(
                audit.expired_leaf_entries for audit in audits
            ),
            internal_entries=sum(audit.internal_entries for audit in audits),
            expired_internal_entries=sum(
                audit.expired_internal_entries for audit in audits
            ),
        )


class EntrySnapshot:
    """An isolated, read-only copy of an index's leaf entries.

    Produced by ``snapshot()`` on every index shape — a tree, a forest,
    a sharded forest, a replica — for degraded serving: answering
    queries while the live store is failing must not touch storage at
    all, so the snapshot holds its own list of the (immutable)
    full-precision entry tuples.  Queries are answered by a brute-force
    scan through the same expiration-clipping predicate the tree uses,
    so a snapshot answer equals the answer the index itself would have
    given at snapshot time — TR-82's bounded-staleness argument then
    says a *later* query served from it can only over-report objects
    whose expiration windows still cover the query interval.

    ``applied_op_seq`` is set only by a replica: how far it had applied
    when the snapshot was cut (``None`` for a primary's own snapshot).
    """

    __slots__ = ("entries", "taken_at", "applied_op_seq")

    def __init__(self, entries, taken_at: float, applied_op_seq=None):
        self.entries: List[LeafEntry] = list(entries)
        self.taken_at = taken_at
        self.applied_op_seq = applied_op_seq

    def leaf_entries(self):
        """Iterate over all ``(point, oid)`` leaf entries."""
        return iter(self.entries)

    @property
    def leaf_entry_count(self) -> int:
        """Physical leaf entries captured (live plus expired)."""
        return len(self.entries)

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Object ids matching the query against the frozen entry set.

        Expired information never qualifies — the intersection test
        clips the query window at each entry's expiration time, exactly
        as the live tree's descent does.
        """
        region = query.region()
        return [
            oid for point, oid in self.entries
            if region_matches_point(region, point)
        ]


class _TreeInstruments:
    """Metric handles pre-bound to one registry (see DESIGN.md §7).

    Binding happens once, in :meth:`MovingObjectTree.enable_observability`;
    the hot paths then guard on ``self._obs is not None`` and call plain
    ``inc``/``record`` methods, so a disabled tree pays one attribute
    check per instrumented site and an enabled one no name lookups.
    """

    __slots__ = (
        "inserts", "deletes", "delete_misses", "queries", "bulk_loads",
        "splits", "reinserts", "reinserted_entries",
        "purge_events", "purged_entries", "purged_subtrees",
        "purged_subtree_pages", "purged_subtree_leaves",
        "condense_drops", "condense_orphans",
        "root_grows", "root_shrinks",
        "leaf_added", "leaf_removed_delete", "leaf_removed_condense",
        "leaf_removed_reinsert",
        "query_nodes", "query_depth",
        "knn_queries", "knn_nodes",
    )

    def __init__(self, registry):
        counter, histogram = registry.counter, registry.histogram
        self.inserts = counter("tree.inserts")
        self.deletes = counter("tree.deletes")
        self.delete_misses = counter("tree.delete_misses")
        self.queries = counter("tree.queries")
        self.bulk_loads = counter("tree.bulk_loaded_entries")
        self.splits = counter("tree.splits")
        self.reinserts = counter("tree.forced_reinserts")
        self.reinserted_entries = counter("tree.reinserted_entries")
        self.purge_events = counter("tree.purge_events")
        self.purged_entries = counter("tree.purged_leaf_entries")
        self.purged_subtrees = counter("tree.purged_subtrees")
        self.purged_subtree_pages = counter("tree.purged_subtree_pages")
        self.purged_subtree_leaves = counter("tree.purged_subtree_leaf_entries")
        self.condense_drops = counter("tree.condense_drops")
        self.condense_orphans = counter("tree.condense_orphaned_entries")
        self.root_grows = counter("tree.root_grows")
        self.root_shrinks = counter("tree.root_shrinks")
        self.leaf_added = counter("tree.leaf_entries_added")
        self.leaf_removed_delete = counter("tree.leaf_entries_deleted")
        self.leaf_removed_condense = counter("tree.leaf_entries_condensed")
        self.leaf_removed_reinsert = counter("tree.leaf_entries_reinserted")
        self.query_nodes = histogram("tree.query_nodes_visited")
        self.query_depth = histogram("tree.query_descent_depth")
        self.knn_queries = counter("tree.knn_queries")
        self.knn_nodes = histogram("tree.knn_nodes_visited")


class MovingObjectTree(MovingObjectIndex):
    """Disk-based index over expiring moving points.

    With the default :class:`TreeConfig` this is the paper's R^exp-tree;
    see :mod:`repro.core.presets` for the TPR-tree and the Section 5
    experiment flavours.

    Observability is off by default (``_obs``/``_tracer`` are ``None``
    and every instrumented site is behind that attribute check); call
    :meth:`enable_observability` to attach a metrics registry and/or a
    tracer.
    """

    def __init__(
        self,
        config: Optional[TreeConfig] = None,
        clock: Optional[SimulationClock] = None,
        store: Optional[FilePageStore] = None,
    ):
        self.config = config if config is not None else TreeConfig()
        self.clock = clock if clock is not None else SimulationClock()
        if store is None:
            self.stats = IOStats()
            self.disk = DiskManager(self.config.page_size, self.stats)
        else:
            if store.page_size != self.config.page_size:
                raise ValueError(
                    f"store page size {store.page_size} does not match "
                    f"config page size {self.config.page_size}"
                )
            self.stats = store.stats
            self.disk = store
        self.buffer = BufferPool(self.disk, self.config.buffer_pages)
        layout = self.config.layout()
        self.leaf_capacity = layout.leaf_capacity
        self.internal_capacity = layout.internal_capacity
        self.max_oid = layout.max_oid
        self._rng = random.Random(self.config.seed)
        self.horizon = HorizonTracker(
            now=self.clock.now,
            batch_size=self.leaf_capacity,
            alpha=self.config.horizon_alpha,
            default_ui=self.config.default_ui,
        )
        # Real-expiration metrics drive splits, reinserts and bound
        # recomputation; the choose metrics may ignore expiration times
        # (the "algs w/o exp.t." flavour).
        self._metrics = KineticMetrics(
            self.config.bounding,
            now=self.clock.now,
            horizon=self.horizon.insertion_horizon,
            rng=self._rng,
            ignore_expiration=False,
        )
        self._choose_metrics = KineticMetrics(
            self.config.bounding,
            now=self.clock.now,
            horizon=self.horizon.insertion_horizon,
            rng=self._rng,
            ignore_expiration=self.config.choose_ignores_expiration,
        )
        self._obs: Optional[_TreeInstruments] = None
        self._tracer = None
        existing_root = store.root_pid if store is not None else None
        if existing_root is not None:
            # Adopting a recovered store: the pages already exist; only
            # the derived in-memory state (horizon census) is rebuilt.
            self.root_pid = existing_root
            self.buffer.pin(self.root_pid)
            self._adopt_existing_pages()
        else:
            self.root_pid = self._new_node(Node(0))
            self.buffer.pin(self.root_pid)
            if store is not None:
                # Root id precedes the first commit in the file header so
                # a crash between the two recovers as "nothing durable".
                store.set_root(self.root_pid)
            self.buffer.flush_all()

    # -- durability ---------------------------------------------------------

    @classmethod
    def create_durable(
        cls,
        directory: str,
        config: Optional[TreeConfig] = None,
        clock: Optional[SimulationClock] = None,
        fsync: bool = False,
        injector=None,
    ) -> "MovingObjectTree":
        """Create an empty tree backed by a durable page store.

        The tree behaves (and charges I/O) exactly like a simulated one;
        additionally every operation group-commits its dirty pages
        through a write-ahead log in ``directory``.  Log I/O is charged
        to ``tree.disk.wal.stats``, never to ``tree.stats``.
        """
        config = config if config is not None else TreeConfig()
        clock = clock if clock is not None else SimulationClock()
        store = FilePageStore.create(
            directory, config.layout(), now=clock.now,
            injector=injector, fsync=fsync,
        )
        return cls(config, clock, store=store)

    @classmethod
    def open_from(
        cls,
        directory: str,
        config: Optional[TreeConfig] = None,
        clock: Optional[SimulationClock] = None,
        fsync: bool = False,
        registry=None,
        tracer=None,
    ) -> "MovingObjectTree":
        """Open (and crash-recover) a tree persisted in ``directory``.

        Replays the write-ahead log onto the page file, decodes every
        live page, restores the simulation clock to the last committed
        operation's time and rebuilds the derived in-memory state.  The
        recovery report is available as ``tree.disk.recovery``.

        ``config`` must match the persisted layout (page size, dims,
        stored fields); pass the same configuration the tree was built
        with.  ``clock`` should be a fresh clock — it is advanced to the
        recovered time.
        """
        config = config if config is not None else TreeConfig()
        clock = clock if clock is not None else SimulationClock()
        store = FilePageStore.open_dir(
            directory, config.layout(), now=clock.now,
            fsync=fsync, registry=registry, tracer=tracer,
        )
        clock.advance_to(store.opened_clock_time)
        return cls(config, clock, store=store)

    def persist_to(self, directory: str) -> PersistReport:
        """Write a full durable snapshot of this tree to ``directory``.

        Works for any backend: every live page is encoded through the
        byte-exact codec and written to a fresh page file (with a clean
        write-ahead log), ready for :meth:`open_from`.  The snapshot
        charges no simulated I/O — persistence is an offline operation,
        not part of any figure.
        """
        self.buffer.flush_all()
        pages = {pid: self.disk.peek(pid) for pid in self.disk.page_ids()}
        store = FilePageStore.snapshot(
            directory, self.config.layout(), self.clock.now,
            pages, self.disk.free_page_ids(), self.disk.next_page_id,
            self.root_pid,
        )
        store.close()
        return PersistReport(
            directory=directory,
            pages=len(pages),
            file_bytes=os.path.getsize(
                os.path.join(directory, PAGES_FILENAME)
            ),
        )

    def checkpoint(self) -> None:
        """Flush, checkpoint the durable store and truncate its log.

        Only meaningful for durable trees; raises for simulated ones.
        A no-op once the store is closed, so shutdown paths may call it
        unconditionally (a closed store has already checkpointed or
        deliberately abandoned its state).
        """
        if not isinstance(self.disk, FilePageStore):
            raise TypeError("checkpoint() requires a durable page store")
        if self.disk.closed:
            return
        self.buffer.flush_all()
        self.disk.checkpoint()

    def close(self) -> None:
        """Checkpoint and close a durable backing store (idempotent).

        A no-op for simulated trees and for already-closed stores, so
        callers can close unconditionally (and twice).  A transient
        storage fault during the final flush is tolerated: the store's
        own close path falls back to the write-ahead log, which already
        holds every committed operation.  A closed durable tree must
        not be used again.
        """
        if isinstance(self.disk, FilePageStore) and not self.disk.closed:
            try:
                self.buffer.flush_all()
            except TransientIOError:
                # The images are staged (or pending) inside the store;
                # disk.close() retries the commit once and otherwise
                # leaves recovery to the WAL.
                pass
            self.disk.close()

    def snapshot(self) -> EntrySnapshot:
        """Copy the reachable leaf entries for degraded reads (no I/O charged).

        Walks the tree via ``peek`` — never touching the buffer pool,
        the fault injector or the I/O counters — and copies the leaf
        entries, so later mutations (or storage failures) of the live
        tree cannot leak into the snapshot.  Take it right after a
        :meth:`checkpoint` and the snapshot is exactly the last durably
        committed state.
        """
        return EntrySnapshot(
            (
                entry
                for _, node in self._walk()
                if node.is_leaf
                for entry in node.entries
            ),
            self.now,
        )

    def _walk(self):
        """Yield every reachable ``(pid, node)`` depth-first, charging no I/O.

        The one whole-tree walk: it reads through ``peek``, so censuses,
        snapshots and invariant checks never disturb the buffer pool or
        the figures' counters.
        """
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            node = self.disk.peek(pid)
            yield pid, node
            if not node.is_leaf:
                stack.extend(node.child_ids())

    def _adopt_existing_pages(self) -> None:
        """Rebuild the horizon census from a freshly opened store."""
        total_leaf_entries = 0
        for _, node in self._walk():
            self.horizon.node_count_changed(node.level, +1)
            if node.is_leaf:
                total_leaf_entries += len(node)
        if total_leaf_entries:
            self.horizon.leaf_entries_changed(total_leaf_entries)

    # -- observability ------------------------------------------------------

    def enable_observability(self, registry=None, tracer=None) -> None:
        """Attach a metrics registry and/or tracer to this tree.

        Either argument may be ``None``: metrics-only and tracing-only
        configurations are both supported.  Also registers derived
        gauges for the buffer pool (hit rate and raw counters) and the
        index size.  Idempotent; call :meth:`disable_observability` to
        return to the zero-overhead path.
        """
        self._obs = _TreeInstruments(
            registry if registry is not None else NULL_REGISTRY
        )
        self._tracer = tracer
        if registry is not None:
            buffer = self.buffer
            registry.gauge("buffer.hit_rate", fn=lambda: buffer.hit_rate)
            registry.gauge("buffer.hits", fn=lambda: buffer.hits)
            registry.gauge("buffer.misses", fn=lambda: buffer.misses)
            registry.gauge("buffer.evictions", fn=lambda: buffer.evictions)
            registry.gauge("tree.pages", fn=lambda: self.page_count)
            registry.gauge("tree.height", fn=lambda: self.height)
            registry.gauge(
                "tree.leaf_entries", fn=lambda: self.leaf_entry_count
            )

    def disable_observability(self) -> None:
        """Detach the metrics registry and tracer from this tree."""
        self._obs = None
        self._tracer = None

    # ------------------------------------------------------------------ API --

    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a (new or re-appearing) object's reported movement."""
        if self._tracer is not None:
            with self._tracer.span("tree.insert", oid=oid):
                self._insert(oid, point)
        else:
            self._insert(oid, point)

    def _admit(self, oid: int, point: MovingPoint) -> MovingPoint:
        """Validate a report; return the point as this tree stores it."""
        # The page codec stores oids as u32 (the shard wire format is
        # i64, so the codec is the narrower of the two); rejecting here
        # gives a clear error instead of a struct.error when the page
        # is eventually encoded inside a commit or snapshot.
        if oid < 0 or oid > self.max_oid:
            raise ValueError(
                f"oid {oid} outside the page codec's unsigned "
                f"32-bit range [0, {self.max_oid}]"
            )
        if point.dims != self.config.dims:
            raise ValueError(
                f"expected {self.config.dims}-d point, got {point.dims}-d"
            )
        if not self.config.store_leaf_expiration and point.t_exp != NEVER:
            return MovingPoint(point.pos, point.vel, point.t_ref, NEVER)
        return point

    def _insert(self, oid: int, point: MovingPoint) -> None:
        point = self._admit(oid, point)
        if self._obs is not None:
            self._obs.inserts.inc()
        orphans: List[Orphan] = []
        reinserted: set = set()
        self._insert_entry_at_level((point, oid), 0, orphans, reinserted)
        self._process_orphans(orphans, reinserted)
        self._shrink_root()
        self.horizon.record_insertion()
        self.buffer.flush_all()

    def bulk_load(self, entries: Sequence[LeafEntry]) -> None:
        """Build the tree from a known data set by STR packing.

        Far cheaper than repeated :meth:`insert` for the initial
        population of an experiment: every page is written exactly once
        and no ChooseSubtree/split/reinsert work is done.  See
        :mod:`repro.core.bulkload` for the packing algorithm.  The tree
        must be empty; the update-interval estimate is left untouched
        (bulk population is not an update stream).
        """
        root = self._load(self.root_pid)
        if len(root) or not root.is_leaf:
            raise ValueError("bulk_load requires an empty tree")
        prepared: List[LeafEntry] = [
            (self._admit(oid, point), oid) for point, oid in entries
        ]
        if not prepared:
            self.buffer.flush_all()
            return
        bulk_load_tree(self, prepared)
        if self._obs is not None:
            self._obs.bulk_loads.inc(len(prepared))
            self._obs.leaf_added.inc(len(prepared))
            if self._tracer is not None:
                self._tracer.event("bulk_load", entries=len(prepared))

    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove an object's entry, locating it via its last report.

        Follows the paper's deletion discipline: the regular search
        procedure is used and does not "see" expired entries, so deleting
        an already-expired (or lazily purged) object fails and returns
        False — which is harmless, as the entry is or will be purged.
        """
        if self._tracer is not None:
            with self._tracer.span("tree.delete", oid=oid) as span:
                removed = self._delete(oid, point)
                span.set(found=removed)
                return removed
        return self._delete(oid, point)

    def _delete(self, oid: int, point: MovingPoint) -> bool:
        obs = self._obs
        if obs is not None:
            obs.deletes.inc()
        found = self._find_leaf_entry(oid, point)
        if found is None:
            if obs is not None:
                obs.delete_misses.inc()
            self.buffer.flush_all()
            return False
        path, entry_idx = found
        leaf = self._load(path[-1])
        leaf.delete(entry_idx)
        self.horizon.leaf_entries_changed(-1)
        if obs is not None:
            obs.leaf_removed_delete.inc()
        self._touch(path[-1], leaf)
        orphans: List[Orphan] = []
        reinserted: set = set()
        self._condense_path(path, orphans, reinserted)
        self._process_orphans(orphans, reinserted)
        self._shrink_root()
        self.buffer.flush_all()
        return True

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Object ids matching a timeslice/window/moving query.

        Expired information never qualifies: intersection tests clip the
        query window at each entry's expiration time (Section 4.1.5).
        A single query is a batch of one through :meth:`_descend`.
        """
        if self._tracer is None:
            return self._descend((query,))[0][0]
        with self._tracer.span(
            "tree.query", kind=type(query).__name__
        ) as span:
            (results,), (nodes,), (depth,) = self._descend((query,))
            span.set(nodes=nodes, depth=depth, results=len(results))
        return results

    def query_batch(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> List[List[int]]:
        """Answer K concurrent queries in **one** shared traversal.

        A node is visited at most once per batch (instead of once per
        matching query) and its region block is tested against every
        active query at once by the multi-query kernel.
        The answers are bit-identical to ``[self.query(q) for q in
        queries]``, *including order* — see :meth:`_descend`.  Every
        query of the batch is counted and feeds the node/depth
        histograms exactly as if it had run alone; under tracing the
        batch records a single ``tree.query_batch`` span.
        """
        if self._tracer is None:
            return self._descend(queries)[0]
        with self._tracer.span(
            "tree.query_batch", queries=len(queries)
        ) as span:
            results = self._descend(queries)[0]
            span.set(results=sum(len(r) for r in results))
        return results

    def _descend(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> Tuple[List[List[int]], List[int], List[int]]:
        """The range descent: ``(answers, visits, depths)``, one slot per query.

        The frontier is a stack of ``(page, active-query set, depth)``
        frames.  ``active`` is ``None`` while the set is still the whole
        batch — the root, and every child all of whose parent's queries
        survive — which skips the row selection entirely (for a batch of
        one that is every frame); otherwise it holds the surviving
        query positions.  Each tree node has exactly one parent, so a
        query's frames form a proper LIFO subsequence of the shared
        stack — frames of other queries interleave but never reorder
        it: children are pushed in entry order, so pops reproduce each
        query's own depth-first leaf order, and hits within a leaf are
        collected row-major, i.e. per query in entry order.

        ``visits``/``depths`` (nodes visited and deepest level reached,
        per query) are tallied only while a registry or tracer is
        attached, and are empty otherwise; the page accesses are the
        same either way.
        """
        count = len(queries)
        if count == 0:
            return [], [], []
        packed = pack_queries([query.region() for query in queries])
        everyone = range(count)
        results: List[List[int]] = [[] for _ in everyone]
        tally = self._obs is not None or self._tracer is not None
        visits = [0] * count if tally else []
        depths = [0] * count if tally else []
        stack = [(self.root_pid, None, 0)]
        while stack:
            pid, active, depth = stack.pop()
            node = self._load(pid)
            if tally:
                for position in (
                    everyone if active is None else active.tolist()
                ):
                    visits[position] += 1
                    if depth > depths[position]:
                        depths[position] = depth
            if not len(node):
                continue  # only an empty root: its block has no shape yet
            hits = multi_query_hits(
                packed if active is None else select_queries(packed, active),
                node.regions(),
            )
            if node.is_leaf:
                rows, columns = hits.nonzero()
                if active is not None:
                    rows = active[rows]
                for position, oid in zip(
                    rows.tolist(), node.ids[columns].tolist()
                ):
                    results[position].append(oid)
                continue
            width = len(hits)
            children = node.child_ids()
            for column, survivors in enumerate(hits.sum(axis=0).tolist()):
                if survivors == width:
                    stack.append((children[column], active, depth + 1))
                elif survivors:
                    mask = hits[:, column]
                    stack.append((
                        children[column],
                        mask.nonzero()[0] if active is None
                        else active[mask],
                        depth + 1,
                    ))
        self.buffer.flush_all()
        obs = self._obs
        if obs is not None:
            obs.queries.inc(count)
            for nodes, depth in zip(visits, depths):
                obs.query_nodes.record(nodes)
                obs.query_depth.record(depth)
        return results, visits, depths

    def knn_entries(
        self, x, t: float, k: int, bound_sq: float = math.inf
    ) -> List[Tuple[float, int]]:
        """Scored kNN: the ``(squared distance, oid)`` pairs behind ``query_knn``.

        Best-first descent on a priority queue keyed by the admissible
        TPBR min-distance lower bound of :mod:`repro.geometry.knn`:
        internal entries enter the queue under their rectangle's lower
        bound at ``t``, leaf points under their exact squared distance,
        and a point popped from the queue is final — every unexplored
        subtree's bound already exceeds its distance.  Subtrees whose
        bounding rectangle expires before ``t`` are pruned and leaf
        points must satisfy ``not t_exp < t``.

        The forest and shard layers merge per-member answers by exact
        distance, so the scores are exposed and an external pruning
        bound is accepted: entries whose distance (or subtree lower
        bound) strictly exceeds ``bound_sq`` are skipped — entries *at*
        the bound survive so equal-distance ties can still be resolved
        by oid across members.

        Parameters
        ----------
        x : tuple of float
            The query location.
        t : float
            The evaluation time.
        k : int
            Number of neighbors.
        bound_sq : float, optional
            Squared-distance cutoff from a caller that already holds
            ``k`` candidates (default: no cutoff).

        Returns
        -------
        list of (float, int)
            At most ``k`` pairs, ascending by ``(distance, oid)``.
        """
        validate_knn_args(x, t, k, self.config.dims)
        x = tuple(float(c) for c in x)
        if k == 0:
            return []
        if self._tracer is None:
            return self._knn_descent(x, t, k, bound_sq)[0]
        with self._tracer.span("tree.query_knn", k=k) as span:
            results, nodes = self._knn_descent(x, t, k, bound_sq)
            span.set(nodes=nodes, results=len(results))
        return results

    def _knn_descent(
        self, x, t: float, k: int, bound_sq: float
    ) -> Tuple[List[Tuple[float, int]], int]:
        """The best-first loop: ``(scored results, nodes visited)``.

        One priority queue holds both node frames and point candidates:
        ``(key, kind, tie, payload)`` where nodes carry ``kind = 0``
        (so at an equal key a node expands *before* a point finalizes —
        it may contain an equal-distance point with a smaller oid) and
        points carry ``kind = 1`` with their oid as the tie, which
        makes equal-distance points pop in oid order.  Distances and
        bounds come from the batched kernels over the node's region
        block, bit-identical to the scalar routines.
        """
        heap = [(0.0, 0, 0, self.root_pid)]
        seq = 0
        results: List[Tuple[float, int]] = []
        nodes_visited = 0
        while heap:
            key, kind, tie, payload = heapq.heappop(heap)
            if key > bound_sq:
                break
            if kind == 1:
                results.append((key, tie))
                if len(results) == k:
                    break
                continue
            node = self._load(payload)
            nodes_visited += 1
            if not len(node):
                continue  # only an empty root: its block has no shape yet
            block = node.regions()
            if node.is_leaf:
                dists = point_distances_sq_rows(x, block, t)
            else:
                dists = tpbr_min_distances_sq_rows(x, block, t)
            keep = ~((block.t_exp < t) | (dists > bound_sq))
            scored = zip(dists[keep].tolist(), node.ids[keep].tolist())
            if node.is_leaf:
                for dist, oid in scored:
                    heapq.heappush(heap, (dist, 1, oid, None))
            else:
                for lower, child in scored:
                    seq += 1
                    heapq.heappush(heap, (lower, 0, seq, child))
        self.buffer.flush_all()
        if self._obs is not None:
            self._obs.knn_queries.inc()
            self._obs.knn_nodes.record(nodes_visited)
        return results, nodes_visited

    # -- introspection ----------------------------------------------------------

    @property
    def height(self) -> int:
        """The tree's height in levels (a lone leaf root is height 1)."""
        return self.disk.peek(self.root_pid).level + 1

    @property
    def page_count(self) -> int:
        """Index size in disk pages (Figure 15's metric)."""
        return self.disk.allocated_pages

    @property
    def leaf_entry_count(self) -> int:
        """Physical leaf entries currently stored (live plus expired)."""
        return self.horizon.leaf_entries

    def local_stores(self) -> list:
        """The one page store this tree owns (see :mod:`repro.core.index`)."""
        return [self.disk]

    @property
    def aux_io(self) -> int:
        """Cumulative I/O outside ``stats``: a durable tree's WAL writes.

        Zero for a simulated tree.  Experiment adapters charge its
        growth as auxiliary I/O, beside the deletion queue's B-tree.
        """
        wal = getattr(self.disk, "wal", None)
        return wal.stats.writes if wal is not None else 0

    def audit(self) -> TreeAudit:
        """Walk the whole tree without charging I/O and count entries."""
        now = self.now
        nodes = 0
        leaf_entries = expired_leaf = 0
        internal_entries = expired_internal = 0
        for _, node in self._walk():
            nodes += 1
            expired = int(np.count_nonzero(node.regions().t_exp < now))
            if node.is_leaf:
                leaf_entries += len(node)
                expired_leaf += expired
            else:
                internal_entries += len(node)
                expired_internal += expired
        return TreeAudit(
            height=self.height,
            nodes=nodes,
            leaf_entries=leaf_entries,
            expired_leaf_entries=expired_leaf,
            internal_entries=internal_entries,
            expired_internal_entries=expired_internal,
        )

    def level_occupancy(self) -> "dict[int, Tuple[int, int]]":
        """Per-level ``{level: (nodes, entries)}`` census (no I/O charged).

        Level 0 is the leaves; divide entries by ``nodes * capacity`` for
        the fill factor the profile report prints.
        """
        census: "dict[int, List[int]]" = {}
        for _, node in self._walk():
            slot = census.setdefault(node.level, [0, 0])
            slot[0] += 1
            slot[1] += len(node)
        return {
            level: (nodes, entries)
            for level, (nodes, entries) in census.items()
        }

    def check_invariants(self) -> None:
        """Raise AssertionError on structural violations (test helper)."""
        self._check_node(self.root_pid, expected_level=None, bound=None)
        seen = {pid for pid, _ in self._walk()}
        assert seen == set(self.disk.page_ids()), (
            "orphaned pages: "
            f"{set(self.disk.page_ids()) - seen} unreachable"
        )

    # -- node bookkeeping ---------------------------------------------------------

    def _new_node(self, node: Node) -> PageId:
        pid = self.disk.allocate()
        self.buffer.put_new(pid, node)
        self.horizon.node_count_changed(node.level, +1)
        return pid

    def _free_node(self, pid: PageId, node: Node) -> None:
        self.horizon.node_count_changed(node.level, -1)
        self.buffer.discard(pid)
        self.disk.free(pid)

    def _load(self, pid: PageId) -> Node:
        return self.buffer.get(pid)

    def _touch(self, pid: PageId, node: Node) -> None:
        self.buffer.mark_dirty(pid, node)

    def _set_root(self, new_root: Node) -> None:
        old = self._load(self.root_pid)
        self.horizon.node_count_changed(old.level, -1)
        self.horizon.node_count_changed(new_root.level, +1)
        self._touch(self.root_pid, new_root)

    def _capacity(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.internal_capacity

    def _min_entries(self, node: Node) -> int:
        return max(2, int(self._capacity(node) * self.config.min_fill))

    # -- liveness -------------------------------------------------------------------

    def _live(self, regions: RegionBlock) -> np.ndarray:
        """Mask of the regions the algorithms still see (Section 4.3)."""
        if not self.config.lazy_expiry:
            return np.ones(len(regions), dtype=bool)
        return ~(regions.t_exp < self.now)

    # -- bounds ------------------------------------------------------------------------

    def _bound_node(self, node: Node) -> TPBR:
        """Recompute the stored bounding rectangle of a node's entries."""
        br = compute_tpbr(
            node.regions(),
            self.now,
            self.config.bounding,
            horizon=self.horizon.bounding_horizon(node.level),
            rng=self._rng,
        )
        if not self.config.store_br_expiration:
            # The expiration time is not stored on the page; only the
            # derivable zero-extent time of a shrinking rectangle remains
            # available to the algorithms (Section 4.1.1).
            br = TPBR(
                br.lo, br.hi, br.vlo, br.vhi, br.t_ref, br.derived_expiration()
            )
        return br

    # -- insertion ----------------------------------------------------------------------

    def _insert_entry_at_level(
        self,
        entry: Tuple[object, object],
        level: int,
        orphans: List[Orphan],
        reinserted: set,
    ) -> None:
        root = self._load(self.root_pid)
        if not len(root):
            # CT3.1: the root emptied out; restart it at this entry's level.
            self._set_root(Node(level, [entry]))
            if level == 0:
                self.horizon.leaf_entries_changed(+1)
                if self._obs is not None:
                    self._obs.leaf_added.inc()
            self._condense_path([self.root_pid], orphans, reinserted)
            return
        if level > root.level:
            raise RuntimeError(
                f"cannot place a level-{level} entry under a level-"
                f"{root.level} root"
            )
        path = [self.root_pid]
        node = root
        while node.level > level:
            idx = self._choose_child_index(node, entry[0], level)
            child_pid = int(node.ids[idx])
            path.append(child_pid)
            node = self._load(child_pid)
        node.append(*entry)
        if level == 0:
            self.horizon.leaf_entries_changed(+1)
            if self._obs is not None:
                self._obs.leaf_added.inc()
        self._touch(path[-1], node)
        self._condense_path(path, orphans, reinserted)

    def _choose_child_index(self, node: Node, region, target_level: int) -> int:
        use_overlap = (
            self.config.use_overlap_in_choose
            and node.level == target_level + 1
        )
        regions = node.regions()
        live = self._live(regions)
        dead = len(regions) - np.count_nonzero(live)
        if dead == 0 or dead == len(regions):
            # Every entry is a candidate (none live: any will do).
            return choose_child(
                self._choose_metrics, regions, region, use_overlap
            )
        candidates = live.nonzero()[0]
        pick = choose_child(
            self._choose_metrics, regions.take(candidates), region,
            use_overlap,
        )
        return int(candidates[pick])

    def _process_orphans(self, orphans: List[Orphan], reinserted: set) -> None:
        # CT3: reinsert orphans, highest tree levels first.
        while orphans:
            best = max(range(len(orphans)), key=lambda i: orphans[i][1])
            entry, level = orphans.pop(best)
            self._insert_entry_at_level(entry, level, orphans, reinserted)

    # -- the shared condense/propagate pass (Section 4.3) -----------------------------------

    def _condense_path(
        self, path: List[PageId], orphans: List[Orphan], reinserted: set
    ) -> None:
        """PropagateUp from the modified node to the root.

        At each node: purge expired entries, resolve overflow (forced
        reinsert or split), resolve underflow (move live entries to the
        orphans list and deallocate), and refresh the parent's bounding
        rectangle.
        """
        for depth in range(len(path) - 1, -1, -1):
            pid = path[depth]
            node = self._load(pid)
            if self.config.lazy_expiry:
                self._purge_node(node)
            is_root = depth == 0
            split_entry = None
            if len(node) > self._capacity(node):
                split_entry = self._overflow(
                    pid, node, is_root, orphans, reinserted
                )
            if is_root:
                self._touch(pid, node)
                if split_entry is not None:
                    self._grow_root(split_entry)
                continue
            parent_pid = path[depth - 1]
            parent = self._load(parent_pid)
            child_idx = parent.child_ids().index(pid)
            live = self._live(node.regions())
            orphaned = int(np.count_nonzero(live))
            underfull = orphaned < self._min_entries(node)
            has_room = len(orphans) < self.config.max_orphans
            if underfull and (has_room or not len(node)):
                # PU2: orphan the live entries and drop the node.
                for entry, is_live in zip(node.entries, live.tolist()):
                    if is_live:
                        orphans.append((entry, node.level))
                if node.is_leaf:
                    self.horizon.leaf_entries_changed(-len(node))
                if self._obs is not None:
                    self._obs.condense_drops.inc()
                    self._obs.condense_orphans.inc(orphaned)
                    if node.is_leaf:
                        self._obs.leaf_removed_condense.inc(len(node))
                    if self._tracer is not None:
                        self._tracer.event(
                            "condense_drop",
                            level=node.level,
                            entries=len(node),
                            orphaned=orphaned,
                        )
                parent.delete(child_idx)
                self._free_node(pid, node)
            else:
                parent.replace(child_idx, self._bound_node(node))
                if split_entry is not None:
                    parent.append(*split_entry)
                self._touch(pid, node)
            self._touch(parent_pid, parent)

    def _overflow(
        self,
        pid: PageId,
        node: Node,
        is_root: bool,
        orphans: List[Orphan],
        reinserted: set,
    ) -> Optional[Tuple[TPBR, PageId]]:
        """PU1: forced reinsert once per level per operation, else split."""
        can_reinsert = (
            not is_root
            and self.config.reinsert_fraction > 0.0
            and node.level not in reinserted
            and len(orphans) < self.config.max_orphans
        )
        if can_reinsert:
            reinserted.add(node.level)
            count = max(1, int(len(node) * self.config.reinsert_fraction))
            evicted = reinsert_candidates(self._metrics, node.regions(), count)
            for entry in node.take(evicted).entries:
                orphans.append((entry, node.level))
            stays = np.ones(len(node), dtype=bool)
            stays[evicted] = False
            node.keep(stays)
            if node.is_leaf:
                self.horizon.leaf_entries_changed(-len(evicted))
            if self._obs is not None:
                self._obs.reinserts.inc()
                self._obs.reinserted_entries.inc(len(evicted))
                if node.is_leaf:
                    self._obs.leaf_removed_reinsert.inc(len(evicted))
                if self._tracer is not None:
                    self._tracer.event(
                        "forced_reinsert",
                        level=node.level,
                        entries=len(evicted),
                    )
            return None
        return self._split(node)

    def _split(self, node: Node) -> Tuple[TPBR, PageId]:
        result = choose_split(
            self._metrics, node.regions(), self._min_entries(node)
        )
        sibling = node.take(result.group_b)
        node.keep(result.group_a)
        sibling_pid = self._new_node(sibling)
        if self._obs is not None:
            self._obs.splits.inc()
            if self._tracer is not None:
                self._tracer.event(
                    "split",
                    level=node.level,
                    left=len(node),
                    right=len(sibling),
                )
        return (self._bound_node(sibling), sibling_pid)

    def _grow_root(self, split_entry: Tuple[TPBR, PageId]) -> None:
        # The old root's node moves to a fresh page as it stands.
        old_root = self._load(self.root_pid)
        moved_pid = self._new_node(old_root)
        moved_bound = self._bound_node(self._load(moved_pid))
        self._set_root(
            Node(old_root.level + 1, [(moved_bound, moved_pid), split_entry])
        )
        if self._obs is not None:
            self._obs.root_grows.inc()
            if self._tracer is not None:
                self._tracer.event("root_grow", height=old_root.level + 2)

    def _shrink_root(self) -> None:
        root = self._load(self.root_pid)
        while not root.is_leaf and len(root) == 1:
            # CT4: a single-entry root adds a pointless level; its only
            # child's node becomes the root page's as it stands.
            child_pid = int(root.ids[0])
            child = self._load(child_pid)
            self._set_root(child)
            self._free_node(child_pid, child)
            if self._obs is not None:
                self._obs.root_shrinks.inc()
                if self._tracer is not None:
                    self._tracer.event("root_shrink", height=child.level + 1)
            root = self._load(self.root_pid)
        if not root.is_leaf and not len(root):
            self._set_root(Node(0))

    # -- expiry --------------------------------------------------------------------------

    def _purge_node(self, node: Node) -> None:
        """Drop expired entries from a node that is being modified."""
        expired = node.regions().t_exp < self.now
        dead = int(np.count_nonzero(expired))
        if not dead:
            return
        dead_leaves = dead if node.is_leaf else 0
        dead_children: List[PageId] = (
            [] if node.is_leaf else node.ids[expired].tolist()
        )
        node.keep(~expired)
        if dead_leaves:
            self.horizon.leaf_entries_changed(-dead_leaves)
        if self._obs is not None:
            self._obs.purge_events.inc()
            self._obs.purged_entries.inc(dead_leaves)
            self._obs.purged_subtrees.inc(len(dead_children))
            if self._tracer is not None:
                self._tracer.event(
                    "lazy_purge",
                    level=node.level,
                    purged=dead_leaves,
                    subtrees=len(dead_children),
                )
        for child_pid in dead_children:
            self._deallocate_subtree(child_pid)

    def _deallocate_subtree(self, pid: PageId) -> None:
        """Free a whole expired subtree (charging the reads to find it)."""
        pages = 0
        leaf_entries = 0
        stack = [pid]
        while stack:
            page = stack.pop()
            node = self._load(page)
            pages += 1
            if node.is_leaf:
                leaf_entries += len(node)
                self.horizon.leaf_entries_changed(-len(node))
            else:
                stack.extend(node.child_ids())
            self._free_node(page, node)
        if self._obs is not None:
            self._obs.purged_subtree_pages.inc(pages)
            self._obs.purged_subtree_leaves.inc(leaf_entries)
            if self._tracer is not None:
                self._tracer.event(
                    "subtree_dealloc", pages=pages, leaf_entries=leaf_entries
                )

    # -- deletion search --------------------------------------------------------------------

    def _find_leaf_entry(
        self, oid: int, point: MovingPoint
    ) -> Optional[Tuple[List[PageId], int]]:
        """Regular containment search for the leaf entry of ``oid``.

        Descends only live internal entries whose rectangle covers the
        object's current predicted position, as the search procedure
        would; hence expired entries are never found.
        """
        now = self.now
        position = point.position_at(now)
        stack: List[List[PageId]] = [[self.root_pid]]
        while stack:
            path = stack.pop()
            node = self._load(path[-1])
            if not len(node):
                continue  # only an empty root: its block has no shape yet
            regions = node.regions()
            found = self._live(regions)
            if node.is_leaf:
                found &= node.ids == oid
                if found.any():
                    return path, int(found.argmax())
                continue
            found &= self._covers_position(regions, position, now)
            for child_pid in node.ids[found].tolist():
                stack.append(path + [child_pid])
        return None

    @staticmethod
    def _covers_position(
        regions: Sequence[TPBR], position: Sequence[float], now: float
    ) -> np.ndarray:
        """Mask of the rectangles that contain ``position`` at ``now``.

        Containment is up to codec rounding: the slack scales with the
        magnitudes the rounding applied to (coordinate, plus velocity
        times the extrapolation span); near the origin the absolute
        floor still decides.
        """
        regions = as_block(regions)
        position = np.array(position)[:, None]
        elapsed = now - regions.t_ref
        upper, lower = regions.x + regions.v * elapsed
        slack = np.maximum(
            _DELETE_EPS,
            _DELETE_REL_EPS * (
                np.abs(regions.x).max(axis=0)
                + np.abs(regions.v).max(axis=0) * np.abs(elapsed)
            ),
        )
        outside = (position < lower - slack) | (position > upper + slack)
        return ~outside.any(axis=0)

    # -- invariant checking -------------------------------------------------------------------

    def _check_node(
        self, pid: PageId, expected_level: Optional[int], bound: Optional[TPBR]
    ) -> None:
        node = self.disk.peek(pid)
        if expected_level is not None:
            assert node.level == expected_level, (
                f"node {pid} at level {node.level}, expected {expected_level}"
            )
        is_root = pid == self.root_pid
        assert len(node) <= self._capacity(node), f"node {pid} overfull"
        if not is_root:
            # Unmodified nodes may be underfull of *live* entries (the
            # lazy strategy tolerates that), but never physically empty.
            assert len(node), f"node {pid} is empty"
        if bound is not None:
            for region, _ in node.entries:
                assert bound.contains_tpbr(
                    self._as_region_tpbr(region), bound.t_ref, tol=1e-5
                ), f"entry of node {pid} escapes its parent bound"
        if node.is_leaf:
            return
        for br, child_pid in node.entries:
            self._check_node(child_pid, node.level - 1, br)

    @staticmethod
    def _as_region_tpbr(region) -> TPBR:
        if isinstance(region, TPBR):
            return region
        return TPBR.from_moving_point(region, region.t_ref)
