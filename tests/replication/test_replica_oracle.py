"""The replica against the recovery oracle: after every apply, per crash.

A replica applies each shipment with the redo step crash recovery
runs.  The oracle is the sequential redo of
``tests/storage/reference_recovery.py`` over a mirror of the replica's
directory: every shipment the replica applied is appended to the
mirror's log and recovered there.  The replica must leave the same page
file (once the free chain it leaves to the next recovery is threaded),
the same log and the page table a reopen of the mirror would load.
"""

import os
import random
import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.kinematics import MovingPoint
from repro.obs import MetricsRegistry
from repro.replication import Replica
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.pagefile import (
    PAGES_FILENAME,
    SLOT_ALLOCATED,
    WAL_FILENAME,
    PageFile,
)
from repro.storage.serial import NodeCodec
from repro.storage.wal import FREE_RECORD, WriteAheadLog

from ..storage.reference_recovery import decoded_all_expired, reference_recover
from .helpers import catch_up, drive, make_pair


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _node_key(node):
    return node.level, node.ids.tolist(), node.regions().data.tolist()


def _page_table(store):
    return {pid: _node_key(store.peek(pid)) for pid in store.page_ids()}


class Mirror:
    """A copy of a replica's directory, advanced by ``reference_recover``."""

    def __init__(self, replica, directory):
        shutil.copytree(replica.directory, directory)
        self.pages = os.path.join(directory, PAGES_FILENAME)
        self.wal = os.path.join(directory, WAL_FILENAME)
        self.codec = NodeCodec(replica.layout)

    def apply(self, batches):
        log = WriteAheadLog(self.wal)
        for batch in batches:
            for record in batch.records:
                log.append_raw(record.kind, record.payload)
            log.append_commit(batch.op_seq, batch.clock_time)
        log.close()
        page_file = PageFile.open(self.pages)
        reference_recover(page_file, self.wal, decoded_all_expired(self.codec))
        page_file.close()

    def page_table(self):
        page_file = PageFile.open(self.pages)
        table = {}
        for pid in range(page_file.slot_count):
            slot = page_file.read_slot(pid)
            if slot.state == SLOT_ALLOCATED:
                table[pid] = _node_key(self.codec.decode(slot.payload)[0])
        page_file.abandon()
        return table


def assert_replica_equals(replica, mirror, scratch):
    """Page file, log and page table equal the oracle's."""
    threaded = os.path.join(scratch, "threaded.rexp")
    shutil.copyfile(os.path.join(replica.directory, PAGES_FILENAME), threaded)
    page_file = PageFile.open(threaded)
    header = page_file.read_header()
    page_file.rebuild_free_chain(header)
    page_file.write_header(header)
    page_file.close()
    assert _read(threaded) == _read(mirror.pages)
    assert _read(replica.wal_path) == _read(mirror.wal)
    assert _page_table(replica._tree.disk) == mirror.page_table()


ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 12),
              st.sampled_from([2.0, 3.0, 5.0, 500.0])),
    st.tuples(st.just("delete"), st.integers(1, 12)),
    st.just(("poll",)),
    st.just(("redeliver",)),
    st.just(("checkpoint",)),
), min_size=1, max_size=14)


@given(actions=ACTIONS)
@settings(deadline=None)
def test_every_apply_equals_the_recovery_oracle(tmp_path_factory, actions):
    """Short lifetimes (TR-82 skips), FREE records, redelivery, spills
    and primary log resets: after every apply the replica equals
    ``reference_recover`` over the same shipped prefix."""
    root = tmp_path_factory.mktemp("oracle")
    registry = MetricsRegistry()
    tree, _shipper, replica, channel = make_pair(root, registry=registry)
    mirror = Mirror(replica, str(root / "mirror"))
    rng = random.Random(len(actions))
    live, oid, last = {}, 0, []
    for action in actions + [("insert", 20, 2.0), ("poll",)]:
        if action[0] == "insert":
            for _ in range(action[1]):
                tree.clock.advance_to(tree.clock.time + 0.5)
                now = tree.clock.time
                live[oid] = MovingPoint(
                    (rng.uniform(0, 100), rng.uniform(0, 100)),
                    (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    now, now + action[2],
                )
                tree.insert(oid, live[oid])
                oid += 1
        elif action[0] == "delete":
            for victim in sorted(live)[:action[1]]:
                tree.delete(victim, live.pop(victim))
        elif action[0] == "checkpoint":
            tree.disk.checkpoint()  # spills what the replica lacks
        elif action[0] == "redeliver":
            assert replica.apply(last) == 0
            assert_replica_equals(replica, mirror, root)
        else:
            last = channel.poll()
            fresh = [b for b in last if b.op_seq > replica.applied_op_seq]
            replica.apply(last)
            if fresh:
                mirror.apply(fresh)
            channel.ack(replica.applied_op_seq)
            assert replica.applied_op_seq == tree.disk.op_seq
            assert_replica_equals(replica, mirror, root)
    tree.close()
    replica.close()


def test_the_oracle_sees_skips_and_frees(tmp_path):
    """The property's ingredients happen: TR-82 skips and FREE records."""
    registry = MetricsRegistry()
    tree, _shipper, replica, channel = make_pair(tmp_path, registry=registry)
    mirror = Mirror(replica, str(tmp_path / "mirror"))
    rng = random.Random(3)
    live, frees = {}, 0
    for round_ in range(12):
        for i in range(40 if round_ == 0 else 15):
            tree.clock.advance_to(tree.clock.time + 1.0)
            now = tree.clock.time
            oid = round_ * 100 + i
            life = 500.0 if round_ == 0 else 4.0
            live[oid] = MovingPoint(
                (rng.uniform(0, 100), rng.uniform(0, 100)),
                (rng.uniform(-1, 1), rng.uniform(-1, 1)), now, now + life,
            )
            tree.insert(oid, live[oid])
        if round_ == 7:  # the long-lived entries go: their leaves free
            for victim in range(40):
                tree.delete(victim, live.pop(victim))
        batches = channel.poll()
        frees += sum(
            r.kind == FREE_RECORD for b in batches for r in b.records
        )
        replica.apply(batches)
        mirror.apply(batches)
        channel.ack(replica.applied_op_seq)
        assert_replica_equals(replica, mirror, tmp_path)
    assert registry.value("replication.skipped_expired") > 0
    assert frees > 0
    tree.close()
    replica.close()


# -- a crash at every physical write of one apply -----------------------------


def _reopened(directory, layout):
    replica = Replica(directory, layout)
    state = (
        replica.applied_op_seq,
        _page_table(replica._tree.disk),
        _read(os.path.join(directory, PAGES_FILENAME)),
    )
    replica.close()
    return state


def test_a_crash_at_every_write_of_an_apply_lands_on_a_batch_boundary(
    tmp_path,
):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 30, lifetime=3.0)
    catch_up(channel, replica)
    drive(tree, 4, start_oid=100, lifetime=3.0)
    batches = channel.poll()
    assert len(batches) >= 2
    layout = replica.layout
    template = str(tmp_path / "template")
    replica.close()
    shutil.copytree(replica.directory, template)
    tree.close()

    # The states an apply may be cut back to: every batch boundary.
    boundaries = []
    for k in range(len(batches) + 1):
        clean = str(tmp_path / f"boundary{k}")
        shutil.copytree(template, clean)
        if k:
            follower = Replica(clean, layout)
            follower.apply(batches[:k])
            follower.close()
        boundaries.append(_reopened(clean, layout))

    counter = FaultInjector()
    counted = str(tmp_path / "counted")
    shutil.copytree(template, counted)
    follower = Replica(counted, layout)
    follower._tree.disk.arm_injector(counter)
    follower.apply(batches)
    follower.close()
    assert counter.writes > len(batches)

    landed = set()
    for n in range(1, counter.writes + 1):
        directory = str(tmp_path / f"crash{n}")
        shutil.copytree(template, directory)
        follower = Replica(directory, layout)
        follower._tree.disk.arm_injector(FaultInjector(crash_at_write=n))
        try:
            follower.apply(batches)
        except SimulatedCrash:
            pass
        else:  # pragma: no cover - the crash point lies inside the apply
            raise AssertionError(f"write {n} did not crash the apply")
        follower.close()
        state = _reopened(directory, layout)
        assert state in boundaries, f"crash at write {n} left no boundary"
        landed.add(boundaries.index(state))
        shutil.rmtree(directory)
    assert {0, len(batches)} <= landed
