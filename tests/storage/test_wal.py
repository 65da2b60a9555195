"""Tests for the write-ahead log, scan, and recovery."""

import dataclasses
import math
import os
import random
import shutil
import struct
import zlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.tree import MovingObjectTree
from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR
from repro.rstar.node import Node
from repro.storage.layout import EntryLayout
from repro.storage.pagefile import (
    FilePageStore,
    PageFile,
    _all_expired_predicate,
    layout_flags,
)
from repro.storage.serial import NodeCodec
from repro.storage.wal import (
    _COMMIT,
    CHECKPOINT_RECORD,
    COMMIT_RECORD,
    PAGE_RECORD,
    WalError,
    WriteAheadLog,
    _skippable,
    recover,
    scan_wal,
    scan_wal_bytes,
)

from .reference_recovery import decoded_all_expired, reference_recover

LAYOUT = EntryLayout(page_size=512, dims=2)


def leaf(t_ref, t_exp, oid=1):
    point = MovingPoint((1.0, 2.0), (0.1, -0.1), t_ref, t_exp)
    return Node(0, [(point, oid)])


# -- log append and scan ------------------------------------------------------


def test_append_scan_round_trip(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(3, b"\xab" * 512)
    wal.append_free(7)
    wal.append_commit(1, 2.5)
    wal.flush()
    wal.close()

    records, valid, torn = scan_wal(path)
    assert torn == 0
    assert valid == os.path.getsize(path)
    assert [r.kind for r in records] == [PAGE_RECORD, 2, COMMIT_RECORD]
    assert [r.lsn for r in records] == [0, 1, 2]
    assert records[0].page_id == 3
    assert records[0].page_bytes == b"\xab" * 512
    assert records[1].page_id == 7
    assert records[2].op_seq == 1
    assert records[2].clock_time == 2.5


def test_scan_missing_file_is_empty(tmp_path):
    records, valid, torn = scan_wal(str(tmp_path / "nope"))
    assert records == [] and valid == 0 and torn == 0


def test_scan_stops_at_torn_tail(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 512)
    wal.append_commit(1, 0.0)
    wal.append_page(2, b"y" * 512)
    wal.flush()
    wal.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 100)  # tear the last record

    records, valid, torn = scan_wal(path)
    assert [r.kind for r in records] == [PAGE_RECORD, COMMIT_RECORD]
    assert torn > 0
    assert valid + torn == size - 100


def test_scan_stops_at_corrupt_crc(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 64)
    wal.append_page(2, b"y" * 64)
    wal.flush()
    wal.close()
    records, valid, _ = scan_wal(path)
    second_start = valid - (valid // 2)
    with open(path, "r+b") as handle:
        handle.seek(valid - 10)
        byte = handle.read(1)
        handle.seek(valid - 10)
        handle.write(bytes([byte[0] ^ 0xFF]))
    records, _, torn = scan_wal(path)
    assert len(records) == 1
    assert torn > 0
    assert second_start  # silence unused warning


def test_reopen_continues_lsn_after_torn_tail(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 32)
    wal.append_commit(1, 0.0)
    wal.flush()
    wal.close()
    with open(path, "ab") as handle:
        handle.write(b"\x01garbage-torn-tail")

    wal2 = WriteAheadLog(path)
    wal2.append_page(2, b"y" * 32)
    wal2.flush()
    wal2.close()
    records, _, torn = scan_wal(path)
    assert torn == 0  # reopen truncated the garbage
    assert [r.lsn for r in records] == [0, 1, 2]


def test_reset_leaves_single_checkpoint_record(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    for i in range(5):
        wal.append_page(i, bytes(16))
    wal.append_commit(3, 9.0)
    wal.flush()
    wal.reset(3, 9.0)
    wal.close()
    records, _, torn = scan_wal(path)
    assert torn == 0
    assert len(records) == 1
    assert records[0].kind == CHECKPOINT_RECORD
    assert records[0].op_seq == 3
    assert records[0].clock_time == 9.0


def test_append_charges_one_write_per_record(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append_page(1, bytes(32))
    wal.append_free(2)
    wal.append_commit(1, 0.0)
    assert wal.stats.writes == 3
    assert wal.stats.reads == 0
    wal.close()


# -- recovery -----------------------------------------------------------------


def make_store(tmp_path, clock):
    return FilePageStore.create(str(tmp_path / "store"), LAYOUT, clock.now)


def reopen(tmp_path, clock):
    return FilePageStore.open_dir(str(tmp_path / "store"), LAYOUT, clock.now)


def test_uncommitted_tail_is_discarded(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 100.0, oid=1))
    store.set_root(a)
    store.commit()
    # Stage a second change but tear the log before its commit record.
    store.write(a, leaf(0.0, 100.0, oid=2))
    store.wal.append_page(a, store.codec.encode(leaf(0.0, 100.0, oid=2), 0.0))
    store.wal.flush()
    store.abandon()

    recovered = reopen(tmp_path, SimulationClock())
    assert recovered.recovery.commits_applied == 1
    assert recovered.peek(a).entries[0][1] == 1  # the committed image
    recovered.abandon()


def test_recovery_skips_expired_pages(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 10.0))  # expires at t=10
    store.set_root(a)
    store.commit()  # commit 1 at clock 0
    clock.advance_to(50.0)
    b = store.allocate()
    store.write(b, leaf(50.0, 100.0))
    store.commit()  # commit 2 at clock 50: recovery time is 50
    store.abandon()  # crash without checkpoint

    recovered = reopen(tmp_path, SimulationClock())
    report = recovered.recovery
    # Page A's logged image is all-expired at recovery time and the
    # on-disk slot already holds an intact all-expired leaf: TR-82 says
    # replay would restore dead data, so it is skipped and counted.
    assert report.wal_skipped_expired == 1
    assert a in report.skipped_pids
    assert report.commits_applied == 2
    assert recovered.is_allocated(a) and recovered.is_allocated(b)
    assert recovered.peek(b).entries[0][1] == 1
    recovered.abandon()


def test_recovery_replays_live_pages(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 1000.0))  # far from expiring
    store.set_root(a)
    store.commit()
    clock.advance_to(50.0)
    store.write(a, leaf(50.0, 1000.0, oid=9))
    store.commit()
    store.abandon()

    recovered = reopen(tmp_path, SimulationClock())
    assert recovered.recovery.wal_skipped_expired == 0
    assert recovered.recovery.pages_replayed >= 1
    assert recovered.peek(a).entries[0][1] == 9
    recovered.abandon()


def test_recovery_restores_clock_from_last_commit(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 1000.0))
    store.set_root(a)
    store.commit()
    clock.advance_to(33.25)
    store.write(a, leaf(33.25, 1000.0))
    store.commit()
    store.abandon()

    recovered = reopen(tmp_path, SimulationClock())
    assert recovered.opened_clock_time == 33.25
    recovered.abandon()


def test_recovery_counters_reach_registry(tmp_path):
    from repro.obs import MetricsRegistry

    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 1000.0))
    store.set_root(a)
    store.commit()
    store.abandon()

    registry = MetricsRegistry()
    recovered = FilePageStore.open_dir(
        str(tmp_path / "store"), LAYOUT, SimulationClock().now,
        registry=registry,
    )
    assert registry.get("wal.commits_applied").value == 1
    assert registry.get("wal_skipped_expired").value == 0
    recovered.abandon()


# -- the recovery skip rule's exception contract ------------------------------
#
# ``_skippable`` evaluates the all-expired predicate over raw logged
# bytes.  Decode/IO failures (OSError, ValueError, struct.error) mean
# "cannot prove the page is all-expired" and must make recovery replay
# the image verbatim; any *other* exception is a bug in the predicate
# and must propagate instead of being silently treated as unskippable.


def test_skippable_decode_errors_mean_replay():
    def undecodable(data, now):
        raise ValueError("garbage page image")

    assert _skippable(None, 0, b"\x00" * 16, 0.0, undecodable) is False


def test_skippable_struct_errors_mean_replay():
    def truncated(data, now):
        struct.unpack("<Q", data)  # wrong size: struct.error
        return True

    assert _skippable(None, 0, b"\x00", 0.0, truncated) is False


def test_skippable_unexpected_errors_propagate():
    def buggy(data, now):
        raise RuntimeError("defect in the predicate itself")

    with pytest.raises(RuntimeError):
        _skippable(None, 0, b"\x00" * 16, 0.0, buggy)


def test_skippable_assertion_errors_propagate():
    def asserting(data, now):
        assert False, "invariant violated"

    with pytest.raises(AssertionError):
        _skippable(None, 0, b"\x00" * 16, 0.0, asserting)


# -- torn-tail truncation durability ------------------------------------------


def test_reopen_fsyncs_the_truncated_torn_tail(tmp_path, monkeypatch):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 32)
    wal.append_commit(1, 0.0)
    wal.flush()
    wal.close()
    with open(path, "ab") as handle:
        handle.write(b"\x01torn-garbage")

    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr("repro.storage.wal.os.fsync", spy)
    # Reopening truncates the torn tail; the cut must reach media
    # before any append, or a crash could resurrect the garbage bytes
    # underneath freshly appended records.
    wal2 = WriteAheadLog(path)
    assert synced, "torn-tail truncation was not fsynced at reopen"
    wal2.append_page(2, b"y" * 32)
    wal2.flush()
    wal2.close()
    records, _, torn = scan_wal(path)
    assert torn == 0
    assert [r.lsn for r in records] == [0, 1, 2]


def test_clean_reopen_skips_the_truncate_fsync(tmp_path, monkeypatch):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 32)
    wal.append_commit(1, 0.0)
    wal.flush()
    wal.close()

    synced = []
    monkeypatch.setattr("repro.storage.wal.os.fsync", synced.append)
    WriteAheadLog(path).close()
    # No torn bytes were cut, so there is nothing to make durable: the
    # fsync is gated on an actual tear, not issued on every open.
    assert synced == []


# -- recovery edge cases ------------------------------------------------------


def test_recovery_rejects_checkpoint_inside_open_batch(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 100.0))
    store.set_root(a)
    store.commit()
    # Corrupt the protocol: a checkpoint record lands between a page
    # record and its commit.  Recovery must refuse to guess.
    store.wal.append_page(a, store.codec.encode(leaf(0.0, 100.0), 0.0))
    store.wal.append_raw(CHECKPOINT_RECORD, _COMMIT.pack(9, 1.0))
    store.wal.flush()
    store.abandon()
    with pytest.raises(WalError):
        reopen(tmp_path, SimulationClock())


def test_checkpoint_only_log_restores_op_seq_and_clock(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 100.0))
    store.set_root(a)
    store.commit()
    clock.advance_to(12.5)
    store.checkpoint()
    committed = store.op_seq
    store.abandon()  # crash right after the checkpoint

    recovered = reopen(tmp_path, SimulationClock())
    # The log holds nothing but the checkpoint record, which alone
    # asserts how far history reached and when.
    assert recovered.recovery.commits_applied == 0
    assert recovered.recovery.checkpoint_seen
    assert recovered.op_seq == committed
    assert recovered.opened_clock_time == 12.5
    assert recovered.peek(a).entries[0][1] == 1
    recovered.abandon()


def test_commit_record_torn_mid_write_discards_the_batch(tmp_path):
    clock = SimulationClock()
    store = make_store(tmp_path, clock)
    a = store.allocate()
    store.write(a, leaf(0.0, 100.0, oid=1))
    store.set_root(a)
    store.commit()
    store.write(a, leaf(0.0, 100.0, oid=2))
    store.commit()
    wal_path = store.wal.path
    store.abandon()
    size = os.path.getsize(wal_path)
    with open(wal_path, "r+b") as handle:
        handle.truncate(size - 4)  # tear inside the second COMMIT record

    records, _valid, torn = scan_wal(wal_path)
    assert torn > 0
    assert records[-1].kind == PAGE_RECORD  # the half commit is gone
    recovered = reopen(tmp_path, SimulationClock())
    # A batch whose commit record did not fully reach the log never
    # happened: the first committed image wins.
    assert recovered.recovery.commits_applied == 1
    assert recovered.peek(a).entries[0][1] == 1
    recovered.abandon()


# -- recover() equals the sequential redo -------------------------------------
#
# ``recover`` simulates the redo and writes each touched slot once; the
# oracle in ``reference_recovery`` applies every record in log order
# with the decode-based TR-82 predicate.  Both run over copies of one
# deployment: page file bytes, log bytes and every report field match.

SLOT_SIZE = LAYOUT.page_size + 8
TIMES = (0.0, 0.5, 2.0, 5.0, 50.0)


def _oracle_leaf(lifetimes, seed, t_ref=0.0):
    rng = random.Random(seed)
    return Node(0, [
        (MovingPoint((rng.uniform(0, 100), rng.uniform(0, 100)),
                     (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     t_ref, t_ref + life), seed * 100 + i)
        for i, life in enumerate(lifetimes)
    ])


def _oracle_images():
    codec = NodeCodec(LAYOUT)
    dead = codec.encode(_oracle_leaf([1.0] * 5, 1), 0.0)
    nan = bytearray(dead)
    struct.pack_into("<d", nan, 8, math.nan)  # the header's t_ref
    internal = Node(1, [
        (TPBR((1.0, 2.0), (3.0, 4.0), (0.0, 0.0), (0.5, 0.5), 0.0, 1e6), 7)
    ])
    return {
        # Dead at every recovery time past 1.0 (all t_exp <= 1.0).
        "dead": dead,
        "dead2": codec.encode(_oracle_leaf([0.5, 1.0], 2), 0.0),
        # Its slot's CRC ends in a zero byte: a slot torn one byte short
        # of its end still reads back intact.
        "dead0": codec.encode(_oracle_leaf([1.0] * 4, 323), 0.0),
        # The predicate wrapper raises struct.error on this one.
        "bomb": codec.encode(_oracle_leaf([0.25] * 3, 3), 0.0),
        "live": codec.encode(_oracle_leaf([1e6] * 3, 4), 0.0),
        "mixed": codec.encode(_oracle_leaf([1.0] * 4 + [1e6], 5), 0.0),
        # t_exp == a recovery time: live at that time (not below it).
        "tie": codec.encode(_oracle_leaf([2.0] * 2, 6), 0.0),
        "empty": codec.encode(Node(0), 0.0),
        "internal": codec.encode(internal, 0.0),
        # Rejected by the codec (ValueError): a wrong size (which the
        # slot pads to a dead-looking leaf), a bad header, a NaN t_ref.
        "short": dead[:100],
        "garbage": bytes(random.Random(9).randrange(256) for _ in range(512)),
        "nan": bytes(nan),
    }


IMAGES = _oracle_images()


def _predicates(kind):
    """``(recover's predicate, the oracle's)`` for a predicate kind."""
    if kind == "none":
        return None, None
    fast = _all_expired_predicate(NodeCodec(LAYOUT))
    slow = decoded_all_expired(NodeCodec(LAYOUT))
    if kind == "codec":
        return fast, slow

    def bombed(predicate):
        def check(page, now):
            if page == IMAGES["bomb"]:
                raise struct.error("unpack requires a buffer")
            return predicate(page, now)
        return check

    return bombed(fast), bombed(slow)


def _slot_bytes(image, state=1):
    payload = image.ljust(LAYOUT.page_size, b"\0")
    return payload + struct.pack(
        "<II", state, zlib.crc32(payload + struct.pack("<I", state))
    )


def _write_log(path, scenario):
    wal = WriteAheadLog(path)
    op_seq = 0
    if scenario["checkpoint"] is not None:
        op_seq, t = scenario["checkpoint"]
        wal.append_raw(CHECKPOINT_RECORD, _COMMIT.pack(op_seq, t))
    batches = scenario["batches"] + [(scenario["uncommitted"], None)]
    for records, t in batches:
        for record in records:
            if record[0] == "free":
                wal.append_free(record[1])
            else:
                wal.append_page(record[1], IMAGES[record[2]])
        if t is not None:
            op_seq += 1
            wal.append_commit(op_seq, t)
    wal.close()
    data = open(path, "rb").read()
    data = data[:len(data) - scenario["tear"]] + scenario["garbage"]
    with open(path, "wb") as handle:
        handle.write(data)


def _build(directory, scenario):
    """A page file of ``scenario["slots"]`` and a log of its batches."""
    os.makedirs(directory)
    pages = os.path.join(directory, "pages.rexp")
    pf = PageFile.create(pages, LAYOUT.page_size, 2, layout_flags(LAYOUT))
    header = pf.read_header()
    header.clock_time, header.next_id = scenario["header"]
    pf.write_header(header)
    pf.close()
    with open(pages, "r+b") as handle:
        for pid, slot in enumerate(scenario["slots"]):
            raw = bytes(SLOT_SIZE)
            if slot[0] == "free":
                raw = _slot_bytes(struct.pack("<q", -1), state=2)
            elif slot[0] in ("image", "corrupt"):
                raw = bytearray(_slot_bytes(IMAGES[slot[1]]))
                if slot[0] == "corrupt":
                    raw[40] ^= 0x10
            handle.seek((1 + pid) * SLOT_SIZE)
            handle.write(raw)
        if scenario["tail"]:  # a torn write past the last whole slot
            handle.seek(0, os.SEEK_END)
            handle.write(_slot_bytes(IMAGES["dead0"])[:scenario["tail"]])
    _write_log(os.path.join(directory, "wal.rexp"), scenario)


def _run(recover_fn, directory, predicate):
    pf = PageFile.open(os.path.join(directory, "pages.rexp"))
    try:
        report = recover_fn(pf, os.path.join(directory, "wal.rexp"), predicate)
        outcome = dataclasses.astuple(report)
    except Exception as error:  # compared by type with the oracle's
        outcome = type(error)
    pf.close()
    files = {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }
    return outcome, files


def assert_recovers_like_the_oracle(root, scenario):
    """Build the scenario twice; ``recover`` and the oracle leave alike."""
    fast, slow = _predicates(scenario["predicate"])
    _build(os.path.join(root, "fast"), scenario)
    shutil.copytree(os.path.join(root, "fast"), os.path.join(root, "slow"))
    got = _run(recover, os.path.join(root, "fast"), fast)
    want = _run(reference_recover, os.path.join(root, "slow"), slow)
    assert got == want
    return got[0]


def scenario(**fields):
    base = {
        "slots": [], "tail": 0, "header": (0.0, 0), "checkpoint": None,
        "batches": [], "uncommitted": [], "tear": 0, "garbage": b"",
        "predicate": "codec",
    }
    base.update(fields)
    return base


NAMES = st.sampled_from(sorted(IMAGES))
RECORDS = st.one_of(
    st.tuples(st.just("page"), st.integers(0, 7), NAMES),
    st.tuples(st.just("page"), st.integers(0, 3), st.sampled_from(
        ["dead", "dead2", "bomb", "live"]
    )),
    st.tuples(st.just("free"), st.integers(0, 7)),
)
SCENARIOS = st.builds(
    scenario,
    slots=st.lists(st.one_of(
        st.tuples(st.sampled_from(["image", "corrupt"]), NAMES),
        st.sampled_from([("image", "dead"), ("free",), ("unused",)]),
    ), max_size=6),
    tail=st.sampled_from([0, 0, 0, 100, LAYOUT.page_size + 6, SLOT_SIZE - 1]),
    header=st.tuples(st.sampled_from(TIMES), st.integers(0, 9)),
    checkpoint=st.one_of(
        st.none(), st.tuples(st.integers(0, 5), st.sampled_from(TIMES))
    ),
    batches=st.lists(st.tuples(
        st.lists(RECORDS, max_size=6), st.sampled_from(TIMES)
    ), max_size=8),
    uncommitted=st.lists(RECORDS, max_size=3),
    tear=st.sampled_from([0, 0, 1, 5, 17, 300]),
    garbage=st.sampled_from([b"", b"\x01", b"\x03garbage-tail"]),
    predicate=st.sampled_from(["codec", "codec", "bomb", "none"]),
)

EXAMPLES = {
    # TR-82 fires on a run of dead images, stops at a live one, resumes.
    "fires_then_stops": scenario(
        slots=[("image", "dead")],
        batches=[([("page", 0, "dead2"), ("page", 0, "dead")], 2.0),
                 ([("page", 0, "live"), ("page", 0, "dead")], 5.0),
                 ([("page", 0, "dead2")], 50.0)],
    ),
    # A page rewritten many times, with a skip between two writes.
    "rewritten": scenario(
        slots=[("image", "live"), ("image", "dead")],
        batches=[([("page", 0, name), ("page", 1, "dead")], 2.0)
                 for name in ("live", "dead", "mixed", "dead2", "tie")],
    ),
    # FREE then PAGE of the same pid: the free slot is not skippable.
    "free_then_page": scenario(
        slots=[("image", "dead"), ("image", "dead")],
        batches=[([("free", 0)], 2.0), ([("page", 0, "dead")], 2.0),
                 ([("page", 0, "dead2"), ("free", 1)], 5.0)],
    ),
    # Pids past the end of file, before and after a farther write.
    "past_eof": scenario(
        slots=[("image", "dead")], tail=LAYOUT.page_size + 6,
        batches=[([("page", 3, "dead"), ("page", 6, "dead")], 2.0),
                 ([("page", 1, "dead"), ("page", 3, "dead2")], 5.0)],
    ),
    # A slot torn one byte short past the end of file reads back intact
    # once a farther write extends the file over it — not before.
    "torn_slot_before_growth": scenario(
        slots=[("image", "dead")], tail=SLOT_SIZE - 1,
        batches=[([("page", 1, "dead")], 2.0)],
    ),
    "torn_slot_after_growth": scenario(
        slots=[("image", "dead")], tail=SLOT_SIZE - 1,
        batches=[([("page", 2, "live"), ("page", 1, "dead")], 2.0)],
    ),
    # A torn commit and an uncommitted tail are never replayed.
    "torn_and_uncommitted": scenario(
        slots=[("image", "dead")],
        batches=[([("page", 0, "live")], 2.0), ([("page", 0, "dead")], 5.0)],
        uncommitted=[("page", 0, "mixed")], tear=5,
    ),
    # A checkpoint-only log restores op_seq and clock, writes nothing.
    "checkpoint_only": scenario(
        slots=[("image", "dead"), ("free",)], checkpoint=(4, 5.0),
    ),
    # Predicate errors: struct.error, codec rejections, a short image
    # whose padded slot then reads as a dead leaf.
    "predicate_errors": scenario(
        slots=[("image", "bomb"), ("image", "nan"), ("corrupt", "dead")],
        batches=[([("page", 0, "dead"), ("page", 1, "dead"),
                   ("page", 2, "dead"), ("page", 3, "short")], 2.0),
                 ([("page", 0, "bomb"), ("page", 3, "dead"),
                   ("page", 4, "garbage"), ("page", 4, "dead")], 5.0)],
        predicate="bomb",
    ),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_recover_equals_sequential_redo_on_examples(tmp_path, name):
    outcome = assert_recovers_like_the_oracle(str(tmp_path), EXAMPLES[name])
    assert isinstance(outcome, tuple)  # none of these examples raises
    if name in (
        "fires_then_stops", "rewritten", "past_eof", "torn_slot_after_growth"
    ):
        assert outcome[4] > 0  # wal_skipped_expired: TR-82 fired


@given(scenario=SCENARIOS)
@settings(deadline=None)
def test_recover_equals_sequential_redo(tmp_path_factory, scenario):
    assert_recovers_like_the_oracle(str(tmp_path_factory.mktemp("r")), scenario)


def test_recover_equals_sequential_redo_on_a_crashed_tree(tmp_path):
    """A tree whose untouched half expires: TR-82 skips what both leave."""
    clock = SimulationClock()
    directory = tmp_path / "fast" / "tree"
    tree = MovingObjectTree.create_durable(
        str(directory), TreeConfig(page_size=512, buffer_pages=8), clock
    )
    rng = random.Random(5)

    def report(oid, x0):
        return MovingPoint(
            (x0 + rng.uniform(0, 50), rng.uniform(0, 100)),
            (rng.uniform(-1, 1), rng.uniform(-1, 1)),
            clock.time, clock.time + rng.uniform(2.0, 6.0),
        )

    points = {oid: report(oid, 0.0 if oid < 60 else 50.0) for oid in range(120)}
    for oid, point in points.items():
        tree.insert(oid, point)
    for step in range(300):
        clock.advance_to(0.1 * (step + 1))
        oid = 60 + rng.randrange(60)  # only the right half is refreshed
        point = report(oid, 50.0)
        tree.update(oid, points[oid], point)
        points[oid] = point
    tree.disk.abandon()  # crash: the whole history is in the log
    shutil.copytree(tmp_path / "fast", tmp_path / "slow")
    codec = NodeCodec(LAYOUT)
    got = _run(recover, str(directory), _all_expired_predicate(codec))
    want = _run(
        reference_recover, str(tmp_path / "slow" / "tree"),
        decoded_all_expired(codec),
    )
    assert got == want
    assert got[0][4] > 0  # wal_skipped_expired


def test_recover_reads_the_log_once(tmp_path, monkeypatch):
    from repro.storage import wal as wal_module

    assert_recovers_like_the_oracle(
        str(tmp_path), EXAMPLES["fires_then_stops"]
    )  # leaves tmp_path/fast recovered; rebuild a crashed copy
    directory = str(tmp_path / "again")
    _build(directory, EXAMPLES["fires_then_stops"])
    wal_path = os.path.join(directory, "wal.rexp")
    opened = []
    real_open = open

    def spy(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(wal_module, "open", spy, raising=False)
    pf = PageFile.open(os.path.join(directory, "pages.rexp"))
    report = recover(pf, wal_path, _all_expired_predicate(NodeCodec(LAYOUT)))
    pf.close()
    assert report.wal_skipped_expired > 0
    assert opened == [(wal_path, "rb"), (wal_path + ".tmp", "wb")]


# -- hostile bytes for the log scanner ----------------------------------------


def _framed(records):
    """Byte offset of each record of an intact log, and its end."""
    offsets = [0]
    for record in records:
        offsets.append(offsets[-1] + 17 + len(record.payload))
    return offsets


@given(scenario=SCENARIOS, data=st.data())
@settings(deadline=None)
def test_scan_stops_at_the_first_bad_record(tmp_path_factory, scenario, data):
    """Bit flips, cuts, bogus kinds and lengths, LSN gaps: a clean stop.

    The scan returns exactly the intact records before the damaged one
    and raises nothing; ``recover`` over the damaged log still equals
    the oracle.
    """
    scenario = dict(scenario, tear=0, garbage=b"")
    root = str(tmp_path_factory.mktemp("h"))
    _build(os.path.join(root, "fast"), scenario)
    path = os.path.join(root, "fast", "wal.rexp")
    log = open(path, "rb").read()
    records, valid, torn = scan_wal_bytes(log)
    assert (valid, torn) == (len(log), 0)
    offsets = _framed(records)
    assume(records)
    j = data.draw(st.integers(0, len(records) - 1), label="record")
    start, end = offsets[j], offsets[j + 1]
    damage = data.draw(st.sampled_from(
        ["flip", "cut", "kind", "length", "lsn"]
    ), label="damage")
    bad = bytearray(log)
    if damage == "flip":
        bit = data.draw(st.integers(0, 8 * (end - start) - 1), label="bit")
        bad[start + bit // 8] ^= 1 << (bit % 8)
    elif damage == "cut":
        bad = bad[:data.draw(st.integers(start, end - 1), label="cut")]
    elif damage == "length":
        length = data.draw(st.integers(0, 2 ** 32 - 1).filter(
            lambda n: n != end - start - 17
        ), label="length")
        struct.pack_into("<I", bad, start + 9, length)
    else:
        kind, lsn, length = struct.unpack_from("<BQI", bad, start)
        if damage == "kind":
            kind = data.draw(st.integers(0, 255).filter(
                lambda k: k not in (1, 2, 3, 4)
            ), label="kind")
        else:
            assume(j > 0)
            lsn = data.draw(st.integers(0, 2 ** 64 - 1).filter(
                lambda n: n != lsn
            ), label="lsn")
        struct.pack_into("<BQ", bad, start, kind, lsn)
        struct.pack_into("<I", bad, end - 4, zlib.crc32(bad[start:end - 4]))
    got = scan_wal_bytes(bytes(bad))
    assert got == (records[:j], start, len(bad) - start)
    with open(path, "wb") as handle:
        handle.write(bad)
    shutil.copytree(os.path.join(root, "fast"), os.path.join(root, "slow"))
    fast, slow = _predicates(scenario["predicate"])
    assert _run(recover, os.path.join(root, "fast"), fast) == _run(
        reference_recover, os.path.join(root, "slow"), slow
    )


@given(data=st.binary(max_size=600))
def test_scan_of_arbitrary_bytes_raises_nothing(data):
    records, valid, torn = scan_wal_bytes(data)
    assert valid + torn == len(data)
    assert _framed(records)[-1] == valid
    assert [r.lsn for r in records[1:]] == [
        r.lsn + 1 for r in records[:-1]
    ]
