"""Sequential WAL redo: the oracle :func:`repro.storage.wal.recover` must equal.

``recover`` simulates the redo in memory and writes each touched slot's
final image once.  This module keeps the straightforward pass it
replaced: it applies every committed PAGE/FREE record to the page file
in log order, testing TR-82's skip against the slot as it stands on disk
at that moment, then rebuilds the free chain and header and resets the
log through a reopened :class:`~repro.storage.wal.WriteAheadLog`.  The
page file, the log and the :class:`~repro.storage.wal.RecoveryReport`
it leaves are what ``recover`` must leave, byte for byte and field for
field.

:func:`decoded_all_expired` is the TR-82 predicate as it was defined
before it read only the header and expiration column: decode the page
in full, then test every decoded ``t_exp``.
"""

from __future__ import annotations

import struct

from repro.storage.pagefile import SLOT_ALLOCATED
from repro.storage.wal import (
    FREE_RECORD,
    RecoveryReport,
    WriteAheadLog,
    batches_of,
    scan_wal,
)


def decoded_all_expired(codec):
    """The decode-based TR-82 predicate ``(page_bytes, now) -> bool``."""
    def check(page_bytes, now):
        node, _t_ref = codec.decode(page_bytes)
        if not node.is_leaf or not len(node):
            return False
        return bool((node.regions().t_exp < now).all())

    return check


def reference_recover(page_file, wal_path, all_expired=None):
    """Redo the committed prefix of ``wal_path`` onto ``page_file``."""
    records, _valid, torn = scan_wal(wal_path)
    report = RecoveryReport(records_scanned=len(records), torn_bytes=torn)
    checkpoint, batches = batches_of(records)
    report.checkpoint_seen = checkpoint is not None
    last = batches[-1] if batches else checkpoint
    if last is not None:
        report.op_seq, report.clock_time = last.op_seq, last.clock_time
    else:
        report.clock_time = page_file.read_header().clock_time
    now = report.clock_time

    skipped = set()
    for batch in batches:
        report.commits_applied += 1
        for record in batch.records:
            if record.kind == FREE_RECORD:
                page_file.mark_free(record.page_id, -1)
                skipped.discard(record.page_id)
                report.frees_replayed += 1
                continue
            data = record.page_bytes
            if all_expired is not None and _skippable(
                page_file, record.page_id, data, now, all_expired
            ):
                report.wal_skipped_expired += 1
                skipped.add(record.page_id)
                continue
            page_file.write_page(record.page_id, data)
            skipped.discard(record.page_id)
            report.pages_replayed += 1
    report.skipped_pids = tuple(sorted(skipped))

    header = page_file.read_header()
    header.clock_time = now
    header.next_id = max(header.next_id, page_file.slot_count)
    page_file.rebuild_free_chain(header)
    page_file.write_header(header)
    page_file.sync()

    log = WriteAheadLog(wal_path)
    log.reset(report.op_seq, now)
    log.close()
    return report


def _skippable(page_file, pid, data, now, all_expired):
    """TR-82's rule against the slot as it stands on disk right now."""
    try:
        if not all_expired(data, now):
            return False
    except (OSError, ValueError, struct.error):
        return False
    if pid >= page_file.slot_count:
        return False
    slot = page_file.read_slot(pid)
    if slot.state != SLOT_ALLOCATED or not slot.crc_ok:
        return False
    try:
        return bool(all_expired(slot.payload, now))
    except (OSError, ValueError, struct.error):
        return False
