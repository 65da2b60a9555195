"""The page decoder against hostile bytes.

``NodeCodec.decode`` reads whatever a crash, a bad disk or an attacker
left in a page slot.  Whatever the bytes, it either returns a node or
raises :class:`CodecError` / :class:`ValueError` — never another
exception type, never a numpy warning (the tests promote warnings to
errors), never a hang — and it makes the *same* accept/reject decision
and, when accepting, yields bitwise the same entries as the per-entry
``struct`` decoder in :mod:`tests.storage.reference_codec`.
"""

import math
import random
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR
from repro.rstar.node import Node
from repro.storage.layout import NODE_HEADER_BYTES, EntryLayout
from repro.storage.pagefile import FilePageStore, _all_expired_predicate
from repro.storage.serial import _INVERSION_REL_TOL, CodecError, NodeCodec
from repro.storage.wal import _skippable

from .reference_codec import ReferenceCodec, entry_bits
from .reference_recovery import decoded_all_expired

LAYOUTS = {
    "rexp": EntryLayout(page_size=512),
    "static": EntryLayout(
        page_size=512, store_velocities=False, store_br_expiration=False
    ),
    "tpr": EntryLayout(page_size=512, store_leaf_expiration=False),
    "3d": EntryLayout(page_size=1024, dims=3),
}


def _valid_pages(layout, seed):
    """One encoded leaf and one encoded internal node, each nearly full."""
    rng = random.Random(seed)
    d = layout.dims

    def vector(lo, hi):
        return tuple(rng.uniform(lo, hi) for _ in range(d))

    points = [
        (MovingPoint(vector(0, 1000), vector(-3, 3), 5.0,
                     5.0 + rng.uniform(0, 100)), rng.randrange(2 ** 32))
        for _ in range(layout.leaf_capacity - 1)
    ]
    rects = []
    for _ in range(layout.internal_capacity - 1):
        lo, vlo = vector(0, 1000), vector(-3, 0)
        rects.append((
            TPBR(lo, tuple(x + rng.uniform(0, 50) for x in lo),
                 vlo, tuple(v + rng.uniform(0, 3) for v in vlo),
                 5.0, 5.0 + rng.uniform(0, 100)),
            rng.randrange(2 ** 32),
        ))
    codec = NodeCodec(layout)
    return codec.encode(Node(0, points), 7.5), codec.encode(Node(2, rects), 7.5)


PAGES = {
    name: _valid_pages(layout, seed)
    for seed, (name, layout) in enumerate(sorted(LAYOUTS.items()))
}

hostile_floats = st.sampled_from([
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
    3.4028234663852886e38, -3.4028234663852886e38, 1e-45, 7.5,
])


def outcome(decode, page):
    """``("ok", level, t_ref bits, entry bits)`` or ``("reject", is-codec)``.

    Any exception other than ``ValueError`` (``CodecError`` is one)
    propagates and fails the test, as does any warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entries, level, t_ref = decode(page)
        except ValueError as error:
            return ("reject", isinstance(error, CodecError))
    return ("ok", level, struct.pack("<d", t_ref), entry_bits(entries))


def fast_decode(layout):
    codec = NodeCodec(layout)

    def decode(page):
        node, t_ref = codec.decode(page)
        return node.entries, node.level, t_ref

    return decode


def assert_same_outcome(layout, page):
    page = bytes(page)
    got = outcome(fast_decode(layout), page)
    want = outcome(ReferenceCodec(layout).decode, page)
    assert got == want
    # The TR-82 skip test never claims an undecodable page is dead.
    predicate = _all_expired_predicate(NodeCodec(layout))
    if got[0] == "reject":
        with pytest.raises(ValueError):
            predicate(page, math.inf)
        assert _skippable(None, 0, page, math.inf, predicate) is False
    else:
        leaf_entries = [e for e in want[3] if e[0] is MovingPoint]
        expired = predicate(page, math.inf)
        assert isinstance(expired, bool)
        if not leaf_entries:
            assert expired is False  # internal or empty: never skipped
    return got


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_valid_pages_decode_alike(name):
    for page in PAGES[name]:
        assert assert_same_outcome(LAYOUTS[name], page)[0] == "ok"


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_truncated_or_padded_pages_are_rejected(name, data):
    page = PAGES[name][data.draw(st.integers(0, 1))]
    size = data.draw(
        st.integers(0, len(page) + 64).filter(lambda n: n != len(page))
    )
    mangled = (page + bytes(64))[:size]
    assert assert_same_outcome(LAYOUTS[name], mangled) == ("reject", True)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_bit_flips_never_escape_the_contract(name, data):
    page = bytearray(PAGES[name][data.draw(st.integers(0, 1))])
    # Flips concentrate where they matter: the header and the first
    # entries; the tail of the page is mostly padding.
    positions = st.one_of(
        st.integers(0, NODE_HEADER_BYTES + 96), st.integers(0, len(page) - 1)
    )
    for offset in data.draw(st.lists(positions, min_size=1, max_size=8)):
        page[offset] ^= 1 << data.draw(st.integers(0, 7))
    assert_same_outcome(LAYOUTS[name], page)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_overwritten_fields_never_escape_the_contract(name, data):
    layout = LAYOUTS[name]
    is_leaf = data.draw(st.booleans())
    page = bytearray(PAGES[name][0 if is_leaf else 1])
    level, count, flags, t_ref = struct.unpack_from("<HHHxxd", page, 0)
    capacity = layout.capacity(leaf=is_leaf)
    # The header: level, count (around the capacity), leaf flag, t_ref.
    level = data.draw(st.sampled_from([level, 0, 1, 2, 65535]))
    count = data.draw(
        st.sampled_from([count, 0, 1, capacity, capacity + 1, 65535])
    )
    flags = data.draw(st.sampled_from([flags, 0, 1, 2, 3, 0xFFFF]))
    t_ref = data.draw(st.one_of(st.just(t_ref), hostile_floats))
    struct.pack_into("<HHHxxd", page, 0, level, count, flags, t_ref)
    # Any binary32 field of any entry: time fields included.
    entry_bytes = (
        layout.leaf_entry_bytes if is_leaf else layout.internal_entry_bytes
    )
    fields = (entry_bytes - 4) // 4
    for _ in range(data.draw(st.integers(0, 4))):
        entry = data.draw(st.integers(0, capacity - 1))
        field = data.draw(st.integers(0, fields - 1))
        value = data.draw(
            st.one_of(hostile_floats, st.floats(width=32, allow_nan=False))
        )
        struct.pack_into(
            "<f", page, NODE_HEADER_BYTES + entry * entry_bytes + 4 * field,
            value,
        )
    assert_same_outcome(layout, page)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_inversions_at_the_edge_of_the_tolerance(name, data):
    """Upper bounds a few binary32 ulps either side of the repair limit."""
    layout = LAYOUTS[name]
    d = layout.dims
    page = bytearray(PAGES[name][1])
    entry = data.draw(st.integers(0, layout.internal_capacity - 2))
    dim = data.draw(st.integers(0, d - 1))
    base = NODE_HEADER_BYTES + entry * layout.internal_entry_bytes
    (lo,) = struct.unpack_from("<f", page, base + 4 * dim)
    lo = data.draw(st.sampled_from([lo, 1.0, 1e-30, 0.0, -lo]))
    struct.pack_into("<f", page, base + 4 * dim, lo)
    (lo,) = struct.unpack_from("<f", page, base + 4 * dim)  # as stored
    limit = lo - max(_INVERSION_REL_TOL * abs(lo), 1e-37)
    (bits,) = struct.unpack("<I", struct.pack("<f", limit))
    steps = data.draw(st.integers(-3, 3))
    (hi,) = struct.unpack("<f", struct.pack("<I", max(bits + steps, 0)))
    struct.pack_into("<f", page, base + 4 * (d + dim), hi)
    got = assert_same_outcome(layout, page)
    if hi >= lo:
        assert got[0] == "ok"


def test_inversion_inside_the_tolerance_is_repaired_outside_rejected():
    layout = LAYOUTS["rexp"]
    codec = NodeCodec(layout)
    br = TPBR((1.0, 20.0), (1.0, 40.0), (0.0, 0.0), (0.0, 0.0), 0.0, 50.0)
    page = bytearray(codec.encode(Node(1, [(br, 7)]), 0.0))
    inside = struct.unpack("<f", struct.pack("<I", 0x3F7FFFFF))[0]  # 1 - ulp
    outside = struct.unpack("<f", struct.pack("<I", 0x3F7FFFF0))[0]
    struct.pack_into("<f", page, NODE_HEADER_BYTES + 8, inside)
    assert assert_same_outcome(layout, page)[0] == "ok"
    node, _ = codec.decode(bytes(page))
    assert node.entries[0][0].hi[0] == 1.0 and codec.repairs == 1
    struct.pack_into("<f", page, NODE_HEADER_BYTES + 8, outside)
    assert assert_same_outcome(layout, page) == ("reject", True)


# -- recovery: the report is what it was ----------------------------------------


def _leaf(rng, t_ref, lifetimes, first_oid):
    return Node(0, [
        (MovingPoint((rng.uniform(0, 100), rng.uniform(0, 100)),
                     (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     t_ref, t_ref + life), first_oid + i)
        for i, life in enumerate(lifetimes)
    ])


def test_recovery_report_on_an_all_expired_leaf_over_an_all_expired_slot(
    tmp_path,
):
    """TR-82's skip, counted exactly: what is skipped and what is replayed.

    Three leaves are logged; at recovery time (t = 50) leaf A is dead in
    the log *and* in its slot (skipped), leaf B is dead but for one
    entry (replayed) and leaf C is alive (replayed) — the counts below
    are what recovery reported before the decoder moved to arrays.
    """
    layout = EntryLayout(page_size=512)
    rng = random.Random(4)
    clock = SimulationClock()
    directory = str(tmp_path / "store")
    store = FilePageStore.create(directory, layout, clock.now)
    a, b, c = store.allocate(), store.allocate(), store.allocate()
    store.write(a, _leaf(rng, 0.0, [3.0] * 12 + [10.0] * 7, 0))
    store.write(b, _leaf(rng, 0.0, [5.0] * 18 + [60.0], 100))
    store.set_root(a)
    store.commit()  # at clock 0
    clock.advance_to(50.0)
    store.write(c, _leaf(rng, 50.0, [40.0] * 5, 200))
    store.commit()  # at clock 50: the recovery time
    store.abandon()  # crash, no checkpoint

    recovered = FilePageStore.open_dir(directory, layout, SimulationClock().now)
    report = recovered.recovery
    assert report.commits_applied == 2
    assert report.wal_skipped_expired == 1
    assert report.skipped_pids == (a,)
    assert report.pages_replayed == 2
    assert [len(recovered.peek(pid)) for pid in (a, b, c)] == [19, 19, 5]
    recovered.abandon()


# -- TR-82's header-only predicate equals the decode-based one ------------------


def verdict(make_predicate, layout, page, now):
    """``("ok", bool, repairs)`` or ``("reject", is-codec, repairs)``."""
    codec = NodeCodec(layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = ("ok", make_predicate(codec)(page, now))
        except ValueError as error:
            result = ("reject", isinstance(error, CodecError))
    return result + (codec.repairs,)


def assert_same_verdict(layout, page, now):
    got = verdict(_all_expired_predicate, layout, bytes(page), now)
    assert got == verdict(decoded_all_expired, layout, bytes(page), now)
    assert got[0] == "reject" or isinstance(got[1], bool)


def leaf_page(layout, t_ref, t_exps, seed):
    """A leaf page written field by field: any ``t_ref``, any stored ``t_exp``."""
    rng = random.Random(seed)
    d = layout.dims
    body = b""
    for t_exp in t_exps:
        fields = [rng.uniform(-1e3, 1e3) for _ in range(2 * d)]
        if layout.store_leaf_expiration:
            fields.append(t_exp)
        body += struct.pack(f"<{len(fields)}fI", *fields, rng.randrange(2 ** 32))
    page = struct.pack("<HHHxxd", 0, len(t_exps), 1, t_ref) + body
    return page.ljust(layout.page_size, b"\0")


times32 = st.one_of(
    hostile_floats, st.sampled_from([1e-40, -1e-40, 1.0, 2.0]),
    st.floats(width=32),
)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_expired_leaf_equals_decoding_on_leaf_times(name, data):
    """±inf, NaN and subnormal ``t_exp``, ties with ``t_ref`` and ``now``."""
    layout = LAYOUTS[name]
    t_exps = data.draw(st.lists(times32, max_size=layout.leaf_capacity))
    widened = [float(struct.unpack("<f", struct.pack("<f", t))[0])
               for t in t_exps]
    t_ref = data.draw(st.one_of(
        hostile_floats, st.floats(), st.sampled_from(widened or [0.0])
    ))
    now = data.draw(st.one_of(
        hostile_floats, st.floats(), st.sampled_from(widened + [t_ref]),
    ))
    page = leaf_page(layout, t_ref, t_exps, data.draw(st.integers(0, 99)))
    assert_same_verdict(layout, page, now)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@given(data=st.data())
@settings(deadline=None)
def test_expired_leaf_equals_decoding_on_damaged_pages(name, data):
    """Random leaves and internal pages, bit-flipped, at any ``now``."""
    layout = LAYOUTS[name]
    page = bytearray(PAGES[name][data.draw(st.integers(0, 1))])
    positions = st.one_of(
        st.integers(0, NODE_HEADER_BYTES + 96), st.integers(0, len(page) - 1)
    )
    for offset in data.draw(st.lists(positions, max_size=6)):
        page[offset] ^= 1 << data.draw(st.integers(0, 7))
    now = data.draw(st.one_of(hostile_floats, st.floats(0.0, 200.0)))
    assert_same_verdict(layout, page, now)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_expired_leaf_equals_decoding_on_edge_pages(name):
    layout = LAYOUTS[name]
    codec = NodeCodec(layout)
    pages = [
        codec.encode(Node(0), 3.0),  # an empty leaf
        leaf_page(layout, math.nan, [], 0),  # empty, NaN t_ref: no raise
        leaf_page(layout, math.nan, [1.0], 0),
        leaf_page(layout, 5.0, [5.0, 4.0], 0),  # t_exp == t_ref, below it
        leaf_page(layout, 5.0, [4.0, 1.0], 0),  # all below t_ref
        leaf_page(layout, 5.0, [math.inf, 1e-45], 0),
        leaf_page(layout, -math.inf, [-math.inf], 0),
        *PAGES[name],
    ]
    for page in pages:
        for now in (
            -math.inf, 0.0, 4.0, 4.5, 5.0, 5.5, 100.0, math.inf, math.nan
        ):
            assert_same_verdict(layout, page, now)
