"""Regression tests for the PR-7 serialization-correctness sweep.

Four bugs, each with a test that failed before its fix:

1. ``NodeCodec.decode`` silently "repaired" *any* inverted internal
   bound via ``max(l, h)`` — a bit-flipped page shrank answer sets
   instead of surfacing.  Now only inversions within binary32 rounding
   tolerance are repaired (and counted); larger ones raise
   :class:`CodecError`.
2. Binary32 narrowing of ``t_exp`` could round *down*, so a live
   object could be treated as expired after WAL recovery.  Expirations
   now round toward +inf.
3. The page codec packs oids as u32 while the shard wire format uses
   i64; out-of-range oids used to die as a ``struct.error`` deep in a
   commit.  Trees now validate at insert time against
   ``EntryLayout.max_oid``.
4. The old ``_widen`` helper was a no-op (binary32→binary64 conversion
   is exact); it is gone, and a property test pins the exact-widening
   contract it pretended to provide.
"""

import math
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.core.presets import rexp_config
from repro.core.tree import MovingObjectTree
from repro.geometry.intersection import (
    region_intersects_tpbr,
    region_matches_point,
)
from repro.geometry.kernels import multi_query_hits, pack_queries
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.geometry.tpbr import TPBR
from repro.obs import MetricsRegistry
from repro.rstar.node import Node
from repro.storage import serial
from repro.storage.layout import NODE_HEADER_BYTES, EntryLayout
from repro.storage.serial import CodecError, NodeCodec

from .reference_codec import F32_MAX, ReferenceCodec, f32_round_up

CONFIG_KW = dict(page_size=1024, buffer_pages=8, default_ui=10.0)

#: A value binary32 rounds *down* (float32(100.1) == 100.09999847...).
DOWN_ROUNDER = 100.1


def internal_codec():
    return NodeCodec(EntryLayout(page_size=1024, store_br_expiration=True))


def internal_page(codec, lo=(10.0, 20.0), hi=(30.0, 40.0)):
    br = TPBR(lo, hi, (-1.0, -1.0), (1.0, 1.0), 0.0, 50.0)
    return bytearray(codec.encode(Node(1, [(br, 7)]), t_ref=0.0))


def patch_hi0(page, value):
    """Overwrite the entry's first upper-bound field in place."""
    dims = 2
    struct.pack_into("<f", page, NODE_HEADER_BYTES + dims * 4, value)


# -- bugfix 1: corrupt inversions raise, rounding-level ones repair -----------


def test_bitflip_inversion_raises_codec_error():
    codec = internal_codec()
    page = internal_page(codec)
    # Flip the sign bit of hi[0]: 30.0 becomes -30.0, far below lo[0].
    offset = NODE_HEADER_BYTES + 2 * 4 + 3
    page[offset] ^= 0x80
    with pytest.raises(CodecError, match="corrupt internal entry"):
        codec.decode(bytes(page))
    assert codec.repairs == 0


def test_bitflip_inversion_raises_on_struct_path():
    codec = internal_codec()
    page = internal_page(codec)
    patch_hi0(page, -1000.0)
    fallback = ReferenceCodec(codec.layout)
    with pytest.raises(CodecError, match="corrupt internal entry"):
        fallback.decode(bytes(page))


def test_rounding_level_inversion_is_repaired_and_counted():
    codec = internal_codec()
    registry = MetricsRegistry()
    codec.bind_repair_counter(registry.counter("codec.bound_repairs"))
    page = internal_page(codec, lo=(1.0, 20.0), hi=(1.0, 40.0))
    # One binary32 ulp below 1.0: within the rounding tolerance.
    below = struct.unpack("<f", struct.pack("<I", 0x3F7FFFFF))[0]
    assert 0.0 < 1.0 - below < 2.0 ** -22
    patch_hi0(page, below)
    node, _ = codec.decode(bytes(page))
    br, _ = node.entries[0]
    assert br.lo[0] == br.hi[0] == 1.0
    assert codec.repairs == 1
    assert registry.counter("codec.bound_repairs").value == 1


def test_rounding_level_inversion_repairs_on_struct_path():
    codec = internal_codec()
    page = internal_page(codec, lo=(1.0, 20.0), hi=(1.0, 40.0))
    below = struct.unpack("<f", struct.pack("<I", 0x3F7FFFFF))[0]
    patch_hi0(page, below)
    fallback = ReferenceCodec(codec.layout)
    node, _ = fallback.decode_node(bytes(page))
    assert node.entries[0][0].hi[0] == 1.0
    assert fallback.repairs == 1


# -- bugfix 2: expirations round toward +inf ----------------------------------


def test_down_rounding_expiration_round_trips_at_or_above():
    codec = NodeCodec(EntryLayout(page_size=1024))
    point = MovingPoint((1.0, 2.0), (0.0, 0.0), 0.0, DOWN_ROUNDER)
    node, _ = codec.decode(codec.encode(Node(0, [(point, 1)]), t_ref=0.0))
    assert node.entries[0][0].t_exp >= DOWN_ROUNDER


def test_live_object_survives_recovery_despite_down_rounding(tmp_path):
    """The user-visible symptom: a live object vanished after reopen."""
    nearest = struct.unpack("<f", struct.pack("<f", DOWN_ROUNDER))[0]
    assert nearest < DOWN_ROUNDER  # the premise: binary32 rounds down
    probe_t = (nearest + DOWN_ROUNDER) / 2.0  # past the old bound, live
    directory = str(tmp_path / "store")
    config = rexp_config(**CONFIG_KW)
    tree = MovingObjectTree.create_durable(
        directory, config, SimulationClock()
    )
    tree.insert(5, MovingPoint((50.0, 50.0), (0.0, 0.0), 0.0, DOWN_ROUNDER))
    tree.close()
    reopened = MovingObjectTree.open_from(
        directory, config, SimulationClock()
    )
    try:
        query = TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), probe_t)
        assert reopened.query(query) == [5]
    finally:
        reopened.close()


def test_round_up_never_under_covers_scalar_helper():
    for value in (DOWN_ROUNDER, 0.1, 1e30, -3.7, 5e-40, -0.0, 0.0, 2.5):
        widened = f32_round_up(value)
        assert widened >= value
        # Exactly representable in binary32 (pack/unpack is identity).
        assert struct.unpack("<f", struct.pack("<f", widened))[0] == widened
    assert f32_round_up(math.inf) == math.inf
    assert f32_round_up(1e39) == math.inf  # beyond binary32 range


# -- bugfix 3: oid range validated at insert time -----------------------------


def test_max_oid_matches_u32_page_field():
    assert EntryLayout(page_size=1024).max_oid == 2 ** 32 - 1


def test_boundary_oid_persists_and_recovers(tmp_path):
    directory = str(tmp_path / "store")
    config = rexp_config(**CONFIG_KW)
    tree = MovingObjectTree.create_durable(
        directory, config, SimulationClock()
    )
    boundary = 2 ** 32 - 1
    tree.insert(boundary, MovingPoint((1.0, 1.0), (0.0, 0.0), 0.0, 50.0))
    tree.checkpoint()
    tree.close()
    reopened = MovingObjectTree.open_from(
        directory, config, SimulationClock()
    )
    try:
        query = TimesliceQuery(Rect((0.0, 0.0), (10.0, 10.0)), 1.0)
        assert reopened.query(query) == [boundary]
    finally:
        reopened.close()


@pytest.mark.parametrize("oid", [2 ** 32, -1])
def test_out_of_range_oid_fails_fast_with_clear_error(oid):
    tree = MovingObjectTree(rexp_config(**CONFIG_KW), SimulationClock())
    point = MovingPoint((1.0, 1.0), (0.0, 0.0), 0.0, 50.0)
    with pytest.raises(ValueError, match="32-bit"):
        tree.insert(oid, point)
    with pytest.raises(ValueError, match="32-bit"):
        tree.bulk_load([(point, oid)])


# -- bugfix 4: exact widening, no-op helper removed ---------------------------


def test_widen_helper_is_gone():
    assert not hasattr(serial, "_widen")


@given(
    t_exp=st.one_of(
        st.floats(min_value=0.0, allow_nan=False),
        st.sampled_from([5e-324, 1.5e-45, 0.0, -0.0, math.inf, DOWN_ROUNDER]),
    )
)
def test_expiration_round_trip_widens_exactly(t_exp):
    codec = NodeCodec(EntryLayout(page_size=1024))
    point = MovingPoint((1.0, 2.0), (0.0, 0.0), -0.0 if t_exp == 0 else 0.0,
                        t_exp if t_exp >= 0.0 else 0.0)
    node, _ = codec.decode(codec.encode(Node(0, [(point, 3)]), t_ref=0.0))
    decoded = node.entries[0][0].t_exp
    # Never under-covers the true expiration...
    assert decoded >= point.t_exp
    # ...and the binary32→binary64 widening is exact: the decoded value
    # is itself representable in binary32 (no double rounding).
    if math.isfinite(decoded):
        assert struct.unpack("<f", struct.pack("<f", decoded))[0] == decoded
    # At most one binary32 ulp of over-coverage.
    if math.isfinite(point.t_exp) and point.t_exp <= F32_MAX:
        down = struct.unpack("<f", struct.pack("<f", point.t_exp))[0]
        if down >= point.t_exp:
            assert decoded == max(down, 0.0)


# -- zero-copy decode vs struct loop over a real persisted tree ---------------


def _build_real_tree(entries=500, seed=0):
    clock = SimulationClock()
    config = rexp_config(**CONFIG_KW)
    tree = MovingObjectTree(config, clock)
    rng = random.Random(seed)
    t = 0.0
    for oid in range(entries):
        t += 0.02
        clock.advance_to(t)
        tree.insert(oid, MovingPoint(
            (rng.uniform(0, 100), rng.uniform(0, 100)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            t, t + rng.uniform(1, 50),
        ))
    return tree, clock


def test_zero_copy_decode_matches_struct_loop():
    tree, clock = _build_real_tree()
    config = rexp_config(**CONFIG_KW)
    fast = NodeCodec(config.layout())
    slow = ReferenceCodec(config.layout())
    pages = 0
    for pid in tree.disk.page_ids():
        node = tree.disk.peek(pid)
        page = fast.encode(node, t_ref=clock.time)
        assert page == slow.encode(node, t_ref=clock.time)
        got, got_ref = fast.decode(page)
        want, want_level, want_ref = slow.decode(page)
        assert got_ref == want_ref
        assert got.level == want_level
        assert list(got.entries) == want  # frozen dataclasses: bitwise
        pages += 1
    assert pages > 1  # a real multi-page tree, not a single root


def test_decoded_page_is_servable_by_the_kernels():
    """Decode leaves the query form in the block: no re-packing, no cache."""
    tree, clock = _build_real_tree()
    config = rexp_config(**CONFIG_KW)
    codec = NodeCodec(config.layout())
    region = TimesliceQuery(
        Rect((20.0, 20.0), (80.0, 80.0)), clock.time + 1.0
    ).region()
    queries = pack_queries((region,))
    hits = 0
    for pid in tree.disk.page_ids():
        node = tree.disk.peek(pid)
        decoded, _ = codec.decode(codec.encode(node, t_ref=clock.time))
        scalar = (
            region_matches_point if decoded.is_leaf else region_intersects_tpbr
        )
        want = [scalar(region, item) for item, _ in decoded.entries]
        got = multi_query_hits(queries, decoded.regions())[0].tolist()
        assert got == want
        hits += sum(got)
    assert hits > 0
