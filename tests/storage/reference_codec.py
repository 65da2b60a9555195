"""The per-entry ``struct`` page codec: the tests' bit-identity oracle.

``repro.storage.serial.NodeCodec`` moves whole pages as arrays.  This
is the codec one would write from the layout description without
thinking about speed — one ``struct.pack`` / ``unpack_from`` per entry,
one region object per entry — and it was the production fallback while
numpy was optional.  The property tests require the array codec to
produce the same bytes, make the same accept/reject decision on every
page image, and decode to bitwise the same entries.
"""

import math
import struct

from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR
from repro.rstar.node import Node
from repro.storage.layout import NODE_HEADER_BYTES
from repro.storage.serial import (
    _HEADER,
    _INVERSION_ABS_TOL,
    _INVERSION_REL_TOL,
    _LEAF_FLAG,
    CodecError,
)

#: Largest finite binary32 value.
F32_MAX = float.fromhex("0x1.fffffep+127")


def f32_round_up(value):
    """Round ``value`` to the nearest binary32 at or above it.

    Used for expiration times so the stored bound never under-covers
    the true one.  Values beyond the finite binary32 range round to
    the enclosing representable value (``+inf`` above, ``-FLT_MAX``
    below); infinities pass through.
    """
    if value > F32_MAX:
        return math.inf if value != math.inf else value
    if value < -F32_MAX:
        return -F32_MAX if value != -math.inf else value
    (widened,) = struct.unpack("<f", struct.pack("<f", value))
    if widened >= value:
        return widened
    # Rounded down: step one binary32 ulp toward +inf via the bit
    # pattern (math.nextafter works in binary64 and would not land on
    # the next *binary32*).
    (bits,) = struct.unpack("<I", struct.pack("<f", widened))
    bits = bits - 1 if bits & 0x80000000 else bits + 1
    (result,) = struct.unpack("<f", struct.pack("<I", bits))
    return result


def entry_bits(entries):
    """Every field of every ``(region, id)`` entry as raw bytes.

    ``==`` cannot tell ``0.0`` from ``-0.0``; ``struct.pack`` can.  The
    fields must be Python floats and the id a Python int — nothing
    numpy-typed may leak out of a node's views.
    """
    out = []
    for region, value in entries:
        if isinstance(region, MovingPoint):
            fields = (*region.pos, *region.vel, region.t_ref, region.t_exp)
        else:
            fields = (*region.lo, *region.hi, *region.vlo, *region.vhi,
                      region.t_ref, region.t_exp)
        assert all(type(f) is float for f in fields)
        assert type(value) is int
        out.append(
            (type(region), struct.pack(f"<{len(fields)}dq", *fields, value))
        )
    return out


def inversion_tolerance(lo, hi):
    """Largest ``lo - hi`` excursion attributable to binary32 rounding."""
    scale = max(abs(lo), abs(hi))
    return max(_INVERSION_REL_TOL * scale, _INVERSION_ABS_TOL)


class ReferenceCodec:
    """Entry-at-a-time twin of :class:`repro.storage.serial.NodeCodec`."""

    def __init__(self, layout):
        self.layout = layout
        d = layout.dims
        leaf_fields = 2 * d + (1 if layout.store_leaf_expiration else 0)
        internal_fields = 2 * d
        if layout.store_velocities:
            internal_fields += 2 * d
        if layout.store_br_expiration:
            internal_fields += 1
        self._leaf_struct = struct.Struct(f"<{leaf_fields}fI")
        self._internal_struct = struct.Struct(f"<{internal_fields}fI")
        assert self._leaf_struct.size == layout.leaf_entry_bytes
        assert self._internal_struct.size == layout.internal_entry_bytes
        self.repairs = 0

    # -- encoding -------------------------------------------------------------

    def encode(self, node, t_ref):
        entries = node.entries
        capacity = self.layout.capacity(leaf=node.is_leaf)
        if len(entries) > capacity:
            raise CodecError(
                f"{len(entries)} entries exceed capacity {capacity}"
            )
        flags = _LEAF_FLAG if node.is_leaf else 0
        parts = [_HEADER.pack(node.level, len(entries), flags, t_ref)]
        for region, ident in entries:
            if node.is_leaf:
                parts.append(self._encode_leaf_entry(region, ident, t_ref))
            else:
                parts.append(self._encode_internal_entry(region, ident, t_ref))
        return b"".join(parts).ljust(self.layout.page_size, b"\0")

    def _encode_leaf_entry(self, point, oid, t_ref):
        values = list(point.position_at(t_ref))
        values.extend(point.vel)
        if self.layout.store_leaf_expiration:
            values.append(f32_round_up(point.t_exp))
        return self._leaf_struct.pack(*values, oid)

    def _encode_internal_entry(self, br, child, t_ref):
        d = self.layout.dims
        values = [br.lower_at(i, t_ref) for i in range(d)]
        values += [br.upper_at(i, t_ref) for i in range(d)]
        if self.layout.store_velocities:
            values += list(br.vlo) + list(br.vhi)
        if self.layout.store_br_expiration:
            values.append(f32_round_up(br.t_exp))
        return self._internal_struct.pack(*values, child)

    # -- decoding -------------------------------------------------------------

    def decode(self, page):
        """``(entries, level, t_ref)`` of a page image, or raise.

        The entries come back as the list of ``(region, id)`` tuples the
        per-entry decoder builds, *not* wrapped in a ``Node`` — they are
        what a ``Node`` decoded by the array codec must materialise.
        """
        if len(page) != self.layout.page_size:
            raise CodecError(
                f"page is {len(page)} bytes, expected {self.layout.page_size}"
            )
        level, count, flags, t_ref = _HEADER.unpack_from(page, 0)
        is_leaf = bool(flags & _LEAF_FLAG)
        if is_leaf != (level == 0):
            raise CodecError("leaf flag inconsistent with level")
        if count > self.layout.capacity(leaf=is_leaf):
            raise CodecError(
                f"entry count {count} exceeds page capacity "
                f"{self.layout.capacity(leaf=is_leaf)}"
            )
        entries = []
        offset = NODE_HEADER_BYTES
        d = self.layout.dims
        for _ in range(count):
            if is_leaf:
                fields = self._leaf_struct.unpack_from(page, offset)
                offset += self._leaf_struct.size
                pos = tuple(fields[:d])
                vel = tuple(fields[d:2 * d])
                if self.layout.store_leaf_expiration:
                    t_exp = fields[2 * d]
                else:
                    t_exp = math.inf
                entries.append(
                    (MovingPoint(pos, vel, t_ref, max(t_exp, t_ref)),
                     fields[-1])
                )
            else:
                fields = self._internal_struct.unpack_from(page, offset)
                offset += self._internal_struct.size
                lo = tuple(fields[:d])
                hi = self._checked_upper(lo, fields[d:2 * d])
                cursor = 2 * d
                if self.layout.store_velocities:
                    vlo = tuple(fields[cursor:cursor + d])
                    vhi = tuple(fields[cursor + d:cursor + 2 * d])
                    cursor += 2 * d
                else:
                    vlo = vhi = (0.0,) * d
                if self.layout.store_br_expiration:
                    t_exp = fields[cursor]
                else:
                    t_exp = math.inf
                entries.append(
                    (TPBR(lo, hi, vlo, vhi, t_ref, max(t_exp, t_ref)),
                     fields[-1])
                )
        return entries, level, t_ref

    def decode_node(self, page):
        """The decoded page as a ``(Node, t_ref)`` pair, like ``NodeCodec``."""
        entries, level, t_ref = self.decode(page)
        return Node(level, entries), t_ref

    def _checked_upper(self, lo, hi_raw):
        hi = []
        for low, high in zip(lo, hi_raw):
            if high < low:
                if high < low - inversion_tolerance(low, high):
                    raise CodecError(
                        f"corrupt internal entry: upper bound {high!r} "
                        f"inverted below lower bound {low!r} beyond "
                        "binary32 rounding tolerance"
                    )
                self.repairs += 1
                high = low
            hi.append(high)
        return tuple(hi)
