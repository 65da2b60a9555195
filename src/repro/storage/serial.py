"""Byte-level node serialization.

The capacities in :mod:`repro.storage.layout` assert that a node fits a
disk page under the paper's 4-byte-coordinate layout.  This module makes
that claim concrete: it encodes tree nodes into exactly ``page_size``
bytes and back.  The in-memory trees keep full-precision nodes in the
page store for speed (the measured quantity is I/O *count*), but the
codec is exercised by tests over real trees to prove every node
genuinely fits its page, and by the durable store on every commit and
recovery.

Layout notes:

* Node header (16 bytes): level (u16), entry count (u16), flags (u16),
  2 pad bytes, node reference time (f64).
* All positions are re-referenced to the node reference time before
  encoding (the paper keeps a single reference time per index for the
  same reason); velocities are unaffected.
* Coordinates, velocities and expiration times are IEEE-754 binary32 —
  the rounding this introduces is the fidelity cost of the paper's
  4-byte fields.  Expiration times round toward *+inf* so a decoded
  bound never under-covers: an entry can linger one binary32 ulp past
  its true expiration (harmless — lazy purging removes it), but it can
  never expire early and drop a genuinely-live object after recovery.
* Object ids are unsigned 32-bit.  The shard wire format
  (:mod:`repro.shard.wire`) carries oids as i64, so the page codec is
  the narrower of the two; the trees validate oids at insert time
  against :attr:`EntryLayout.max_oid` so out-of-range ids fail fast
  with a clear error instead of a ``struct.error`` deep inside a
  commit (see DESIGN.md §11).

A node is a float64 block (:class:`repro.rstar.node.Node`) and a page
body is a structured array of binary32 fields, so both directions are
array arithmetic: encoding re-bases the block's rows, narrows them and
takes ``tobytes()``; decoding is a zero-copy :func:`numpy.frombuffer`
view, one exact binary32→binary64 widening (lossless, including
subnormals, signed zeros and infinities) and column writes into a new
block — query form included, so a freshly recovered page is servable by
the kernels as it stands.  ``tests/storage/reference_codec.py`` keeps
the per-entry ``struct`` loop both directions must agree with bit for
bit.
"""

from __future__ import annotations

import math
import struct
from typing import Tuple

import numpy as np

from ..rstar.node import Node
from .layout import NODE_HEADER_BYTES, EntryLayout

_HEADER = struct.Struct("<HHHxxd")
assert _HEADER.size == NODE_HEADER_BYTES

_LEAF_FLAG = 0x1

#: Bound-inversion tolerance for decoded internal entries.  Encoding
#: rounds the lower bound up and the upper bound down by at most half a
#: binary32 ulp each, so a legitimate inversion of a degenerate (or
#: near-degenerate) rectangle is within ~2^-23 relative; anything
#: beyond twice that is corruption, not rounding.  The absolute floor
#: covers subnormal bounds whose relative tolerance would underflow.
_INVERSION_REL_TOL = 2.0 ** -22
_INVERSION_ABS_TOL = 1e-37


class CodecError(ValueError):
    """Raised when a node cannot be encoded into one page, or when a
    page image is provably corrupt (inconsistent header, inverted
    bounds beyond binary32 rounding tolerance).

    Subclasses :class:`ValueError` so the WAL recovery skip predicate's
    conservative "undecodable → replay verbatim" contract covers codec
    corruption too; the replayed image then surfaces the error at the
    open-time decode instead of aborting recovery mid-replay.
    """


class NodeCodec:
    """Encodes/decodes tree nodes under a byte-accurate entry layout.

    The codec counts silently repaired bound inversions (see
    :meth:`decode`) in :attr:`repairs`; callers with a metrics registry
    can mirror the count into a counter via :meth:`bind_repair_counter`.
    """

    def __init__(self, layout: EntryLayout):
        if layout.coord_bytes != 4:
            raise ValueError("NodeCodec implements the 4-byte field layout")
        self.layout = layout
        d = layout.dims
        leaf_fields = 2 * d + (1 if layout.store_leaf_expiration else 0)
        internal_fields = 2 * d
        if layout.store_velocities:
            internal_fields += 2 * d
        if layout.store_br_expiration:
            internal_fields += 1
        self._leaf_dtype = np.dtype(
            [("f", "<f4", (leaf_fields,)), ("id", "<u4")]
        )
        self._internal_dtype = np.dtype(
            [("f", "<f4", (internal_fields,)), ("id", "<u4")]
        )
        assert self._leaf_dtype.itemsize == layout.leaf_entry_bytes
        assert self._internal_dtype.itemsize == layout.internal_entry_bytes
        #: Bound inversions repaired (within tolerance) across decodes.
        self.repairs = 0
        self._repair_counter = None

    def bind_repair_counter(self, counter) -> None:
        """Mirror future bound-inversion repairs into ``counter``.

        Parameters
        ----------
        counter : repro.obs.metrics.Counter
            Incremented once per repaired bound (a registry counter,
            typically ``codec.bound_repairs``).
        """
        self._repair_counter = counter

    def _record_repairs(self, count: int) -> None:
        """Count ``count`` tolerated bound inversions."""
        if count:
            self.repairs += count
            if self._repair_counter is not None:
                self._repair_counter.inc(count)

    def _stores_expiration(self, leaf: bool) -> bool:
        """Whether entries of this kind of node carry their ``t_exp``."""
        if leaf:
            return self.layout.store_leaf_expiration
        return self.layout.store_br_expiration

    # -- encoding ---------------------------------------------------------------

    def encode(self, node: Node, t_ref: float) -> bytes:
        """Serialize a node into exactly ``page_size`` bytes.

        Parameters
        ----------
        node : Node
            The node to encode.
        t_ref : float
            Reference time the entry positions are re-based to.

        Raises
        ------
        CodecError
            If the node exceeds its page's capacity.
        OverflowError
            If a finite coordinate or velocity does not fit binary32.
        struct.error
            If an id lies outside ``[0, layout.max_oid]``.
        """
        count = len(node)
        capacity = self.layout.capacity(leaf=node.is_leaf)
        if count > capacity:
            raise CodecError(f"{count} entries exceed capacity {capacity}")
        flags = _LEAF_FLAG if node.is_leaf else 0
        page = _HEADER.pack(node.level, count, flags, t_ref)
        if count:
            page += self._encode_entries(node, t_ref)
        return page.ljust(self.layout.page_size, b"\0")

    def _encode_entries(self, node: Node, t_ref: float) -> bytes:
        """The page body: one structured record per block column.

        Rows of ``values`` are the page's fields in layout order, so the
        expiration time — when stored — is the last row.  Narrowing is
        round-to-nearest; the expiration row is then stepped up where it
        rounded below the true value.
        """
        layout = self.layout
        d = layout.dims
        block = node.regions()
        ids = node.ids
        dtype = self._leaf_dtype if node.is_leaf else self._internal_dtype
        has_exp = self._stores_expiration(node.is_leaf)
        values = np.empty((dtype["f"].shape[0], len(ids)))
        with np.errstate(all="ignore"):
            # (upper, lower) row pairs; the page stores lower first.
            at = block.x + block.v * (t_ref - block.t_ref)
            if node.is_leaf:
                values[:d] = at[1]
                values[d:2 * d] = block.v[1]
            else:
                values[:2 * d].reshape(at.shape)[:] = at[::-1]
                if layout.store_velocities:
                    values[2 * d:4 * d].reshape(at.shape)[:] = block.v[::-1]
            if has_exp:
                values[-1] = block.t_exp
            narrow = values.astype(np.float32)
        coords = slice(None, -1) if has_exp else slice(None)
        if has_exp:
            stored = narrow[-1]
            under = stored.astype(np.float64) < values[-1]
            if np.count_nonzero(under):
                narrow[-1] = np.where(
                    under, np.nextafter(stored, np.float32(np.inf)), stored
                )
        # A negative id reads as a huge unsigned one: one comparison.
        foreign = ids.view(np.uint64) > layout.max_oid
        unbounded = ~np.isfinite(narrow[coords])
        if np.count_nonzero(unbounded) or np.count_nonzero(foreign):
            # The first offending entry decides, as when entries are
            # packed one by one (floats before the id within an entry).
            overflow = (unbounded & np.isfinite(values[coords])).any(axis=0)
            if overflow.any() or foreign.any():
                first = int((overflow | foreign).argmax())
                if overflow[first]:
                    raise OverflowError(
                        "float too large to pack with f format"
                    )
                raise struct.error(
                    f"id {int(ids[first])} outside [0, {layout.max_oid}]"
                )
        out = np.empty(len(ids), dtype=dtype)
        out["f"] = narrow.T
        out["id"] = ids
        return out.tobytes()

    # -- decoding ----------------------------------------------------------------

    def _header(self, page: bytes) -> Tuple[int, int, bool, float]:
        """Return ``(level, count, is_leaf, t_ref)``; reject a bad header."""
        layout = self.layout
        if len(page) != layout.page_size:
            raise CodecError(
                f"page is {len(page)} bytes, expected {layout.page_size}"
            )
        level, count, flags, t_ref = _HEADER.unpack_from(page, 0)
        is_leaf = bool(flags & _LEAF_FLAG)
        if is_leaf != (level == 0):
            raise CodecError("leaf flag inconsistent with level")
        if count > layout.capacity(leaf=is_leaf):
            raise CodecError(
                f"entry count {count} exceeds page capacity "
                f"{layout.capacity(leaf=is_leaf)}"
            )
        return level, count, is_leaf, t_ref

    def expired_leaf(self, page: bytes, now: float) -> bool:
        """Whether ``page`` is a non-empty leaf dead at ``now`` (TR-82).

        Answers and raises as :meth:`decode` and a test of every
        ``t_exp < now`` would, sharing its header check, but reads a
        leaf's expiration column only (a decoded ``t_exp`` is
        ``max(stored, t_ref)``); internal pages are decoded in full.
        """
        _level, count, is_leaf, t_ref = self._header(page)
        if not is_leaf:
            self.decode(page)
        if not is_leaf or not count:
            return False
        latest = math.inf
        if self.layout.store_leaf_expiration:
            raw = np.frombuffer(
                page, self._leaf_dtype, count, NODE_HEADER_BYTES
            )
            with np.errstate(all="ignore"):
                latest = raw["f"][:, -1].astype(np.float64).max()
        if t_ref != t_ref or latest != latest:
            raise ValueError("t_ref and t_exp must not be NaN")
        return bool(t_ref < now and latest < now)

    def decode(self, page: bytes) -> Tuple[Node, float]:
        """Deserialize a page back into a node and its reference time.

        All binary32 fields widen to binary64 exactly.  Internal-entry
        bound inversions within binary32 rounding tolerance are
        repaired (upper := lower) and counted in :attr:`repairs`;
        larger inversions raise :class:`CodecError` — a bit-flipped
        page must surface, not silently shrink the answer set.

        Raises
        ------
        CodecError
            If the page has the wrong size, an inconsistent header, or
            a corrupt internal entry.
        ValueError
            If a leaf entry's reference or expiration time is NaN.
        """
        layout = self.layout
        level, count, is_leaf, t_ref = self._header(page)
        if not count:
            return Node(level), t_ref
        d = layout.dims
        raw = np.frombuffer(
            page, dtype=self._leaf_dtype if is_leaf else self._internal_dtype,
            count=count, offset=NODE_HEADER_BYTES,
        )
        node = Node.of_columns(
            level, np.empty((6 * d + 2, count)), raw["id"].astype(np.int64)
        )
        block = node.regions()
        # Hostile bytes hold anything: signalling NaNs, infinities.
        with np.errstate(all="ignore"):
            fields = raw["f"].astype(np.float64).T
            if is_leaf:
                block.x[:] = fields[:d]
                block.v[:] = fields[d:2 * d]
            else:
                block.x[1] = fields[:d]
                block.x[0] = self._checked_upper(fields[:d], fields[d:2 * d])
                if layout.store_velocities:
                    block.v[1] = fields[2 * d:3 * d]
                    block.v[0] = fields[3 * d:4 * d]
                else:
                    block.v[:] = 0.0
            block.t_ref[:] = t_ref
            if self._stores_expiration(is_leaf):
                # t_exp := max(t_exp, t_ref), keeping t_exp on a tie (and
                # when it is NaN), as the per-entry decoder does.
                stored = fields[-1]
                block.t_exp[:] = np.where(stored < t_ref, t_ref, stored)
            else:
                block.t_exp[:] = math.inf
            if is_leaf and (t_ref != t_ref or np.isnan(block.t_exp).any()):
                # NaN compares False against everything, so it would
                # poison every expiration comparison downstream.
                raise ValueError("t_ref and t_exp must not be NaN")
            block.s[:] = block.x - block.v * t_ref
        return node, t_ref

    def _checked_upper(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Validate (and minimally repair) decoded upper bounds."""
        inverted = hi < lo
        if not inverted.any():
            return hi
        tol = np.maximum(
            _INVERSION_REL_TOL * np.maximum(np.abs(lo), np.abs(hi)),
            _INVERSION_ABS_TOL,
        )
        if (inverted & (hi < lo - tol)).any():
            raise CodecError(
                "corrupt internal entry: upper bound inverted below "
                "lower bound beyond binary32 rounding tolerance"
            )
        self._record_repairs(int(inverted.sum()))
        return np.where(inverted, lo, hi)
