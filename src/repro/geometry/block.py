"""Regions as columns of one float64 array: the form every kernel reads.

A :class:`RegionBlock` holds ``n`` moving points and/or TPBRs as the
columns of a ``(6 * dims + 2, n)`` array whose row groups are, in order:

* ``hi[d]``, ``lo[d]`` — upper / lower bound at the member's own
  reference time;
* ``vhi[d]``, ``vlo[d]`` — the velocities of those bounds;
* ``t_ref``, ``t_exp`` — reference and expiration time;
* ``s_hi[d]``, ``s_lo[d]`` — the query form ``bound - velocity * t_ref``
  (the bound line's offset at ``t = 0``), which the intersection and
  kNN kernels read.

A point is the degenerate rectangle ``hi == lo``, ``vhi == vlo``.  The
block is the authoritative representation inside a tree node
(:class:`repro.rstar.node.Node` owns the storage and is the only
writer); the scalar objects are *views*: ``len``, iteration and
indexing materialise :class:`MovingPoint` / :class:`TPBR` instances
whose fields are tuples of Python floats, bit-equal to what was put in.

:func:`as_block` is the one adapter the kernels take their input
through: a block passes untouched, a plain sequence of region objects
is packed once.  The module sits below :mod:`repro.geometry.bounding`
and :mod:`repro.geometry.kernels` (which imports the former) because
both read blocks.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Iterable, Iterator, Union

import numpy as np

from .kinematics import MovingPoint
from .tpbr import TPBR, Boundable


def column(region: Boundable) -> tuple:
    """One region as a block column, query form included.

    The offsets are worked out on Python floats: ``x - v * t_ref`` is
    the same two IEEE-754 operations numpy performs elementwise, so a
    column written here equals one filled vectorised on decode.
    """
    t_ref = region.t_ref
    if isinstance(region, MovingPoint):
        pos, vel = region.pos, region.vel
        base = [x - v * t_ref for x, v in zip(pos, vel)]
        return (*pos, *pos, *vel, *vel, t_ref, region.t_exp, *base, *base)
    return (
        *region.hi, *region.lo, *region.vhi, *region.vlo,
        t_ref, region.t_exp,
        *[x - v * t_ref for x, v in zip(region.hi, region.vhi)],
        *[x - v * t_ref for x, v in zip(region.lo, region.vlo)],
    )


class RegionBlock(Sequence):
    """``n`` regions over a ``(6 * dims + 2, n)`` float64 array.

    Attributes
    ----------
    data : numpy.ndarray
        The rows described in the module docstring (possibly a view of
        a node's wider storage).
    points : bool
        Whether the members materialise as :class:`MovingPoint` (leaf
        entries) or :class:`TPBR`.
    x, v : numpy.ndarray
        ``(2, dims, n)`` views: (upper, lower) bounds and velocities.
    t_ref, t_exp : numpy.ndarray
        ``(n,)`` views.
    s : numpy.ndarray
        ``(2, dims, n)`` view of the query form, (upper, lower).
    """

    __slots__ = ("data", "points", "dims", "x", "v", "t_ref", "t_exp", "s")

    def __init__(self, data: np.ndarray, points: bool):
        rows, n = data.shape
        dims = (rows - 2) // 6
        self.data = data
        self.points = points
        self.dims = dims
        self.x = data[: 2 * dims].reshape(2, dims, n)
        self.v = data[2 * dims : 4 * dims].reshape(2, dims, n)
        self.t_ref = data[4 * dims]
        self.t_exp = data[4 * dims + 1]
        self.s = data[4 * dims + 2 :].reshape(2, dims, n)

    def __len__(self) -> int:
        return self.data.shape[1]

    def _materialise(self, fields: list) -> Boundable:
        """A region object from one column's first ``4 * dims + 2`` floats."""
        d = self.dims
        hi, lo = tuple(fields[:d]), tuple(fields[d : 2 * d])
        vhi, vlo = tuple(fields[2 * d : 3 * d]), tuple(fields[3 * d : 4 * d])
        if self.points:
            return MovingPoint(lo, vlo, fields[4 * d], fields[4 * d + 1])
        return TPBR(lo, hi, vlo, vhi, fields[4 * d], fields[4 * d + 1])

    def __getitem__(self, index: int) -> Boundable:
        column_ = self.data[: 4 * self.dims + 2, operator.index(index)]
        return self._materialise(column_.tolist())

    def __iter__(self) -> Iterator[Boundable]:
        return map(
            self._materialise, self.data[: 4 * self.dims + 2].T.tolist()
        )

    def take(self, selection) -> "RegionBlock":
        """The members at ``selection`` (indices or a mask array), copied."""
        if not isinstance(selection, np.ndarray):
            selection = np.asarray(selection, dtype=np.intp)
        return RegionBlock(self.data[:, selection], self.points)


def as_block(items: Union[Boundable, Iterable[Boundable]]) -> RegionBlock:
    """The block form of ``items``: a block as is, anything else packed once.

    A single region is a block of one.

    Raises
    ------
    ValueError
        If the items differ in dimensionality.
    """
    if isinstance(items, RegionBlock):
        return items
    items = [items] if isinstance(items, (MovingPoint, TPBR)) else list(items)
    if not items:
        return RegionBlock(np.empty((2, 0)), True)
    try:
        rows = np.array([column(item) for item in items], dtype=np.float64)
    except ValueError:
        raise ValueError("items differ in dimensionality") from None
    return RegionBlock(
        np.ascontiguousarray(rows.T),
        all(isinstance(item, MovingPoint) for item in items),
    )
