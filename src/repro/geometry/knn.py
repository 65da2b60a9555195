"""Distance kernels for k-nearest-neighbor search over moving objects.

Best-first kNN descent (see :meth:`repro.core.tree.MovingObjectTree.query_knn`)
orders its priority queue by two quantities evaluated at the query time
``t``:

* the **exact squared distance** from the query point to a moving
  point's position at ``t`` (leaf entries), and
* an **admissible lower bound** on that distance for every point a TPBR
  can contain at ``t`` (internal entries): the squared distance from the
  query point to the rectangle the TPBR occupies at ``t``, shrunk by the
  TPBR containment tolerance so the bound never exceeds the true
  distance of an enclosed point.

Both quantities come in a scalar form and a batched form over a node's
region block (:class:`repro.geometry.block.RegionBlock`).  As everywhere
in the kernel layer, the two are **bit-identical**: the vectorized code
replicates the exact operation order of the scalar code using only
IEEE-754 operations that numpy evaluates identically to CPython
(+, -, *, min, max and comparisons; never ``**``).  In particular the
scalar path evaluates positions through the same
``(pos - vel * t_ref) + vel * t`` offset form the block stores, so the
block rows and the scalar loop agree to the last bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .block import RegionBlock
from .kinematics import MovingPoint
from .tpbr import TPBR

#: Containment slack of :meth:`repro.geometry.tpbr.TPBR.contains_point`:
#: a bounded point may protrude from its TPBR by up to this much per
#: coordinate, so rectangle distances shrink by it to stay admissible.
TPBR_TOL = 1e-7

Vector = Tuple[float, ...]


def point_distance_sq(x: Vector, point: MovingPoint, t: float) -> float:
    """Exact squared distance from ``x`` to ``point``'s position at ``t``.

    Parameters
    ----------
    x : tuple of float
        The query location.
    point : MovingPoint
        The moving point (its expiration is *not* consulted here).
    t : float
        The evaluation time.

    Returns
    -------
    float
        ``sum((x_d - p_d(t))**2)``, accumulated in dimension order with
        positions evaluated as ``(pos - vel * t_ref) + vel * t`` — the
        exact float operations of the batched kernel, so scalar and
        vectorized answers are bit-identical.
    """
    acc = 0.0
    for d in range(len(x)):
        base = point.pos[d] - point.vel[d] * point.t_ref
        diff = (base + point.vel[d] * t) - x[d]
        acc += diff * diff
    return acc


def tpbr_min_distance_sq(x: Vector, br: TPBR, t: float) -> float:
    """Admissible lower bound on the distance to any point in ``br`` at ``t``.

    The TPBR's rectangle at ``t`` is evaluated per dimension through the
    packed offset form; crossed bounds (a rectangle shrunk past zero
    extent) are reordered with min/max.  The per-dimension gap from
    ``x`` to the interval is then shrunk by :data:`TPBR_TOL` (the
    containment slack of :meth:`~repro.geometry.tpbr.TPBR.contains_point`)
    and clamped at zero before squaring, so the bound never exceeds the
    exact distance of any point the TPBR bounds.

    Parameters
    ----------
    x : tuple of float
        The query location.
    br : TPBR
        The time-parameterized rectangle (expiration not consulted).
    t : float
        The evaluation time.

    Returns
    -------
    float
        A lower bound on :func:`point_distance_sq` over every point the
        TPBR contains at ``t``; 0.0 when ``x`` lies inside the
        rectangle.
    """
    acc = 0.0
    for d in range(br.dims):
        s_lo = br.lo[d] - br.vlo[d] * br.t_ref
        s_hi = br.hi[d] - br.vhi[d] * br.t_ref
        lo = s_lo + br.vlo[d] * t
        hi = s_hi + br.vhi[d] * t
        low = min(lo, hi)
        high = max(lo, hi)
        gap = max(low - x[d], x[d] - high)
        gap = max(gap - TPBR_TOL, 0.0)
        acc += gap * gap
    return acc


def point_distances_sq_rows(x: Vector, block: RegionBlock, t: float):
    """:func:`point_distance_sq` of every point of a block (array)."""
    base, vel = block.s[1], block.v[1]
    acc = np.zeros(len(block))
    for d in range(len(x)):
        diff = (base[d] + vel[d] * t) - x[d]
        acc = acc + diff * diff
    return acc


def tpbr_min_distances_sq_rows(x: Vector, block: RegionBlock, t: float):
    """:func:`tpbr_min_distance_sq` of every rectangle of a block (array)."""
    (s_hi, s_lo), (vhi, vlo) = block.s, block.v
    acc = np.zeros(len(block))
    for d in range(len(x)):
        lo = s_lo[d] + vlo[d] * t
        hi = s_hi[d] + vhi[d] * t
        low = np.minimum(lo, hi)
        high = np.maximum(lo, hi)
        gap = np.maximum(low - x[d], x[d] - high)
        gap = np.maximum(gap - TPBR_TOL, 0.0)
        acc = acc + gap * gap
    return acc


def batch_point_distances_sq(
    x: Vector, points: Sequence[MovingPoint], t: float, packed=None
) -> List[float]:
    """``[point_distance_sq(x, p, t) for p in points]``, batched.

    Parameters
    ----------
    x : tuple of float
        The query location.
    points : sequence of MovingPoint
        The points to score.
    t : float
        The evaluation time.
    packed : RegionBlock, optional
        A :func:`~repro.geometry.kernels.pack_points` result for the
        same ``points``; without one the scalar routine is looped.

    Returns
    -------
    list of float
        Exact squared distances, bit-identical to the scalar loop.
    """
    if packed is None:
        return [point_distance_sq(x, p, t) for p in points]
    return point_distances_sq_rows(x, packed, t).tolist()


def validate_knn_args(x: Vector, t: float, k: int, dims: int) -> None:
    """Reject malformed kNN arguments with a clear error.

    Parameters
    ----------
    x : tuple of float
        The query location; must have ``dims`` finite coordinates.
    t : float
        The evaluation time; must be finite.
    k : int
        The neighbor count; must be a non-negative integer.
    dims : int
        The index's dimensionality.

    Raises
    ------
    ValueError
        On a dimension mismatch, non-finite input, or negative ``k``.
    """
    if len(x) != dims:
        raise ValueError(f"expected a {dims}-d query point, got {len(x)}-d")
    if not all(math.isfinite(c) for c in x):
        raise ValueError(f"non-finite query point {x!r}")
    if not math.isfinite(t):
        raise ValueError(f"non-finite query time {t!r}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")


def brute_force_knn(
    entries: Sequence[Tuple[MovingPoint, int]], x: Vector, t: float, k: int
) -> List[Tuple[float, int]]:
    """The brute-force kNN oracle over raw ``(point, oid)`` entries.

    Scores every entry that is live at ``t`` (``not t_exp < t`` — alive
    at the exact expiration instant, the tree's expiration convention)
    with :func:`point_distance_sq` and returns the ``k`` smallest under
    the canonical ``(squared distance, oid)`` order.  Index paths must
    reproduce this answer bit-identically.

    Parameters
    ----------
    entries : sequence of (MovingPoint, int)
        The full population, expired entries included.
    x : tuple of float
        The query location.
    t : float
        The evaluation time.
    k : int
        The neighbor count.

    Returns
    -------
    list of (float, int)
        At most ``k`` ``(squared distance, oid)`` pairs, ascending.
    """
    scored = sorted(
        (point_distance_sq(x, point, t), oid)
        for point, oid in entries
        if not point.t_exp < t
    )
    return scored[:k]


def merge_knn(
    best: List[Tuple[float, int]],
    more: Sequence[Tuple[float, int]],
    k: int,
    bound_sq: float,
) -> float:
    """Fold one member's scored candidates into the running ``k`` best.

    ``best`` is updated in place and stays in :func:`brute_force_knn`'s
    ``(squared distance, oid)`` order.  Returns the pruning bound for
    the next member: once ``k`` candidates are held it tightens to the
    k-th distance, so a scatter threads one shrinking bound through
    every member it visits.
    """
    best.extend(more)
    best.sort()
    del best[k:]
    if len(best) == k:
        return min(bound_sq, best[-1][0])
    return bound_sq
