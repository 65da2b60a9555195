"""Time integrals of the R*-tree objective functions (Equation 1).

The R^exp/TPR insertion heuristics replace the R*-tree's area, margin,
overlap and center-distance objectives with their integrals over
``[t_upd, t_upd + min(H, t_exp - t_upd)]`` where H is the time horizon
and ``t_exp`` is the (maximum) expiration time of the rectangles
involved.  All integrands here are piecewise polynomials in ``t``, so
the integrals are evaluated analytically.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .tpbr import TPBR

#: A polynomial as a coefficient list, lowest degree first.
Poly = List[float]


def _poly_mul_linear(poly: Poly, c0: float, c1: float) -> Poly:
    """Multiply a polynomial by the linear ``c0 + c1*t``."""
    out = [0.0] * (len(poly) + 1)
    for k, c in enumerate(poly):
        out[k] += c * c0
        out[k + 1] += c * c1
    return out


def _poly_definite_integral(poly: Poly, a: float, b: float) -> float:
    """Integral of the polynomial over [a, b].

    Powers are built by repeated multiplication rather than ``pow`` so
    the batched kernels (:mod:`repro.geometry.kernels`) can reproduce
    the exact same floating-point results elementwise — vectorized
    ``pow`` implementations are not bit-compatible with libm's.
    """
    total = 0.0
    pa, pb = a, b
    for k, c in enumerate(poly):
        total += c * (pb - pa) / (k + 1)
        pa *= a
        pb *= b
    return total


def integration_end(
    t_start: float, horizon: Optional[float], t_exps: Sequence[float]
) -> float:
    """Upper integration bound of Equation 1.

    ``t_start + min(H, max(t_exps) - t_start)``, never before ``t_start``.
    """
    return window_end(
        t_start, horizon, max(t_exps) if t_exps else math.inf
    )


def window_end(
    t_start: float, horizon: Optional[float], t_exp: float
) -> float:
    """:func:`integration_end` of one (already maximal) expiration time."""
    delta = math.inf if horizon is None else horizon
    if not math.isinf(t_exp):
        delta = min(delta, t_exp - t_start)
    if math.isinf(delta):
        raise ValueError(
            "unbounded integration window: supply a finite horizon for "
            "never-expiring rectangles"
        )
    return t_start + max(delta, 0.0)


def _linear_extent(br: TPBR, dim: int) -> Tuple[float, float]:
    """Extent of a TPBR in one dimension as (value at t=0, slope)."""
    slope = br.vhi[dim] - br.vlo[dim]
    value0 = (br.hi[dim] - br.lo[dim]) - slope * br.t_ref
    return value0, slope


def _clip_nonnegative(
    linears: Sequence[Tuple[float, float]], a: float, b: float
) -> Optional[float]:
    """Largest b' <= b such that all linears are >= 0 on [a, b'].

    Assumes each linear is non-negative at ``a`` (valid rectangles only
    shrink through zero, never re-grow).  Returns None if some linear is
    already negative at ``a``.
    """
    end = b
    for c0, c1 in linears:
        if c0 + c1 * a < -1e-12:
            return None
        if c1 < 0.0:
            end = min(end, -c0 / c1)
    return max(end, a)


def area_integral(br: TPBR, a: float, b: float) -> float:
    """Integral of the rectangle's (hyper-)area over [a, b].

    The area is the product of per-dimension extents clamped at zero: a
    shrinking rectangle contributes nothing after it collapses.
    """
    if b <= a:
        return 0.0
    extents = [_linear_extent(br, d) for d in range(br.dims)]
    end = _clip_nonnegative(extents, a, b)
    if end is None or end <= a:
        return 0.0
    poly: Poly = [1.0]
    for c0, c1 in extents:
        poly = _poly_mul_linear(poly, c0, c1)
    return _poly_definite_integral(poly, a, end)


def margin_integral(br: TPBR, a: float, b: float) -> float:
    """Integral of the rectangle's margin (sum of extents) over [a, b]."""
    if b <= a:
        return 0.0
    total = 0.0
    for d in range(br.dims):
        c0, c1 = _linear_extent(br, d)
        end = b
        if c1 < 0.0:
            end = min(end, -c0 / c1)
        start = a
        if c1 > 0.0 and c0 + c1 * a < 0.0:
            start = max(a, -c0 / c1)
        if end > start:
            total += _poly_definite_integral([c0, c1], start, end)
    return total


def _dim_lines(br: TPBR, dim: int) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """(lower, upper) bound of one dimension as (value at t=0, slope)."""
    lo = (br.lo[dim] - br.vlo[dim] * br.t_ref, br.vlo[dim])
    hi = (br.hi[dim] - br.vhi[dim] * br.t_ref, br.vhi[dim])
    return lo, hi


def overlap_integral(x: TPBR, y: TPBR, a: float, b: float) -> float:
    """Integral over [a, b] of the overlap (hyper-)area of two TPBRs.

    Per dimension the overlap extent is
    ``min(ux, uy)(t) - max(lx, ly)(t)`` clamped at zero — piecewise
    linear.  Breakpoints are collected from all bound crossings; within
    each piece the product of the active linears is integrated exactly.
    """
    if b <= a:
        return 0.0
    cuts = {a, b}
    per_dim = []
    for d in range(x.dims):
        lx, ux = _dim_lines(x, d)
        ly, uy = _dim_lines(y, d)
        per_dim.append((lx, ux, ly, uy))
        for p, q in (
            (ux, uy),  # active upper switches
            (lx, ly),  # active lower switches
            (ux, ly),  # overlap sign may flip
            (uy, lx),
            (ux, lx),
            (uy, ly),
        ):
            dc0 = p[0] - q[0]
            dc1 = p[1] - q[1]
            if dc1 != 0.0:
                root = -dc0 / dc1
                if a < root < b:
                    cuts.add(root)
    total = 0.0
    ordered = sorted(cuts)
    for seg_a, seg_b in zip(ordered, ordered[1:]):
        mid = (seg_a + seg_b) / 2.0
        poly: Poly = [1.0]
        positive = True
        for lx, ux, ly, uy in per_dim:
            upper = ux if ux[0] + ux[1] * mid <= uy[0] + uy[1] * mid else uy
            lower = lx if lx[0] + lx[1] * mid >= ly[0] + ly[1] * mid else ly
            c0 = upper[0] - lower[0]
            c1 = upper[1] - lower[1]
            if c0 + c1 * mid <= 0.0:
                positive = False
                break
            poly = _poly_mul_linear(poly, c0, c1)
        if positive:
            total += _poly_definite_integral(poly, seg_a, seg_b)
    return total


def center_distance_sq_integral(x: TPBR, y: TPBR, a: float, b: float) -> float:
    """Integral over [a, b] of the squared distance between centers.

    The centers move linearly, so the squared distance is a quadratic in
    ``t`` and integrates in closed form.  Used for the RemoveTop
    (forced-reinsert) ordering, where only the ranking matters.
    """
    if b <= a:
        return 0.0
    quad = [0.0, 0.0, 0.0]
    for d in range(x.dims):
        lx, ux = _dim_lines(x, d)
        ly, uy = _dim_lines(y, d)
        c0 = (lx[0] + ux[0]) / 2.0 - (ly[0] + uy[0]) / 2.0
        c1 = (lx[1] + ux[1]) / 2.0 - (ly[1] + uy[1]) / 2.0
        quad[0] += c0 * c0
        quad[1] += 2.0 * c0 * c1
        quad[2] += c1 * c1
    return _poly_definite_integral(quad, a, b)
