"""Spatial-constraint verdicts and scores for matched box pairs.

The paper asks a "safe" prediction to fully cover its ground truth as seen
from the vehicle. The verdict here is the paper's relaxation of that into
two checks on bounding shapes:

* PV: the prediction's image-plane rectangle must enclose the ground
  truth's (quantified by IoGT, the intersection area over the ground-truth
  area).
* BEV: the prediction's closest footprint corner must be no farther from
  the vehicle than the ground truth's, and the vehicle-facing sides (drawn
  between the closest, rightmost and leftmost corners) must not cross
  (quantified by ADR, the geometric mean of per-corner distance ratios).

The consolidated verdict is the conjunction of both checks; the
consolidated score is ``IoGT * ADR`` in [0, 1].

The PV check compares the rectangles bounding the eight projected corners,
not the silhouettes (their convex hulls), so a passing verdict, or a USC of
1.0, does not certify full coverage: a ray through the ground truth can
miss the prediction. ``tests/test_constraints.py`` pins such a pair
(``test_passing_verdict_is_a_rectangle_relaxation``).

Conventions: azimuth is ``atan2(x, z)``, increasing to the right; all BEV
footprint vertices must lie more than EPS_GEOM ahead of the vehicle, and
ties between candidate representative vertices break to the smallest
(x, z). A footprint need not have distinct vertices: one with a side that
rounds to nothing is scored by the same formulas, and a facing side no
longer than EPS_GEOM is dropped. ``usc_batch`` scores pairs as
``usc_score`` does, bit for bit, but ranks vertices by x / z (by ``atan2``
only where two bearings are within rounding) and calls ``usc_score`` only
for a projection that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Tuple

import numpy as np

from .errors import BehindCamera, BehindVehicle, DegenerateGroundTruth
from .geometry import (EPS_DEPTH, EPS_GEOM, BevPolygon, Box3D, Point2,
                       Rect2D, Segment2D, box_array, footprint_arrays, hypot,
                       map_math, pair_batches, project_bev, project_pv_rect,
                       segments_intersect)


@dataclass(frozen=True)
class RepresentativePoints:
    """Closest, rightmost and leftmost footprint vertices seen from the AV."""

    closest: Point2
    rightmost: Point2
    leftmost: Point2


@dataclass(frozen=True)
class UscBreakdown:
    """Constraint verdicts plus the quantitative measures behind them."""

    pv_constraint: bool
    bev_constraint: bool
    verdict: bool
    iogt_pv: float
    adr: float
    usc: float


def azimuth(point: Point2) -> float:
    """Bearing of a BEV point from the vehicle, rightward positive."""
    return math.atan2(point.x, point.z)


def iogt_pv(p: Rect2D, g: Rect2D) -> float:
    """Intersection-over-ground-truth for two PV rectangles."""
    g_du = g.max_u - g.min_u
    g_dv = g.max_v - g.min_v
    if g_du * g_dv <= EPS_GEOM * EPS_GEOM:
        raise DegenerateGroundTruth(
            f"ground-truth rectangle area {g_du * g_dv:.3g} is degenerate")
    du = min(p.max_u, g.max_u) - max(p.min_u, g.min_u)
    dv = min(p.max_v, g.max_v) - max(p.min_v, g.min_v)
    if du <= 0.0 or dv <= 0.0:
        return 0.0
    return (du * dv) / (g_du * g_dv)


def pv_constraint(p: Rect2D, g: Rect2D) -> bool:
    """True iff the prediction rectangle encloses the ground truth.

    Containment is closed: a prediction exactly coincident with the ground
    truth satisfies the constraint.
    """
    return (p.min_u <= g.min_u and p.min_v <= g.min_v
            and g.max_u <= p.max_u and g.max_v <= p.max_v)


def representative_points(poly: BevPolygon) -> RepresentativePoints:
    """Extract the closest / rightmost / leftmost vertices of a footprint.

    Raises BehindVehicle when any vertex lies no more than EPS_GEOM ahead of
    the vehicle, where the constraint semantics are undefined. That covers a
    footprint holding the vehicle origin (a convex one has a vertex at
    z <= 0) and a vertex at the origin; every accepted vertex is more than
    EPS_GEOM from it, since its distance is at least its z.
    """
    for v in poly.vertices:
        if v.z <= EPS_GEOM:
            raise BehindVehicle(
                f"footprint vertex at z={v.z:.6g} m is not more than "
                f"{EPS_GEOM:g} m ahead of the vehicle")
    closest = min(poly.vertices, key=lambda v: (v.norm(), v.x, v.z))
    rightmost = max(poly.vertices, key=lambda v: (azimuth(v), -v.x, -v.z))
    leftmost = min(poly.vertices, key=lambda v: (azimuth(v), v.x, v.z))
    return RepresentativePoints(closest, rightmost, leftmost)


def _facing_segments(rep: RepresentativePoints) -> list:
    """AV-facing sides of a footprint; degenerate sides are dropped."""
    segments = []
    for end in (rep.rightmost, rep.leftmost):
        if math.hypot(end.x - rep.closest.x, end.z - rep.closest.z) > EPS_GEOM:
            segments.append(Segment2D(rep.closest, end))
    return segments


def bev_constraint(p: BevPolygon, g: BevPolygon) -> bool:
    """Closest-corner underestimation plus non-crossing facing sides.

    Note that collinear overlap of the facing sides counts as a crossing,
    so a prediction exactly coincident with the ground truth fails this
    constraint (its facing sides lie on top of the ground truth's).
    """
    rep_p = representative_points(p)
    rep_g = representative_points(g)
    if rep_p.closest.norm() > rep_g.closest.norm():
        return False
    return not segments_intersect(_facing_segments(rep_p) + _facing_segments(rep_g))


def distance_ratio_geomean(g_distances, p_distances) -> float:
    """Geometric mean of ``||g|| / max(||p||, ||g||)`` over paired distances."""
    product = 1.0
    for gd, pd in zip(g_distances, p_distances):
        product *= gd / max(pd, gd)
    return product ** (1.0 / len(g_distances))


def adr(p: BevPolygon, g: BevPolygon) -> float:
    """Average distance ratio between the two footprints, in (0, 1].

    Each representative point of the prediction is compared against its
    ground-truth counterpart by distance from the vehicle; ratios saturate
    at 1 when the prediction point is closer, and the three ratios combine
    by geometric mean.
    """
    rep_p = representative_points(p)
    rep_g = representative_points(g)
    g_dists = (rep_g.closest.norm(), rep_g.rightmost.norm(), rep_g.leftmost.norm())
    p_dists = (rep_p.closest.norm(), rep_p.rightmost.norm(), rep_p.leftmost.norm())
    return distance_ratio_geomean(g_dists, p_dists)


def usc_score(p: Box3D, g: Box3D) -> UscBreakdown:
    """Full constraint breakdown for a prediction / ground-truth pair, with
    the PV rectangles on the normalized image plane (``project_pv_rect``).

    Raises BehindCamera (prediction checked first) when a box corner is
    less than EPS_DEPTH ahead of the camera, and DegenerateGroundTruth when
    the ground truth's PV rectangle has no area; the constraints are
    undefined for such a pair. BehindVehicle is not reachable: every BEV
    footprint vertex is a box corner, so a footprint past the BehindCamera
    check lies at least EPS_DEPTH ahead of the vehicle. Raises ValueError
    only where ``Rect2D`` or ``BevPolygon`` rejects a projection that is not
    finite: a PV bound or footprint vertex that overflows, for coordinates
    near the float limit. A footprint with a side that rounds to nothing is
    scored.
    """
    p_pv = project_pv_rect(p)
    g_pv = project_pv_rect(g)
    p_bev = project_bev(p)
    g_bev = project_bev(g)
    pv_ok = pv_constraint(p_pv, g_pv)
    bev_ok = bev_constraint(p_bev, g_bev)
    iogt = iogt_pv(p_pv, g_pv)
    ratio = adr(p_bev, g_bev)
    return UscBreakdown(
        pv_constraint=pv_ok,
        bev_constraint=bev_ok,
        verdict=pv_ok and bev_ok,
        iogt_pv=iogt,
        adr=ratio,
        usc=iogt * ratio,
    )


# --- batch kernel ------------------------------------------------------------

#: Exclusion reasons reported by ``usc_batch``: reason code ``i + 1`` stands
#: for ``EXCLUSION_REASONS[i]``, and code 0 for a scored pair.
EXCLUSION_REASONS = (BehindCamera, DegenerateGroundTruth)


def _usc_chunk(pred_boxes, gt_boxes):
    n = len(pred_boxes)
    # one row per footprint vertex (for y, a bottom and a top corner), one
    # column per box, predictions first
    fx, y, fz = footprint_arrays(np.concatenate([pred_boxes, gt_boxes]))
    # one row at a time, which holds hypot's temporaries to one row
    norm = np.empty_like(fx)
    for row in range(len(fx)):
        norm[row] = hypot(fx[row], fz[row])
    u = fx / fz
    # project_pv_rect; where every z is positive, a bottom corner's y / z
    # is below that of the top corner above it. The four u of each box in
    # order, by a sorting network of five comparators: the same floats as
    # np.sort but for a NaN, which the finite mask below sends to usc_score
    lo_a, hi_a = np.minimum(u[0], u[1]), np.maximum(u[0], u[1])
    lo_b, hi_b = np.minimum(u[2], u[3]), np.maximum(u[2], u[3])
    u_lo, mid_lo = np.minimum(lo_a, lo_b), np.maximum(lo_a, lo_b)
    mid_hi, u_hi = np.minimum(hi_a, hi_b), np.maximum(hi_a, hi_b)
    u_lo2, u_hi2 = np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi)
    v_lo, v_hi = (y[0] / fz).min(axis=0), (y[1] / fz).max(axis=0)
    behind = fz.min(axis=0) < EPS_DEPTH

    # representative_points. A scored box has every vertex at z >= EPS_DEPTH
    # > 0, where atan2(x, z) = atan(u) rises with u. With U the box's largest
    # |u|, exact u that differ by d differ in bearing by at least
    # d / (1 + U*U); rounding moves u by at most 2**-53 * U <= 2**-54 *
    # (1 + U*U), and math.atan2 is within an ulp (<= 2**-52) of the exact
    # bearing. So a lone vertex at an extreme u more than the margin
    # 2**-40 * (1 + U*U) past the runner-up has the extreme bearing, 2**10
    # times over. Other boxes (a side on a ray, or a u that is NaN) rank by
    # atan2, then (x, z).
    right, left = (np.stack([u == u_hi, u == u_lo]) * np.arange(4)[:, None]).sum(axis=1)
    margin = 2.0 ** -40 * (1.0 + np.maximum(u_lo * u_lo, u_hi * u_hi))
    slow = np.flatnonzero(~((u_hi - u_hi2 > margin) & (u_lo2 - u_lo > margin)))
    if len(slow):
        sx, sz = fx[:, slow], fz[:, slow]
        bearing = map_math(math.atan2, sx, sz)
        right[slow] = np.lexsort((sz, sx, -bearing), axis=0)[0]
        left[slow] = np.lexsort((sz, sx, bearing), axis=0)[0]
    # only the closest vertex's distance is read, so a tie needs no pick
    dist = np.vstack([norm.min(axis=0), norm[[right, left], np.arange(2 * n)]])

    # iogt_pv
    g_area = (u_hi[n:] - u_lo[n:]) * (v_hi[n:] - v_lo[n:])
    du = np.minimum(u_hi[:n], u_hi[n:]) - np.maximum(u_lo[:n], u_lo[n:])
    dv = np.minimum(v_hi[:n], v_hi[n:]) - np.maximum(v_lo[:n], v_lo[n:])
    iogt = np.where((du <= 0.0) | (dv <= 0.0), 0.0, (du * dv) / g_area)

    # distance_ratio_geomean over (closest, rightmost, leftmost)
    ratio = dist[:, n:] / np.maximum(dist[:, :n], dist[:, n:])
    product = ratio[0] * ratio[1] * ratio[2]
    adr_value = np.fromiter(map(pow, product.tolist(), repeat(1.0 / 3)), np.float64,
                            len(product))

    usc = iogt * adr_value
    reason = np.zeros(len(usc), dtype=np.int8)
    reason[g_area <= EPS_GEOM * EPS_GEOM] = 1 + EXCLUSION_REASONS.index(
        DegenerateGroundTruth)
    reason[behind[:n] | behind[n:]] = 1 + EXCLUSION_REASONS.index(BehindCamera)

    # A pair with a PV bound or a footprint coordinate that is not finite
    # goes through usc_score, which decides it: it raises ValueError, or
    # excludes the pair first when a box is behind the camera.
    finite = np.isfinite(np.vstack([u_lo, u_hi, v_lo, v_hi, fx, fz])).all(axis=0)
    for row in np.flatnonzero(~(finite[:n] & finite[n:])):
        try:
            usc_score(Box3D(*pred_boxes[row].tolist()), Box3D(*gt_boxes[row].tolist()))
        except EXCLUSION_REASONS as exc:
            reason[row] = 1 + EXCLUSION_REASONS.index(type(exc))
    usc[reason != 0] = np.nan
    return usc, reason


def usc_batch(pred_boxes, gt_boxes) -> Tuple[np.ndarray, np.ndarray]:
    """USC of many prediction / ground-truth pairs at once, given as
    ``box_array`` takes them, run by ``pair_batches``, with the PV
    rectangles on the normalized image plane, as ``usc_score`` takes them.

    Returns a float64 array of USC values and an int8 array of exclusion
    reason codes (0: scored; ``i + 1``: ``EXCLUSION_REASONS[i]``, where
    ``usc_score`` raises it). Excluded pairs read NaN. Every value and
    reason equals, bit for bit, what ``usc_score`` gives for that pair: the
    kernel repeats its arithmetic in the same order, with ``math`` for cos,
    sin, atan2 and pow and ``geometry.hypot`` (``math.hypot`` in arrays) for
    the vertex norms, but ranks footprint vertices by x / z; only a box with
    two extreme bearings within rounding ranks by ``atan2``. Only
    the pairs on which ``usc_score`` could raise ValueError, those with a PV
    bound or footprint coordinate that is not finite, are passed to it, so
    the first such pair raises the same error here. Every other pair, a
    sliver's included, is decided in the arrays.
    """
    return pair_batches(_usc_chunk, box_array(pred_boxes), box_array(gt_boxes))
