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
longer than EPS_GEOM is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import BehindCamera, BehindVehicle, DegenerateGroundTruth
from .geometry import (EPS_DEPTH, EPS_GEOM, FOOTPRINT, BevPolygon, Box3D,
                       Point2, Rect2D, Segment2D, corner_arrays, map_math,
                       pair_batches, project_bev, project_pv_rect,
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


def _pv_bounds(x, y, z):
    """Behind-camera mask and (min_u, min_v, max_u, max_v), as
    ``project_pv_rect`` computes them."""
    u = x / z
    v = y / z
    return ((z < EPS_DEPTH).any(axis=1),
            (u.min(axis=1), v.min(axis=1), u.max(axis=1), v.max(axis=1)))


def _first_min(key, fx, fz) -> np.ndarray:
    """Index of the first lexicographic minimum of (key, x, z) over the four
    footprint vertices, as Python's ``min`` picks it (lexsort is stable)."""
    return np.lexsort((fz, fx, key), axis=1)[:, 0]


def _footprint_terms(x, z):
    """Distances of the closest / rightmost / leftmost footprint vertices, as
    ``representative_points`` picks them."""
    fx, fz = x[:, FOOTPRINT], z[:, FOOTPRINT]
    norm = map_math(math.hypot, fx, fz)
    bearing = map_math(math.atan2, fx, fz)
    picks = np.stack([_first_min(norm, fx, fz), _first_min(-bearing, fx, fz),
                      _first_min(bearing, fx, fz)], axis=1)
    return np.take_along_axis(norm, picks, axis=1)


def _usc_chunk(pred_boxes, gt_boxes):
    p_x, p_y, p_z = corner_arrays(pred_boxes)
    g_x, g_y, g_z = corner_arrays(gt_boxes)
    p_behind, p_rect = _pv_bounds(p_x, p_y, p_z)
    g_behind, g_rect = _pv_bounds(g_x, g_y, g_z)
    p_dist = _footprint_terms(p_x, p_z)
    g_dist = _footprint_terms(g_x, g_z)

    # iogt_pv
    p_min_u, p_min_v, p_max_u, p_max_v = p_rect
    g_min_u, g_min_v, g_max_u, g_max_v = g_rect
    g_area = (g_max_u - g_min_u) * (g_max_v - g_min_v)
    du = np.minimum(p_max_u, g_max_u) - np.maximum(p_min_u, g_min_u)
    dv = np.minimum(p_max_v, g_max_v) - np.maximum(p_min_v, g_min_v)
    iogt = np.where((du <= 0.0) | (dv <= 0.0), 0.0, (du * dv) / g_area)

    # distance_ratio_geomean over (closest, rightmost, leftmost)
    ratio = g_dist / np.maximum(p_dist, g_dist)
    product = ratio[:, 0] * ratio[:, 1] * ratio[:, 2]
    adr_value = map_math(pow, product, np.full(len(product), 1.0 / 3))

    usc = iogt * adr_value
    reason = np.zeros(len(usc), dtype=np.int8)
    reason[g_area <= EPS_GEOM * EPS_GEOM] = 1 + EXCLUSION_REASONS.index(
        DegenerateGroundTruth)
    reason[p_behind | g_behind] = 1 + EXCLUSION_REASONS.index(BehindCamera)

    # A pair with a PV bound or a footprint coordinate that is not finite
    # (each corner's x and z are a footprint vertex's) goes through
    # usc_score, so that it decides the pair. It never scores one: it raises
    # ValueError, or excludes the pair first when a box is behind the camera.
    scalar = ~(np.isfinite(p_rect + g_rect).all(axis=0)
               & np.isfinite(np.hstack([p_x, p_z, g_x, g_z])).all(axis=1))
    for row in np.flatnonzero(scalar):
        try:
            usc_score(pred_boxes[row], gt_boxes[row])
        except EXCLUSION_REASONS as exc:
            reason[row] = 1 + EXCLUSION_REASONS.index(type(exc))
    usc[reason != 0] = np.nan
    return usc, reason


def usc_batch(pred_boxes: Sequence[Box3D],
              gt_boxes: Sequence[Box3D]) -> Tuple[np.ndarray, np.ndarray]:
    """USC of many prediction / ground-truth pairs at once, run by
    ``pair_batches``, with the PV rectangles on the normalized image plane,
    as ``usc_score`` takes them.

    Returns a float64 array of USC values and an int8 array of exclusion
    reason codes (0: scored; ``i + 1``: ``EXCLUSION_REASONS[i]``, where
    ``usc_score`` raises it). Excluded pairs read NaN. Every value and
    reason equals, bit for bit, what ``usc_score`` gives for that pair: the
    kernel repeats its arithmetic in the same order, with ``math`` for the
    transcendental functions. Only the pairs on which ``usc_score`` could
    raise ValueError, those with a PV bound or footprint coordinate that is
    not finite, are passed to it, so the first such pair raises the same
    error here. Every other pair, a sliver's included, is decided in the
    arrays.
    """
    return pair_batches(_usc_chunk, pred_boxes, gt_boxes)
