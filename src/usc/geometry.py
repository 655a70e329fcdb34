"""Upright 3D box geometry, projections, and overlap measures.

Coordinate conventions
----------------------
The autonomous vehicle (AV) sits at the origin of a right-handed frame with
``z`` along the heading, ``x`` to the right, and ``y`` completing the frame
(pointing down). A box is the 7-tuple ``(x, y, z, l, h, w, yaw)``: center,
length along ``x`` at zero yaw, height along ``y``, width along ``z``, and
yaw as rotation about the ``y`` axis.

A ``Box3D``, like the dataset module's ``Annotation`` and ``Detection``,
is a validated tuple: a subclass of a ``typing.NamedTuple`` whose
``__new__`` checks the values on every construction, whether by call,
``_make``, ``_replace``, ``copy`` or ``pickle``. It has no ``__dict__``, and
assigning a field raises AttributeError. Otherwise it is a plain tuple: a
box equals the 7-tuple of its values, unpacks as ``(x, y, z, l, h, w,
yaw)`` and orders like a tuple.

Two projections are used throughout:

* PV (perspective view): pinhole mapping ``(u, v) = (x/z, y/z)`` onto the
  normalized image plane; boxes become axis-aligned rectangles bounding the
  eight projected corners. Scaling every rectangle by one common positive
  factor leaves PV containment and IoGT unchanged, so no camera scale is
  taken.
* BEV (bird's-eye view): orthographic drop of ``y`` onto the ``(x, z)``
  ground plane; boxes become counter-clockwise rectangles.

All functions are pure; values are immutable and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BehindCamera

#: Point-coincidence / degeneracy tolerance, meters. Its square is also the
#: smallest ground-truth PV rectangle area ``iogt_pv`` accepts, in
#: normalized-image-plane units.
EPS_GEOM = 1e-9

#: Minimum depth ahead of the camera for a PV projection to be defined, meters.
EPS_DEPTH = 1e-3

_TAU = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]. Values already in range pass through unchanged."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.remainder(angle, _TAU)
    if wrapped <= -math.pi:
        wrapped += _TAU
    return wrapped


def finite_floats(values) -> Optional[Tuple[float, ...]]:
    """``values`` as a tuple of floats; None if one is not a finite real number:
    NaN, infinity, an int beyond the float range or a non-number (a string)."""
    try:
        values = tuple(values)
        # the sum rejects a string; a finite sum has only finite terms
        if math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values)):
            return tuple(map(float, values))
    except (OverflowError, TypeError):
        pass
    return None


class Point3(NamedTuple):
    x: float
    y: float
    z: float


class Point2(NamedTuple):
    """Point on the BEV ground plane (meters)."""

    x: float
    z: float

    def norm(self) -> float:
        return math.hypot(self.x, self.z)


class _Box3DFields(NamedTuple):
    center_x: float
    center_y: float
    center_z: float
    length: float
    height: float
    width: float
    yaw: float


class Box3D(_Box3DFields):
    """Upright oriented box in the AV frame: a validated 7-tuple
    ``(x, y, z, l, h, w, yaw)`` with those fields named ``center_x`` to
    ``yaw``.

    Every parameter must be a finite real number and every dimension
    positive. A box stores its seven values as floats, wrapping a yaw outside
    (-pi, pi] into it; it equals the plain 7-tuple of them and orders like it.
    """

    __slots__ = ()

    def __new__(cls, center_x, center_y, center_z, length, height, width, yaw):
        # Seven exact floats with a finite sum, positive dimensions and a yaw
        # in range pass the rule below unchanged, so they are stored as given
        # without building its tuples; any other input takes the rule.
        if (float is type(center_x) is type(center_y) is type(center_z)
                is type(length) is type(height) is type(width) is type(yaw)
                and math.isfinite(center_x + center_y + center_z + length
                                  + height + width + yaw)
                and length > 0.0 and height > 0.0 and width > 0.0
                and -math.pi < yaw <= math.pi):
            return tuple.__new__(cls, (center_x, center_y, center_z, length,
                                       height, width, yaw))
        values = (center_x, center_y, center_z, length, height, width, yaw)
        floats = finite_floats(values)
        if floats is None:
            raise ValueError(f"box parameters must be finite, got {values}")
        _, _, _, length, height, width, yaw = floats
        if length <= 0 or height <= 0 or width <= 0:
            raise ValueError(
                f"box dimensions must be positive, got l={length}, "
                f"h={height}, w={width}")
        if not -math.pi < yaw <= math.pi:
            floats = floats[:6] + (wrap_angle(yaw),)
        return tuple.__new__(cls, floats)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@dataclass(frozen=True)
class Rect2D:
    """Axis-aligned rectangle in the normalized PV plane."""

    min_u: float
    min_v: float
    max_u: float
    max_v: float

    def __post_init__(self):
        values = (self.min_u, self.min_v, self.max_u, self.max_v)
        floats = finite_floats(values)
        if floats is None:
            raise ValueError(f"rectangle bounds must be finite, got {values}")
        min_u, min_v, max_u, max_v = floats
        if min_u > max_u or min_v > max_v:
            raise ValueError(f"rectangle bounds out of order: {values}")
        for name, value in zip(("min_u", "min_v", "max_u", "max_v"), floats):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class BevPolygon:
    """Polygon on the BEV plane: at least three finite vertices.

    ``project_bev`` gives four, counter-clockwise; a box side that rounds to
    nothing gives coincident ones. Nothing that reads a footprint needs
    distinct vertices or a winding: the representative points and ADR pick
    vertices by distance and bearing, the facing sides drop any side no
    longer than EPS_GEOM, and ``area`` is unsigned.
    """

    vertices: tuple

    def __post_init__(self):
        points = [finite_floats((p[0], p[1])) for p in self.vertices]
        if len(points) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for p, point in zip(self.vertices, points):
            if point is None:
                raise ValueError(f"polygon vertex not finite: {p}")
        object.__setattr__(self, "vertices", tuple(Point2(*point) for point in points))

    @property
    def area(self) -> float:
        return shoelace_area(self.vertices)


@dataclass(frozen=True)
class Segment2D:
    """Line segment on the BEV plane with distinct endpoints."""

    a: Point2
    b: Point2

    def __post_init__(self):
        a = finite_floats((self.a[0], self.a[1]))
        b = finite_floats((self.b[0], self.b[1]))
        if a is None or b is None:
            raise ValueError(
                f"segment endpoints must be finite, got {self.a}, {self.b}")
        a, b = Point2(*a), Point2(*b)
        if math.hypot(b.x - a.x, b.z - a.z) <= EPS_GEOM:
            raise ValueError(f"degenerate segment at {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


#: The ``box_corners`` indices of the BEV footprint, counter-clockwise in (x, z).
FOOTPRINT = [5, 4, 0, 1]


def box_corners(box: Box3D) -> tuple:
    """Eight corners of the box in a fixed, bit-coded order.

    Corner ``i`` takes the +x local side iff bit 0 of ``i`` is set, the +y
    side iff bit 1 is set, and the +z side iff bit 2 is set (sides named
    before yaw is applied). Offsets are rotated about the y axis by the yaw
    and translated by the center.
    """
    hx, hy, hz = box.length / 2.0, box.height / 2.0, box.width / 2.0
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    corners = []
    for i in range(8):
        dx = hx if i & 1 else -hx
        dy = hy if i & 2 else -hy
        dz = hz if i & 4 else -hz
        corners.append(Point3(
            box.center_x + dx * c + dz * s,
            box.center_y + dy,
            box.center_z - dx * s + dz * c,
        ))
    return tuple(corners)


def project_pv_rect(box: Box3D) -> Rect2D:
    """Axis-aligned bounding rectangle of the eight corners projected to
    ``(x/z, y/z)`` on the normalized image plane.

    Raises BehindCamera if any corner has depth below EPS_DEPTH, in which
    case the PV constraint is undefined for this box.
    """
    corners = box_corners(box)
    for p in corners:
        if p.z < EPS_DEPTH:
            raise BehindCamera(
                f"box corner at z={p.z:.6g} m is behind the camera plane")
    us = [p.x / p.z for p in corners]
    vs = [p.y / p.z for p in corners]
    return Rect2D(min(us), min(vs), max(us), max(vs))


def project_bev(box: Box3D) -> BevPolygon:
    """Four-vertex counter-clockwise BEV footprint of the box: the (x, z) of
    its ``FOOTPRINT`` corners."""
    corners = box_corners(box)
    return BevPolygon(tuple(Point2(corners[i].x, corners[i].z) for i in FOOTPRINT))


def shoelace_area(vertices: Sequence) -> float:
    """Unsigned polygon area by the shoelace formula."""
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        ax, az = vertices[i][0], vertices[i][1]
        bx, bz = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        acc += ax * bz - bx * az
    return abs(acc) / 2.0


def _clip_convex(subject: Sequence, clip: Sequence) -> list:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, az = clip[i][0], clip[i][1]
        bx, bz = clip[(i + 1) % n][0], clip[(i + 1) % n][1]
        ex, ez = bx - ax, bz - az
        slack = -EPS_GEOM * max(abs(ex), abs(ez))

        def inside(p):
            # non-strict half-plane test; a slack of EPS_GEOM / sqrt(2) to
            # EPS_GEOM metres keeps shared boundaries in
            return ex * (p[1] - az) - ez * (p[0] - ax) >= slack

        def cross_point(p, q):
            den = ex * (q[1] - p[1]) - ez * (q[0] - p[0])
            num = ez * (p[0] - ax) - ex * (p[1] - az)
            t = num / den if den != 0.0 else 0.5
            t = min(1.0, max(0.0, t))
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

        current = output
        output = []
        prev = current[-1]
        prev_in = inside(prev)
        for point in current:
            point_in = inside(point)
            if point_in:
                if not prev_in:
                    output.append(cross_point(prev, point))
                output.append(point)
            elif prev_in:
                output.append(cross_point(prev, point))
            prev, prev_in = point, point_in
    return output


def convex_intersection_area(p: Sequence, q: Sequence) -> float:
    """Area of the intersection of two convex polygons, given as sequences
    of (x, z) vertices, q counter-clockwise; 0 if disjoint."""
    clipped = _clip_convex(p, q)
    if len(clipped) < 3:
        return 0.0
    return shoelace_area(clipped)


def _pair_intersects(s: Segment2D, t: Segment2D) -> bool:
    """Intersection predicate for one segment pair.

    True when the segments share a point that is not a coincident endpoint
    of both; collinear overlap of positive length counts as an intersection.
    """
    ax, az, bx, bz = s.a.x, s.a.z, s.b.x, s.b.z
    cx, cz, dx, dz = t.a.x, t.a.z, t.b.x, t.b.z
    ux, uz = bx - ax, bz - az
    vx, vz = dx - cx, dz - cz
    wx, wz = cx - ax, cz - az
    len_s = math.hypot(ux, uz)
    len_t = math.hypot(vx, vz)
    den = ux * vz - uz * vx

    if abs(den) > EPS_GEOM * len_s * len_t:
        # non-parallel lines: unique intersection at parameters (ts, tt)
        ts = (wx * vz - wz * vx) / den
        tt = (wx * uz - wz * ux) / den
        slack_s = EPS_GEOM / len_s
        slack_t = EPS_GEOM / len_t
        if not (-slack_s <= ts <= 1.0 + slack_s and -slack_t <= tt <= 1.0 + slack_t):
            return False
        px, pz = ax + ts * ux, az + ts * uz

        def near(qx, qz):
            return math.hypot(px - qx, pz - qz) <= EPS_GEOM

        endpoint_of_s = near(ax, az) or near(bx, bz)
        endpoint_of_t = near(cx, cz) or near(dx, dz)
        return not (endpoint_of_s and endpoint_of_t)

    # parallel: only collinear overlap of positive length counts
    if abs(wx * uz - wz * ux) > EPS_GEOM * len_s:
        return False
    t0 = (wx * ux + wz * uz) / len_s  # projection of t.a onto s, meters
    t1 = ((dx - ax) * ux + (dz - az) * uz) / len_s
    lo = max(0.0, min(t0, t1))
    hi = min(len_s, max(t0, t1))
    return hi - lo > EPS_GEOM


def segments_intersect(segments: Iterable[Segment2D]) -> bool:
    """True iff some pair of segments intersects, excluding touches at
    coincident endpoints; fewer than two segments give False.

    The representative-point sets this serves hold at most four segments, so
    the quadratic pairwise test is used rather than a sweep line.
    """
    segs = list(segments)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _pair_intersects(segs[i], segs[j]):
                return True
    return False


def _vertical_interval(box: Box3D) -> tuple:
    half = box.height / 2.0
    return box.center_y - half, box.center_y + half


def _vertical_overlap(p: Box3D, g: Box3D) -> float:
    p_lo, p_hi = _vertical_interval(p)
    g_lo, g_hi = _vertical_interval(g)
    return min(p_hi, g_hi) - max(p_lo, g_lo)


def _volume(box: Box3D, footprint: BevPolygon) -> float:
    lo, hi = _vertical_interval(box)
    return footprint.area * (hi - lo)


def _overlap_volume(subject: BevPolygon, clip: BevPolygon, vertical: float) -> float:
    """Overlap volume of two boxes from their BEV footprints and the overlap
    of their vertical intervals; ``subject`` is clipped by ``clip``."""
    if vertical <= 0.0:
        return 0.0
    return convex_intersection_area(subject.vertices, clip.vertices) * vertical


def box_volume(box: Box3D) -> float:
    """Box volume as BEV footprint area times vertical extent.

    Both factors are computed through the same code paths as the
    intersection volume so that containment yields exact volume ratios.
    """
    return _volume(box, project_bev(box))


def _canonical_overlap(p: Box3D, g: Box3D, fp_p: BevPolygon, fp_g: BevPolygon) -> float:
    # the footprint with the smaller vertex tuple is the clipping subject, so
    # the result does not depend on the argument order
    vertical = _vertical_overlap(p, g)
    if fp_p.vertices <= fp_g.vertices:
        return _overlap_volume(fp_p, fp_g, vertical)
    return _overlap_volume(fp_g, fp_p, vertical)


def intersection_volume(p: Box3D, g: Box3D) -> float:
    """Overlap volume: BEV footprint intersection area times vertical overlap.

    The clipping order is fixed canonically so the result is bit-identical
    under argument swap.
    """
    return _canonical_overlap(p, g, project_bev(p), project_bev(g))


def iou3d(p: Box3D, g: Box3D) -> float:
    """Intersection-over-union of overlap volume against the union volume.

    Raises ValueError when the union volume is 0.0, which needs both
    volumes to be 0.0.
    """
    fp_p, fp_g = project_bev(p), project_bev(g)
    inter = _canonical_overlap(p, g, fp_p, fp_g)
    union = _volume(p, fp_p) + _volume(g, fp_g) - inter
    if union == 0.0:
        raise ValueError("union volume of the two boxes is 0.0")
    return min(1.0, inter / union)


def iogt3d(p: Box3D, g: Box3D) -> float:
    """Intersection-over-ground-truth: overlap volume against Vol(g) alone.

    Unlike IoU it measures enclosure, not alignment. The ground-truth
    footprint is used as the clipping subject so full containment gives a
    ratio of exactly 1. The converse holds only up to the clip's half-plane
    slack: a ground-truth footprint sticking out past a prediction side by
    less than EPS_GEOM / sqrt(2) metres still counts as covered, by more
    than EPS_GEOM metres never (between the two it depends on the side's
    bearing), while the vertical intervals are compared exactly. So
    ``iogt3d(Box3D(0, 0, 10, 2 - 4e-10, 1.5, 2, 0), Box3D(0, 0, 10, 2, 1.5, 2, 0))``
    is 1.0, and the same 4e-10 short in height gives 0.99999999973. The
    prediction is projected only when the vertical intervals overlap.
    A footprint with a side that rounds to nothing is clipped like any
    other, so a sliver prediction reads about 0. Raises ValueError when the
    ground truth's volume is 0.0, naming its center and both factors: a
    footprint area that rounds to 0, or a vertical extent that does, as when
    the height vanishes against a huge ``center_y``.
    """
    fp_g = project_bev(g)
    volume = _volume(g, fp_g)
    if volume == 0.0:
        lo, hi = _vertical_interval(g)
        raise ValueError(f"ground-truth volume is 0.0 at {g[:3]!r} (footprint area "
                         f"{fp_g.area!r}, vertical extent {hi - lo!r} from height "
                         f"{g.height!r})")
    vertical = _vertical_overlap(p, g)
    inter = _overlap_volume(fp_g, project_bev(p), vertical) if vertical > 0.0 else 0.0
    return min(1.0, inter / volume)


# --- batch kernels -----------------------------------------------------------

#: Most pairs a batch kernel (``iogt3d_batch``, ``constraints.usc_batch``,
#: ``loss.safety_loss_batch``) holds in its working arrays at once, which
#: bounds its memory whatever the batch length.
BATCH_CAP = 256

# Local corner sides in ``box_corners`` order (bit 0: x, bit 1: y, bit 2: z).
_SIDE_X = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
_SIDE_Y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_SIDE_Z = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0])

#: Most vertices a clipped footprint holds in ``_clip_rows``: each of the
#: four clipping edges adds at most one in exact arithmetic.
_CLIP_SLOTS = 8


def pair_batches(chunk, preds: Sequence, gts: Sequence) -> tuple:
    """Run a batch kernel's ``chunk`` on consecutive slices of at most
    BATCH_CAP prediction / ground-truth pairs, in pair order, with numpy's
    floating-point warnings off, and join each array it returns. With no
    pairs it calls ``chunk`` once on the empty slices, so the arrays keep
    their dtypes. Raises ValueError unless the lengths agree.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions but {len(gts)} ground truths")
    with np.errstate(all="ignore"):
        parts = [chunk(preds[start:start + BATCH_CAP], gts[start:start + BATCH_CAP])
                 for start in range(0, max(len(preds), 1), BATCH_CAP)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def first_failing_pair(kernel, preds: np.ndarray, gts: np.ndarray) -> int:
    """The index of the first pair on which a batch kernel raises
    ValueError, given that it raises on ``preds`` and ``gts``. A kernel
    decides its pairs in order and raises on the first that fails, so it
    raises on a prefix of the pairs exactly when the prefix holds that pair:
    a bisection over prefixes finds it."""
    passes, raises = 0, len(preds)
    while raises - passes > 1:
        middle = (passes + raises) // 2
        try:
            kernel(preds[:middle], gts[:middle])
            passes = middle
        except ValueError:
            raises = middle
    return raises - 1


def map_math(fn, *arrays) -> np.ndarray:
    """Apply a scalar ``math`` function elementwise. numpy's own hypot,
    arctan2 and power differ from ``math`` in the last bit on some inputs,
    and the batch kernels must match the scalar path bit for bit."""
    shape = arrays[0].shape
    flat = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *flat), np.float64, arrays[0].size).reshape(shape)


def box_array(boxes) -> np.ndarray:
    """n boxes as an (n, 7) float64 array, one row of values per box: an
    array as it is, any other sequence of 7-tuples (``Box3D``) by value."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.fromiter(chain.from_iterable(boxes), np.float64,
                       7 * len(boxes)).reshape(-1, 7)


def corner_arrays(boxes):
    """(n, 8) arrays of the x, y and z corner coordinates of each box, given
    as ``box_array`` takes them: the array form of ``box_corners``, the same
    floats in the same order."""
    cx, cy, cz, length, height, width, yaw = box_array(boxes).T
    c, s = map_math(math.cos, yaw), map_math(math.sin, yaw)
    # (hx * c) * -1 is box_corners' -hx * c, as negation is exact; y comes
    # last, so that no more than x, z and one product are held at once
    x = cx[:, None] + (length / 2.0 * c)[:, None] * _SIDE_X
    x += (width / 2.0 * s)[:, None] * _SIDE_Z
    z = cz[:, None] - (length / 2.0 * s)[:, None] * _SIDE_X
    z += (width / 2.0 * c)[:, None] * _SIDE_Z
    y = cy[:, None] + (height / 2.0)[:, None] * _SIDE_Y
    return x, y, z


def _shoelace_rows(x, z, count) -> np.ndarray:
    """``shoelace_area`` of the first ``count`` vertices of each row, summed
    in the same order."""
    width = x.shape[1]
    acc = np.zeros(len(x))
    for i in range(width):
        has_next = i + 1 < count
        bx = np.where(has_next, x[:, (i + 1) % width], x[:, 0])
        bz = np.where(has_next, z[:, (i + 1) % width], z[:, 0])
        acc += np.where(i < count, x[:, i] * bz - bx * z[:, i], 0.0)
    return abs(acc) / 2.0


def _clip_rows(sx, sz, cx, cz):
    """``_clip_convex`` of each row's subject footprint by its clip
    footprint, both (n, 4) arrays, with the same arithmetic in the same
    order.

    Returns the clipped vertices in (n, 8) arrays, their counts, and a mask
    of the rows whose clip emitted more than 8 vertices at some edge, which
    rounding can cause; their vertices are cut short.

    At each edge every live slot may emit its crossing point, then its
    vertex. An emitted value goes to the slot numbered by how many values its
    row emitted before it at that edge (a running sum, no sort), and values
    from the ninth on are dropped. Slots at or past a row's count keep
    whatever they held before: nothing reads them, since the live-slot mask
    here, ``_shoelace_rows`` and the ``count >= 3`` gate of ``_iogt3d_chunk``
    all stop at the count.
    """
    n = len(sx)
    rows = np.arange(n)
    slots = np.arange(_CLIP_SLOTS)
    x = np.zeros((n, _CLIP_SLOTS))
    z = np.zeros((n, _CLIP_SLOTS))
    x[:, :4], z[:, :4] = sx, sz
    count = np.full(n, 4)
    overflow = np.zeros(n, dtype=bool)
    for i in range(4):
        ax, az = cx[:, i, None], cz[:, i, None]
        ex = cx[:, (i + 1) % 4, None] - ax
        ez = cz[:, (i + 1) % 4, None] - az
        inside = (ex * (z - az) - ez * (x - ax)
                  >= -EPS_GEOM * np.maximum(abs(ex), abs(ez)))
        # each slot's previous vertex: the slot before it, and for slot 0 the
        # last live slot
        last = count - 1
        px = np.concatenate([x[rows, last, None], x[:, :-1]], axis=1)
        pz = np.concatenate([z[rows, last, None], z[:, :-1]], axis=1)
        prev_in = np.concatenate([inside[rows, last, None], inside[:, :-1]], axis=1)
        # cross_point(prev, point); np.minimum and np.maximum would keep a
        # NaN that Python's min and max drop
        den = ex * (z - pz) - ez * (x - px)
        num = ez * (px - ax) - ex * (pz - az)
        t = np.where(den != 0.0, num / den, 0.5)
        t = np.where(t > 0.0, t, 0.0)
        t = np.where(t < 1.0, t, 1.0)
        # each vertex emits its crossing point, then itself, into two slots
        live = slots < count[:, None]
        emit = np.stack([live & (inside != prev_in), live & inside],
                        axis=2).reshape(n, 2 * _CLIP_SLOTS)
        pos = np.cumsum(emit, axis=1) - 1
        count = pos[:, -1] + 1
        overflow |= count > _CLIP_SLOTS
        r, c = np.nonzero(emit & (pos < _CLIP_SLOTS))
        slot, vertex, kind = pos[r, c], c // 2, c % 2
        x[r, slot] = np.stack([px + t * (x - px), x], axis=2)[r, vertex, kind]
        z[r, slot] = np.stack([pz + t * (z - pz), z], axis=2)[r, vertex, kind]
        count = np.minimum(count, _CLIP_SLOTS)
    return x, z, count, overflow


def _iogt3d_chunk(preds, gts) -> tuple:
    p_x, p_y, p_z = corner_arrays(preds)
    g_x, g_y, g_z = corner_arrays(gts)
    px, pz = p_x[:, FOOTPRINT], p_z[:, FOOTPRINT]
    gx, gz = g_x[:, FOOTPRINT], g_z[:, FOOTPRINT]
    # corners 0 and 2 sit at the bottom and top of the vertical interval;
    # no bound is NaN, so np.minimum and np.maximum pick as min and max do
    p_lo, p_hi, g_lo, g_hi = p_y[:, 0], p_y[:, 2], g_y[:, 0], g_y[:, 2]
    volume = _shoelace_rows(gx, gz, 4) * (g_hi - g_lo)
    vertical = np.minimum(p_hi, g_hi) - np.maximum(p_lo, g_lo)
    x, z, count, overflow = _clip_rows(gx, gz, px, pz)
    area = np.where(count >= 3, _shoelace_rows(x, z, count), 0.0)
    ratio = np.where(vertical > 0.0, area * vertical, 0.0) / volume
    value = np.where(ratio < 1.0, ratio, 1.0)  # as min(1.0, ratio): NaN reads 1.0

    # Pairs on which iogt3d may raise (a footprint that is not finite, or a
    # ground-truth volume of 0.0), or whose clip ran out of slots, go through
    # it, so that it decides them.
    finite = np.isfinite(np.hstack([px, pz, gx, gz])).all(axis=1)
    scalar = ~(finite & (volume != 0.0)) | overflow
    for row in np.flatnonzero(scalar):
        value[row] = iogt3d(Box3D(*preds[row].tolist()), Box3D(*gts[row].tolist()))
    return (value,)


def iogt3d_batch(preds, gts) -> np.ndarray:
    """``iogt3d`` of many prediction / ground-truth pairs at once, given as
    ``box_array`` takes them, run by ``pair_batches``.

    Returns a float64 array whose every value equals, bit for bit, what
    ``iogt3d`` gives for that pair: the kernel repeats its arithmetic in the
    same order, with ``math`` for the cosine and sine. Three kinds of pair
    are passed to ``iogt3d``, which decides them: a footprint that is not
    finite and a ground-truth volume of 0.0, on which it may raise, so the
    first such pair raises the same error here; and a clip that ran out of
    slots. Every other pair, a sliver's included, is scored in the arrays.
    """
    return pair_batches(_iogt3d_chunk, box_array(preds), box_array(gts))[0]
