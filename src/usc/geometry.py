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

The overlap measures, 3D IoGT and IoU, have one implementation: the array
kernel ``iogt3d_batch`` clips footprints with the Sutherland-Hodgman rule in
arrays, a batch of pairs at a time. ``iogt3d`` is its one-pair call, and
``iou3d`` is built from its helpers. The scalar clip they repeat bit for bit
is kept with the tests, as their reference.

All functions are pure; values are immutable and safe to share across
threads.
"""

from __future__ import annotations

import math
import sys
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
    distinct vertices: the representative points and ADR pick vertices by
    distance and bearing, the facing sides drop any side no longer than
    EPS_GEOM, and the overlap measures take their unsigned shoelace area.
    The overlap measures clip footprints in arrays, and build a polygon only
    to raise its error on a vertex that is not finite.
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


# --- batch kernels -----------------------------------------------------------

#: Most pairs a batch kernel (``iogt3d_batch``, ``constraints.usc_batch``,
#: ``loss.safety_loss_batch``) holds in its working arrays at once, which
#: bounds its memory whatever the batch length. Its geometry arrays are
#: slot-major: one column per pair or box, and one row per footprint vertex
#: or clip slot; slots at or past a pair's vertex count are never read.
#: Each chunk costs a fixed run of numpy calls that takes as long as some
#: 200 pairs, so fewer, larger chunks are faster. At this cap the load,
#: not the kernels, sets the peak memory: a fresh ``usc loss`` on the
#: loss_near data reads about 0.2 MB more RSS than at 256. At 2,048 it read
#: about 1.5 MB more, near 4% of loss_near's 39.5 MB and past the
#: benchmark's 3% bound.
BATCH_CAP = 1024

#: Vertex slots the slot-major arrays of ``_clip_rows`` hold at first: each
#: of the four clipping edges adds at most one vertex in exact arithmetic.
#: Slots at or past a pair's vertex count are never read.
_CLIP_SLOTS = 8

# Local x and z sides of the FOOTPRINT corners and y sides of a bottom and a
# top corner, one row each (``box_corners`` bits 0, 2 and 1)
_SIDE_X, _SIDE_Z = (np.array([[1.0 if i & bit else -1.0] for i in FOOTPRINT])
                    for bit in (1, 4))
_SIDE_Y = np.array([[-1.0], [1.0]])


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
    """Apply a scalar ``math`` function elementwise. numpy's own arctan2 and
    power differ from ``math`` in the last bit on some inputs, and nothing
    ties its cos and sin to ``math``'s, while the batch kernels must match
    the scalar path bit for bit. They take ``math.cos``, ``math.sin``,
    ``math.atan2``, ``pow`` and ``wrap_angle`` this way (``footprint_arrays``
    and ADR map over lists of their own, so as to share or repeat one);
    ``math.hypot`` has an array form, ``hypot``."""
    shape = arrays[0].shape
    flat = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *flat), np.float64, arrays[0].size).reshape(shape)


#: Whether ``hypot`` computes in arrays: only on the interpreter versions
#: whose ``math.hypot`` it has been checked against bit for bit
#: (``tests/test_geometry.py::TestHypot``). On any other it maps
#: ``math.hypot``.
_HYPOT_IN_ARRAYS = sys.version_info[:2] == (3, 11)

#: Veltkamp's splitting constant for float64, 2**27 + 1.
_VELTKAMP = 134217729.0

#: The exponent bits of a float64, and the bits of 2.0 ** 1022: for a
#: normal float f in [2**(e-1), 2**e), with e <= 1022, the bits of 2.0 **
#: 1022 minus the exponent bits of f are the bits of 2.0 ** -e.
_EXPONENT_BITS = np.int64(0x7FF0000000000000)
_SCALE_BITS = np.int64((1022 + 1023) << 52)

#: The larger magnitudes ``hypot`` handles in arrays: normal floats below
#: 2.0 ** 1021, where its scale 2.0 ** -e is a normal float and no step
#: overflows.
_HYPOT_MIN, _HYPOT_MAX = 2.0 ** -1022, 2.0 ** 1021


def _square(x):
    """The exact square of each of ``x`` as a pair (hi, lo) with hi + lo =
    x * x: Veltkamp's split of x into halves of 26 bits, whose products
    are exact, and Dekker's product of x by itself, CPython's ``dl_mul``.
    Overwrites nothing it is given."""
    t = x * _VELTKAMP
    hi = t - x
    np.subtract(t, hi, out=hi)  # hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = np.multiply(hi, lo, out=hi)
    q += q  # hi * lo + lo * hi
    z = p + q
    np.subtract(p, z, out=p)
    p += q
    np.multiply(lo, lo, out=lo)
    p += lo  # p - z + q + lo * lo
    return z, p


def hypot(x, z) -> np.ndarray:
    """``math.hypot`` of each pair of the float64 arrays ``x`` and ``z``, of
    one shape, bit for bit: the kernels' distances and norms.

    The array form repeats the steps of CPython 3.11's ``vector_norm`` for
    two values, in the same order, so each pair rounds as ``math.hypot``
    rounds it. With m the larger magnitude, in [2**(e-1), 2**e):

    - both magnitudes are scaled by 2.0 ** -e, which is exact and brings m
      into [0.5, 1);
    - each scaled value is squared exactly into (hi, lo) (``_square``);
    - the hi parts are added to ``csum = 1.0`` by fast two-sum, which is
      exact (csum >= |hi|), keeping its rounding error in ``frac2``, while
      the lo parts go to ``frac1``;
    - h = sqrt(csum - 1.0 + (frac1 + frac2)), whose exact square is then
      taken off the sums the same way, and the residual x corrects h once,
      h + x / (2h), before h is unscaled by 2.0 ** e.

    A pair whose larger magnitude is 0, subnormal, at least 2**1021 or not
    finite is taken by ``math.hypot`` itself. Raises no floating-point
    warning. On an interpreter the array form has not been checked
    against (``_HYPOT_IN_ARRAYS``) every pair is taken by ``math.hypot``.
    """
    if not _HYPOT_IN_ARRAYS:
        return map_math(math.hypot, x, z)
    x, z = abs(x), abs(z)
    big = np.maximum(x, z)
    scalar = np.flatnonzero(~((big >= _HYPOT_MIN) & (big < _HYPOT_MAX)))
    if len(scalar):
        exact = list(map(math.hypot, x.take(scalar).tolist(), z.take(scalar).tolist()))
    with np.errstate(all="ignore"):
        scale = (_SCALE_BITS - (big.view(np.int64) & _EXPONENT_BITS)).view(np.float64)
        x *= scale
        z *= scale
        # each fraction sum starts as its first term rather than 0.0 plus
        # it, which differs only in the sign of a zero that no later sum
        # shows: csum - 1.0 is at least 0.25 where it is added
        hi, frac1 = _square(x)
        csum = hi + 1.0
        frac2 = 1.0 - csum
        frac2 += hi
        hi, lo = _square(z)
        frac1 += lo
        total = csum + hi
        np.subtract(csum, total, out=csum)
        csum += hi
        frac2 += csum
        csum = total
        h = csum - 1.0
        h += frac1 + frac2
        np.sqrt(h, out=h)
        hi, lo = _square(h)  # (-h) * h is (-hi, -lo), as rounding is symmetric
        total = csum - hi
        np.subtract(csum, total, out=csum)
        csum -= hi
        frac2 += csum
        frac1 -= lo
        total -= 1.0
        frac1 += frac2
        total += frac1
        total /= 2.0 * h
        h += total  # the differential correction
        h /= scale
    if len(scalar):
        h.put(scalar, exact)
    return h


def box_array(boxes) -> np.ndarray:
    """n boxes as an (n, 7) float64 array, one row of values per box: an
    array as it is, any other sequence of 7-tuples (``Box3D``) by value."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.fromiter(chain.from_iterable(boxes), np.float64,
                       7 * len(boxes)).reshape(-1, 7)


def footprint_arrays(boxes):
    """(4, n) arrays of the x and z of the ``FOOTPRINT`` corners of n boxes,
    given as ``box_array`` takes them, one row per corner in that order, and
    a (2, n) array of the y of a bottom and a top corner: the same floats as
    ``box_corners`` gives for those corners."""
    cx, cy, cz, length, height, width, yaw = box_array(boxes).T
    yaws = yaw.tolist()
    c, s = (np.fromiter(map(fn, yaws), np.float64, len(yaws)) for fn in (math.cos, math.sin))
    # (hx * c) * -1 is box_corners' -hx * c, as negation is exact
    x = cx + (length / 2.0 * c) * _SIDE_X
    x += (width / 2.0 * s) * _SIDE_Z
    z = cz - (length / 2.0 * s) * _SIDE_X
    z += (width / 2.0 * c) * _SIDE_Z
    y = cy + (height / 2.0) * _SIDE_Y
    return x, y, z


def _shoelace_rows(x, z, count) -> np.ndarray:
    """The unsigned shoelace area of the first ``count`` vertices of each
    column of the slot-major arrays ``x`` and ``z``, summed one slot at a
    time from the first vertex on."""
    width = len(x)
    acc = np.zeros(x.shape[1])
    for i in range(width):
        has_next = i + 1 < count
        bx = np.where(has_next, x[(i + 1) % width], x[0])
        bz = np.where(has_next, z[(i + 1) % width], z[0])
        acc += np.where(i < count, x[i] * bz - bx * z[i], 0.0)
    return abs(acc) / 2.0


def _clip_rows(x, z, cx, cz):
    """Sutherland-Hodgman clip of each pair's subject footprint by its clip
    footprint. All four arrays are slot-major (4, n): one row per vertex
    slot and one column per pair. The clip footprints are counter-clockwise.

    Returns the clipped vertices in slot-major (w, n) arrays and their
    counts. The arrays hold ``_CLIP_SLOTS`` slots; where rounding makes an
    edge emit more vertices, they widen to hold them all. An edge at most
    doubles a count, so no clip holds more than 64.

    At each edge every live slot may emit its crossing point, then its
    vertex. A slot's previous vertex is the slot above it, and for slot 0
    its pair's last live slot. Crossing points are computed only where a
    slot emits one. An emitted value goes to the slot numbered by how many
    values its pair emitted before it at that edge: a running sum, added up
    one row at a time, with no sort. The emitting slots are found, read and
    written by flat index, slot * n + pair, into the C-contiguous arrays:
    numpy's nonzero, cumsum and two-array indexing along the short slot
    axis cost several times as much. Slots at or past a pair's count hold
    stale values and are never read: the live-slot mask here and
    ``_shoelace_rows`` stop at the count. A
    count is 0 or at least 3: the inside test changes an even number of
    times around a polygon, each change emits a crossing point, and a change
    needs an inside vertex, which is kept. So the area needs no gate on 3
    vertices: ``_shoelace_rows`` of a count of 0 is 0.0.
    """
    n = x.shape[1]
    pair = np.arange(n)
    x, z = (np.concatenate([v, np.zeros((_CLIP_SLOTS - 4, n))]) for v in (x, z))
    count = np.full(n, 4)
    for i in range(4):
        ax, az = cx[i], cz[i]
        ex, ez = cx[(i + 1) % 4] - ax, cz[(i + 1) % 4] - az
        # non-strict half-plane test; a slack of EPS_GEOM / sqrt(2) to
        # EPS_GEOM metres keeps shared boundaries in
        inside = (ex * (z - az) - ez * (x - ax)
                  >= -EPS_GEOM * np.maximum(abs(ex), abs(ez)))
        live = np.arange(len(x))[:, None] < count
        # the flat index of each pair's last live slot (of slot -1, which
        # take wraps to the last row, for a count of 0)
        last = (count - 1) * n + pair
        prev_in = np.empty_like(inside)
        prev_in[0], prev_in[1:] = inside.take(last), inside[:-1]
        cross, keep = live & (inside != prev_in), live & inside
        # one past the slot of each slot's last emitted value
        end = np.add(cross, keep, dtype=np.intp)
        for row in range(1, len(end)):
            end[row] += end[row - 1]
        count = end[-1]
        # the crossing point of the edge's line with the segment from the
        # previous vertex, its parameter clamped to [0, 1] and 0.5 on a
        # parallel segment; a NaN parameter reads 0.0
        at = np.flatnonzero(cross)
        k, j = np.divmod(at, n)
        prev = np.where(k > 0, at - n, last.take(j))
        qx, qz, px, pz = x.take(at), z.take(at), x.take(prev), z.take(prev)
        ex_j, ez_j = ex.take(j), ez.take(j)
        den = ex_j * (qz - pz) - ez_j * (qx - px)
        num = ez_j * (px - ax.take(j)) - ex_j * (pz - az.take(j))
        t = np.where(den != 0.0, num / den, 0.5)
        t = np.where(t > 0.0, t, 0.0)
        t = np.where(t < 1.0, t, 1.0)
        kept = np.flatnonzero(keep)
        kept_x, kept_z = x.take(kept), z.take(kept)
        if count.max(initial=0) > len(x):
            x, z = np.zeros((2, count.max(), n))
        # each slot emits its crossing point, then its vertex, to its
        # pair's slot end - 1, at flat index (end - 1) * n + pair: written
        # through flat views, which ravel gives of C-contiguous arrays
        assert x.flags.c_contiguous and z.flags.c_contiguous
        flat_x, flat_z = x.ravel(), z.ravel()
        slot = (end.take(at) - 1 - keep.take(at)) * n + j
        flat_x[slot], flat_z[slot] = px + t * (qx - px), pz + t * (qz - pz)
        slot = (end.take(kept) - 1) * n + kept % n
        flat_x[slot], flat_z[slot] = kept_x, kept_z
    return x, z, count


def _footprint(x, z) -> BevPolygon:
    """The BEV polygon of one footprint's vertex coordinates:
    ``BevPolygon`` raises its error on a vertex that is not finite."""
    return BevPolygon(tuple(map(Point2, x.tolist(), z.tolist())))


def _iogt3d_chunk(preds, gts) -> tuple:
    n = len(preds)
    x, y, z = footprint_arrays(np.concatenate([preds, gts]))
    px, pz, gx, gz = x[:, :n], z[:, :n], x[:, n:], z[:, n:]
    # no bound is NaN, so np.minimum and np.maximum pick as min and max do
    p_lo, p_hi, g_lo, g_hi = y[0, :n], y[1, :n], y[0, n:], y[1, n:]
    g_area = _shoelace_rows(gx, gz, 4)
    volume = g_area * (g_hi - g_lo)
    vertical = np.minimum(p_hi, g_hi) - np.maximum(p_lo, g_lo)

    # The first pair that fails raises its first error, in this order: a
    # ground-truth footprint that is not finite, a ground-truth volume of
    # 0.0, and a prediction footprint that is not finite where the vertical
    # intervals overlap (elsewhere the prediction is not read).
    finite = (np.isfinite(x) & np.isfinite(z)).all(axis=0)
    p_finite, g_finite = finite[:n], finite[n:]
    failing = ~g_finite | (volume == 0.0) | ((vertical > 0.0) & ~p_finite)
    if failing.any():
        row = failing.argmax()
        _footprint(gx[:, row], gz[:, row])  # raises if a vertex is not finite
        if volume[row] == 0.0:
            raise ValueError(
                f"ground-truth volume is 0.0 at {tuple(gts[row, :3].tolist())!r} "
                f"(footprint area {g_area[row].item()!r}, vertical extent "
                f"{(g_hi[row] - g_lo[row]).item()!r} from height "
                f"{gts[row, 4].item()!r})")
        _footprint(px[:, row], pz[:, row])  # raises: only this error is left

    x, z, count = _clip_rows(gx, gz, px, pz)
    area = _shoelace_rows(x, z, count)
    ratio = np.where(vertical > 0.0, area * vertical, 0.0) / volume
    value = np.where(ratio < 1.0, ratio, 1.0)  # as min(1.0, ratio): NaN reads 1.0
    return (value,)


def iogt3d_batch(preds, gts) -> np.ndarray:
    """``iogt3d`` of many prediction / ground-truth pairs at once, given as
    ``box_array`` takes them, run by ``pair_batches``: a float64 array.

    The intersection volume is the ground-truth footprint clipped by the
    prediction's, times the overlap of the vertical intervals. The first
    pair in order on which ``iogt3d`` is undefined raises its ValueError:
    a footprint vertex that is not finite (the ground truth's, or the
    prediction's where the vertical intervals overlap), or a ground-truth
    volume of 0.0. Every other pair, a sliver's included, is scored.
    """
    return pair_batches(_iogt3d_chunk, box_array(preds), box_array(gts))[0]


def iogt3d(p: Box3D, g: Box3D) -> float:
    """Intersection-over-ground-truth: overlap volume against Vol(g) alone,
    as a one-pair call of ``iogt3d_batch``.

    Unlike IoU it measures enclosure, not alignment. The ground-truth
    footprint is used as the clipping subject so full containment gives a
    ratio of exactly 1. The converse holds only up to the clip's half-plane
    slack: a ground-truth footprint sticking out past a prediction side by
    less than EPS_GEOM / sqrt(2) metres still counts as covered, by more
    than EPS_GEOM metres never (between the two it depends on the side's
    bearing), while the vertical intervals are compared exactly. So
    ``iogt3d(Box3D(0, 0, 10, 2 - 4e-10, 1.5, 2, 0), Box3D(0, 0, 10, 2, 1.5, 2, 0))``
    is 1.0, and the same 4e-10 short in height gives 0.99999999973. A
    footprint with a side that rounds to nothing is clipped like any other,
    so a sliver prediction reads about 0. Raises ValueError when the ground
    truth's volume is 0.0, naming its center and both factors: a footprint
    area that rounds to 0, or a vertical extent that does, as when the
    height vanishes against a huge ``center_y``; and, as ``iogt3d_batch``
    says, on a footprint vertex that is not finite.
    """
    return iogt3d_batch([p], [g]).item()


def iou3d(p: Box3D, g: Box3D) -> float:
    """Intersection-over-union of overlap volume against the union volume,
    from the helpers of ``iogt3d_batch``.

    The footprint with the smaller vertex tuple is the clipping subject, so
    the value does not depend on the argument order. Raises ValueError on a
    footprint vertex that is not finite, the prediction's first, and when
    the union volume is 0.0, which needs both volumes to be 0.0.
    """
    with np.errstate(all="ignore"):
        fx, y, fz = footprint_arrays([p, g])
        footprints = [_footprint(fx[:, col], fz[:, col]).vertices for col in (0, 1)]
        p_area, g_area = _shoelace_rows(fx, fz, 4).tolist()
        (p_lo, g_lo), (p_hi, g_hi) = y.tolist()
        vertical = min(p_hi, g_hi) - max(p_lo, g_lo)
        inter = 0.0
        if vertical > 0.0:
            subject = 0 if footprints[0] <= footprints[1] else 1
            clip = 1 - subject
            cx, cz, count = _clip_rows(fx[:, [subject]], fz[:, [subject]],
                                       fx[:, [clip]], fz[:, [clip]])
            inter = _shoelace_rows(cx, cz, count).item() * vertical
    union = p_area * (p_hi - p_lo) + g_area * (g_hi - g_lo) - inter
    if union == 0.0:
        raise ValueError("union volume of the two boxes is 0.0")
    return min(1.0, inter / union)
