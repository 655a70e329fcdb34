import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (MonteCarloOracle, box_volume_reference,
                     intersection_volume_reference, iogt3d_reference,
                     iou3d_reference, segments_intersect_oracle)
from strategies import boxes, finite
from usc import (EPS_GEOM, BevPolygon, Box3D, Point2, Segment2D, box_corners,
                 box_volume, convex_intersection_area, intersection_volume,
                 iogt3d, iou3d, project_bev, project_pv_rect,
                 segments_intersect, shoelace_area, wrap_angle)
from usc.errors import BehindCamera

SMALL_MC = MonteCarloOracle(samples=200_000, seed=99)


def corner_set(points):
    return {tuple(round(c, 9) for c in p) for p in points}


class TestBoxCorners:
    def test_unit_cube_at_origin(self):
        corners = box_corners(Box3D(0, 0, 0, 1, 1, 1, 0.0))
        expected = set(itertools.product((-0.5, 0.5), repeat=3))
        assert corner_set(corners) == expected

    def test_translation(self):
        corners = box_corners(Box3D(0, 0, 10, 1, 1, 1, 0.0))
        expected = {(x, y, 10 + z)
                    for x, y, z in itertools.product((-0.5, 0.5), repeat=3)}
        assert corner_set(corners) == expected

    def test_bit_coded_order(self):
        corners = box_corners(Box3D(0, 0, 0, 2, 4, 6, 0.0))
        for i, corner in enumerate(corners):
            assert corner.x == (1.0 if i & 1 else -1.0)
            assert corner.y == (2.0 if i & 2 else -2.0)
            assert corner.z == (3.0 if i & 4 else -3.0)

    def test_quarter_turn_swaps_extents(self):
        corners = box_corners(Box3D(0, 0, 0, 2, 1, 1, math.pi / 2))
        xs = [c.x for c in corners]
        zs = [c.z for c in corners]
        assert max(xs) == pytest.approx(0.5, abs=1e-12)
        assert max(zs) == pytest.approx(1.0, abs=1e-12)

    @given(boxes())
    def test_matches_rotation_matrix(self, box):
        # independent construction: rotation matrix applied to local offsets
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        expected = set()
        for sx, sy, sz in itertools.product((-1, 1), repeat=3):
            dx = sx * box.length / 2
            dy = sy * box.height / 2
            dz = sz * box.width / 2
            expected.add((round(box.center_x + c * dx + s * dz, 9),
                          round(box.center_y + dy, 9),
                          round(box.center_z - s * dx + c * dz, 9)))
        assert corner_set(box_corners(box)) == expected


class TestBox3DValidation:
    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, -1, 1, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box3D(math.nan, 0, 0, 1, 1, 1, 0)

    def test_finite_values_whose_sum_overflows_accepted(self):
        box = Box3D(1e308, 1e308, 0, 1e308, 1, 1, 0)
        assert box.center_x == box.center_y == box.length == 1e308

    @pytest.mark.parametrize("infinities", [(math.inf, -math.inf), (math.inf, 1.0)])
    def test_rejects_infinities_whatever_their_sum(self, infinities):
        with pytest.raises(ValueError, match="finite"):
            Box3D(*infinities, 0, 1, 1, 1, 0)

    @given(st.lists(st.floats() | st.sampled_from([1e308, -1e308, math.inf]),
                    min_size=7, max_size=7))
    def test_accepts_exactly_finite_positive_sizes(self, values):
        valid = all(map(math.isfinite, values)) and min(values[3:6]) > 0
        try:
            Box3D(*values)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_yaw_normalized(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, 0.25).yaw == 0.25

    @given(finite(-50, 50))
    def test_wrap_angle_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)
        assert math.isclose(math.cos(wrapped), math.cos(angle), abs_tol=1e-9)


class TestProjectPv:
    def test_point_projection_arithmetic(self):
        # single corner dominating the rectangle: box shrunk to a point-ish cube
        box = Box3D(1, 1, 2, 1e-6, 1e-6, 1e-6, 0.0)
        rect = project_pv_rect(box)
        assert rect.min_u == pytest.approx(0.5, abs=1e-5)
        assert rect.max_v == pytest.approx(0.5, abs=1e-5)

    def test_unit_cube_extents(self):
        rect = project_pv_rect(Box3D(0, 0, 10, 1, 1, 1, 0.0))
        # near corners at z = 9.5 dominate both extents
        bound = 0.5 / 9.5
        assert rect.max_u == pytest.approx(bound, abs=1e-12)
        assert rect.min_u == pytest.approx(-bound, abs=1e-12)
        assert rect.max_v == pytest.approx(bound, abs=1e-12)
        assert rect.min_v == pytest.approx(-bound, abs=1e-12)

    @given(boxes())
    def test_rect_bounds_all_corners(self, box):
        try:
            rect = project_pv_rect(box)
        except BehindCamera:
            assert min(c.z for c in box_corners(box)) < 1e-3
            return
        for corner in box_corners(box):
            assert rect.min_u - 1e-9 <= corner.x / corner.z <= rect.max_u + 1e-9
            assert rect.min_v - 1e-9 <= corner.y / corner.z <= rect.max_v + 1e-9

    def test_straddling_camera_plane_raises(self):
        with pytest.raises(BehindCamera):
            project_pv_rect(Box3D(0, 0, 0.2, 1, 1, 1, 0.0))


class TestProjectBev:
    def test_axis_aligned_vertices(self):
        poly = project_bev(Box3D(2, 0, 10, 2, 1, 2, 0.0))
        assert {(v.x, v.z) for v in poly.vertices} == {(1, 9), (3, 9), (3, 11), (1, 11)}

    def test_half_turn_is_same_point_set(self):
        a = project_bev(Box3D(1, 0, 8, 3, 1, 2, 0.0))
        b = project_bev(Box3D(1, 0, 8, 3, 1, 2, math.pi))
        assert corner_set(a.vertices) == corner_set(b.vertices)

    def test_thin_box_still_four_vertices(self):
        poly = project_bev(Box3D(0, 0, 10, 2, 1, 1e-6, 0.7))
        assert len(poly.vertices) == 4

    @given(boxes())
    def test_counter_clockwise_and_area(self, box):
        poly = project_bev(box)
        assert len(poly.vertices) == 4
        assert poly.area == pytest.approx(box.length * box.width, rel=1e-9)
        # signed area positive = counter-clockwise
        acc = 0.0
        for i in range(4):
            a, b = poly.vertices[i], poly.vertices[(i + 1) % 4]
            acc += a.x * b.z - b.x * a.z
        assert acc > 0


class TestConvexIntersectionArea:
    def test_identical_unit_squares(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert convex_intersection_area(square, square) == 1.0

    def test_offset_squares(self):
        a = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = [(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)]
        assert convex_intersection_area(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint(self):
        a = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = [(3, 3), (4, 3), (4, 4), (3, 4)]
        assert convex_intersection_area(a, b) == 0.0

    def test_monte_carlo_cross_check(self):
        a = project_bev(Box3D(0, 0, 10, 3, 1, 2, 0.4))
        b = project_bev(Box3D(0.8, 0, 10.5, 2.5, 1, 2.2, -0.3))
        area = convex_intersection_area(a, b)
        rng = np.random.default_rng(5)
        pts = rng.uniform([-3, 6], [4, 14], size=(1_000_000, 2))

        def inside(poly, points):
            ok = np.ones(len(points), bool)
            verts = poly.vertices
            for i in range(len(verts)):
                p, q = verts[i], verts[(i + 1) % len(verts)]
                ok &= ((q.x - p.x) * (points[:, 1] - p.z)
                       - (q.z - p.z) * (points[:, 0] - p.x)) >= 0
            return ok

        box_area = 7.0 * 8.0
        frac = np.count_nonzero(inside(a, pts) & inside(b, pts)) / len(pts)
        assert area == pytest.approx(frac * box_area, abs=0.005 * area + 1e-3)

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_bounded_by_inputs_and_vertices_on_both(self, b1, b2):
        p, q = project_bev(b1), project_bev(b2)
        area = convex_intersection_area(p, q)
        assert area <= min(p.area, q.area) * (1 + 1e-9) + 1e-12
        clipped = _clipped_vertices(p, q)
        for vertex in clipped:
            assert _violation(vertex, p) <= 1e-8
            assert _violation(vertex, q) <= 1e-8


def _clipped_vertices(p, q):
    from usc.geometry import _as_ccw_vertices, _clip_convex
    return _clip_convex(_as_ccw_vertices(p), _as_ccw_vertices(q))


def _violation(point, poly):
    """How far the point sits outside the polygon's worst half-plane."""
    worst = 0.0
    verts = poly.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        length = math.hypot(b.x - a.x, b.z - a.z)
        cross = (b.x - a.x) * (point[1] - a.z) - (b.z - a.z) * (point[0] - a.x)
        worst = max(worst, -cross / length)
    return worst


def seg(ax, az, bx, bz):
    return Segment2D(Point2(ax, az), Point2(bx, bz))


class TestSegmentsIntersect:
    def test_crossing_diagonals(self):
        assert segments_intersect([seg(0, 0, 2, 2), seg(0, 2, 2, 0)]) is True

    def test_shared_endpoint_only(self):
        assert segments_intersect([seg(0, 0, 1, 1), seg(1, 1, 2, 0)]) is False

    def test_collinear_overlap(self):
        assert segments_intersect([seg(0, 0, 2, 0), seg(1, 0, 3, 0)]) is True

    def test_collinear_touching_endpoints_only(self):
        assert segments_intersect([seg(0, 0, 1, 0), seg(1, 0, 2, 0)]) is False

    def test_t_junction_counts(self):
        # endpoint of one in the interior of the other is not a shared endpoint
        assert segments_intersect([seg(0, 0, 2, 0), seg(1, 0, 1, 1)]) is True

    def test_shared_endpoint_with_collinear_overlap(self):
        assert segments_intersect([seg(0, 0, 2, 0), seg(0, 0, 1, 0)]) is True

    def test_needs_two_segments(self):
        with pytest.raises(ValueError):
            segments_intersect([seg(0, 0, 1, 1)])

    def test_four_segment_set(self):
        segs = [seg(0, 5, -1, 6), seg(0, 5, 1, 6),
                seg(0, 7, -1, 8), seg(0, 7, 1, 8)]
        assert segments_intersect(segs) is False
        segs.append(seg(-2, 5.5, 2, 5.5))
        assert segments_intersect(segs) is True

    @given(st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=2, max_size=4))
    @settings(max_examples=400)
    def test_agrees_with_orientation_oracle(self, raw):
        segs = []
        for ax, az, bx, bz in raw:
            if (ax, az) != (bx, bz):
                segs.append(seg(ax, az, bx, bz))
        if len(segs) < 2:
            return
        assert segments_intersect(segs) == segments_intersect_oracle(segs)


class TestVolumes:
    def test_identical_unit_cubes(self):
        cube = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        assert intersection_volume(cube, cube) == pytest.approx(1.0, abs=1e-12)

    def test_offset_along_z(self):
        p = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 0, 10.5, 1, 1, 1, 0.0)
        assert intersection_volume(p, g) == pytest.approx(0.5, abs=1e-12)

    def test_no_vertical_overlap(self):
        p = Box3D(0, 0.0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 2.0, 10, 1, 1, 1, 0.0)
        assert intersection_volume(p, g) == 0.0

    def test_box_volume(self):
        assert box_volume(Box3D(1, 2, 3, 2, 3, 4, 0.7)) == pytest.approx(24.0, rel=1e-12)


class TestIou3d:
    def test_identity(self):
        cube = Box3D(0.3, -0.2, 9, 1.7, 1.2, 2.4, 0.5)
        assert iou3d(cube, cube) == 1.0

    def test_offset_cubes(self):
        p = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 0, 10.5, 1, 1, 1, 0.0)
        assert iou3d(p, g) == pytest.approx(1 / 3, abs=1e-12)

    def test_disjoint(self):
        assert iou3d(Box3D(0, 0, 5, 1, 1, 1, 0), Box3D(4, 0, 5, 1, 1, 1, 0)) == 0.0

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, a, b):
        value = iou3d(a, b)
        assert 0.0 <= value <= 1.0
        assert value == iou3d(b, a)

    def test_zero_union_volume_raises(self):
        flat = Box3D(0, 1e17, 10, 2, 1.5, 2, 0.0)
        assert box_volume(flat) == 0.0
        with pytest.raises(ValueError, match="^union volume of the two boxes is 0.0$"):
            iou3d(flat, flat)
        assert iou3d(Box3D(0, 0, 10, 2, 1.5, 2, 0.0), flat) == 0.0

    @given(boxes())
    def test_self_iou_is_one(self, box):
        assert abs(iou3d(box, box) - 1.0) < 1e-9


class TestIogt3d:
    def test_containment_is_exactly_one(self):
        g = Box3D(0.4, 0.1, 11, 1.5, 1.1, 2.2, 0.9)
        p = Box3D(0.4, 0.1, 11, 3.0, 2.2, 4.4, 0.9)  # scaled x2 about center
        assert iogt3d(p, g) == 1.0

    def test_offset_cubes(self):
        p = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 0, 10.5, 1, 1, 1, 0.0)
        assert iogt3d(p, g) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint(self):
        assert iogt3d(Box3D(0, 0, 5, 1, 1, 1, 0), Box3D(4, 0, 5, 1, 1, 1, 0)) == 0.0

    def test_zero_ground_truth_volume_raises(self):
        # (1e17 + 0.75) - (1e17 - 0.75) == 0.0 in float64
        g = Box3D(0, 1e17, 10, 2, 1.5, 2, 0.0)
        for p in (g, Box3D(0, 0, 10, 2, 1.5, 2, 0.0)):
            with pytest.raises(ValueError, match=r"^ground-truth volume is 0\.0 "
                               r"\(height 1\.5 at center_y 1e\+17\)$"):
                iogt3d(p, g)
        assert iogt3d(g, Box3D(0, 0, 10, 2, 1.5, 2, 0.0)) == 0.0

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_bounds(self, p, g):
        assert 0.0 <= iogt3d(p, g) <= 1.0

    @given(boxes(), boxes())
    @settings(max_examples=150)
    def test_containment_iff_full_ratio(self, p, g):
        value = iogt3d(p, g)
        contained = abs(intersection_volume(p, g) - box_volume(g)) <= 1e-9 * box_volume(g)
        assert (abs(value - 1.0) <= 1e-9) == contained


def _outcome(measure, *boxes_):
    """The measure's value, or the type and text of its ValueError."""
    try:
        return measure(*boxes_)
    except ValueError as exc:
        return type(exc), str(exc)


def _thin(box, sides):
    """The box with each named side shrunk to at most EPS_GEOM."""
    return dataclasses.replace(box, **{side: EPS_GEOM / 3 for side in sides})


@st.composite
def overlap_pairs(draw):
    """(prediction, ground truth): arbitrary, nearby or enclosing
    predictions; the ground truth, the prediction, both or neither with a
    side at most EPS_GEOM; vertical intervals overlapping or disjoint."""
    g = draw(boxes())
    kind = draw(st.sampled_from(("arbitrary", "nearby", "enclosing")))
    if kind == "arbitrary":
        p = draw(boxes())
    elif kind == "nearby":
        p = Box3D(g.center_x + draw(finite(-1, 1)), g.center_y + draw(finite(-0.5, 0.5)),
                  g.center_z + draw(finite(-1, 1)), g.length * draw(finite(0.6, 1.6)),
                  g.height * draw(finite(0.6, 1.6)), g.width * draw(finite(0.6, 1.6)),
                  g.yaw + draw(finite(-0.6, 0.6)))
    else:
        p = dataclasses.replace(g, length=g.length * draw(finite(1, 2)),
                                height=g.height * draw(finite(1, 2)),
                                width=g.width * draw(finite(1, 2)))
    if draw(st.booleans()):
        gap = (g.height + p.height) / 2 + draw(finite(0, 2))
        p = dataclasses.replace(p, center_y=g.center_y + draw(st.sampled_from((-gap, gap))))
    thin_sides = st.sampled_from(((),) * 4 + (("length",), ("width",), ("length", "width")))
    return _thin(p, draw(thin_sides)), _thin(g, draw(thin_sides))


class TestOverlapAgainstReference:
    """Each measure projects a box once; the reference projects it for every
    factor. Values are bit-identical, and the same ValueError is raised in
    the same order, including when the prediction is never projected."""

    MEASURES = ((iogt3d, iogt3d_reference), (iou3d, iou3d_reference),
                (intersection_volume, intersection_volume_reference))

    def check(self, p, g):
        for measure, reference in self.MEASURES:
            assert _outcome(measure, p, g) == _outcome(reference, p, g)
            assert _outcome(measure, g, p) == _outcome(reference, g, p)
        for box in (p, g):
            assert _outcome(box_volume, box) == _outcome(box_volume_reference, box)
        for measure in (iou3d, intersection_volume):
            forward, backward = _outcome(measure, p, g), _outcome(measure, g, p)
            if isinstance(forward, float) and isinstance(backward, float):
                assert forward == backward

    @given(overlap_pairs())
    @settings(max_examples=400)
    def test_matches_reference(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("p_sides, g_sides", [
        ((), ("length",)), (("width",), ()), (("width",), ("length",)),
        (("length", "width"), ("width",))])
    @pytest.mark.parametrize("center_y", [0.3, 5.0])
    def test_thin_boxes_raise_as_reference(self, p_sides, g_sides, center_y):
        g = _thin(Box3D(0.2, 0.0, 9.0, 1.8, 1.5, 4.2, 0.4), g_sides)
        p = _thin(Box3D(0.5, center_y, 9.3, 2.0, 1.6, 4.5, 0.5), p_sides)
        self.check(p, g)
        expected = (0.0 if center_y == 5.0 and not g_sides
                    else (ValueError, "repeated polygon vertices at index "
                          f"{0 if g_sides == ('length',) else 1}"))
        assert _outcome(iogt3d, p, g) == expected


class TestRigidInvariance:
    @given(boxes(), boxes(), finite(-math.pi, math.pi),
           finite(-10, 10), finite(-10, 10))
    @settings(max_examples=150)
    def test_common_yaw_and_translation(self, a, b, angle, tx, tz):
        def moved(box):
            c, s = math.cos(angle), math.sin(angle)
            x = box.center_x * c + box.center_z * s + tx
            z = -box.center_x * s + box.center_z * c + tz
            return Box3D(x, box.center_y, z, box.length, box.height,
                         box.width, box.yaw + angle)

        assert abs(iou3d(a, b) - iou3d(moved(a), moved(b))) < 1e-6
        assert abs(iogt3d(a, b) - iogt3d(moved(a), moved(b))) < 1e-6


class TestMonteCarloAgreement:
    @given(boxes(center=12.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_overlapping_pairs_within_tolerance(self, g, salt):
        rng = np.random.default_rng(salt)
        p = Box3D(g.center_x + rng.uniform(-1, 1), g.center_y + rng.uniform(-0.4, 0.4),
                  g.center_z + rng.uniform(-1, 1), g.length * rng.uniform(0.7, 1.4),
                  g.height * rng.uniform(0.7, 1.4), g.width * rng.uniform(0.7, 1.4),
                  g.yaw + rng.uniform(-0.5, 0.5))
        mc_iou, mc_iogt = SMALL_MC.overlap(p, g)
        assert iou3d(p, g) == pytest.approx(mc_iou, abs=0.02)
        assert iogt3d(p, g) == pytest.approx(mc_iogt, abs=0.02)


class TestPolygonValidation:
    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            BevPolygon(((0, 0), (2, 0), (0.5, 0.5), (0, 2)))

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            BevPolygon(((0, 0), (0, 1), (1, 1), (1, 0)))

    def test_rejects_repeated_vertices(self):
        with pytest.raises(ValueError):
            BevPolygon(((0, 0), (1, 0), (1, 0), (0, 1)))

    def test_shoelace(self):
        assert shoelace_area([(0, 0), (2, 0), (2, 1), (0, 1)]) == 2.0

    def test_segment_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Segment2D(Point2(1, 1), Point2(1, 1))
