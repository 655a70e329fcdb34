import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (MonteCarloOracle, _clip_convex, box_volume_reference,
                     convex_intersection_area, intersection_volume_reference,
                     iogt3d_reference, iou3d_reference, points_in_box,
                     segments_intersect_oracle, shoelace_area)
from strategies import (boxes, finite, overflow_boxes, overflow_pairs,
                        thin_pairs)
from usc import (EPS_GEOM, BevPolygon, Box3D, Point2, ProtocolConfig,
                 Rect2D, Segment2D, SyntheticSpec, box_corners,
                 footprint_arrays, generate_synthetic, iogt3d, iogt3d_batch,
                 iogt_loss, iou3d, matched_pairs, project_bev,
                 project_pv_rect, segments_intersect, wrap_angle)
from usc import geometry
from usc.errors import BehindCamera
from usc.geometry import BATCH_CAP, FOOTPRINT

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

    @staticmethod
    def assert_footprint_arrays_are_box_corners(box_list):
        # the footprint corners' x and z, and the y of corners 0 (bottom) and
        # 2 (top), one column per box
        x, y, z = footprint_arrays(box_list)
        assert x.shape == z.shape == (4, len(box_list))
        assert y.shape == (2, len(box_list))
        corners = np.array([box_corners(b) for b in box_list]).reshape(-1, 8, 3)
        assert x.tobytes() == corners[:, FOOTPRINT, 0].T.tobytes()
        assert z.tobytes() == corners[:, FOOTPRINT, 2].T.tobytes()
        assert y.tobytes() == corners[:, [0, 2], 1].T.tobytes()

    @given(st.lists(boxes() | overflow_boxes(), max_size=12))
    @settings(max_examples=100)
    def test_footprint_arrays_are_box_corners(self, box_list):
        self.assert_footprint_arrays_are_box_corners(box_list)

    @pytest.mark.parametrize("box_list", [
        [], [Box3D(1, 0, 10, 2, 1, 3, 0), Box3D(-4, 2, 7, 1, 2, 1, 4)]],
        ids=["empty", "ints"])
    def test_footprint_arrays_of_no_boxes_and_of_int_boxes(self, box_list):
        assert all(type(v) is float for b in box_list for v in b)
        self.assert_footprint_arrays_are_box_corners(box_list)


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

    @pytest.mark.parametrize("values", [
        (10**400, 0, 10, 1, 1, 1, 0), (0, 0, 10, 10**400, 1, 1, 0),
        (0, 0, 10, 1, 1, 1, 10**400), (10**400, -10**400, 10, 1, 1, 1, 0)],
        ids=["center", "dimension", "yaw", "cancelling-sum"])
    def test_rejects_int_beyond_float_range(self, values):
        with pytest.raises(ValueError, match="^box parameters must be finite, got "):
            Box3D(*values)

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
        assert shoelace_area(poly.vertices) == pytest.approx(box.length * box.width,
                                                             rel=1e-9)
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
        area = convex_intersection_area(a.vertices, b.vertices)
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
        area = convex_intersection_area(p.vertices, q.vertices)
        smaller = min(shoelace_area(p.vertices), shoelace_area(q.vertices))
        assert area <= smaller * (1 + 1e-9) + 1e-12
        for vertex in _clip_convex(p.vertices, q.vertices):
            assert _violation(vertex, p) <= 1e-8
            assert _violation(vertex, q) <= 1e-8


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
        # with fewer than two segments no pair can cross
        assert segments_intersect([]) is False
        assert segments_intersect([seg(0, 0, 1, 1)]) is False

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
    """The reference's volumes, which the overlap measures are checked
    against, on hand cases."""

    def test_identical_unit_cubes(self):
        cube = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        assert intersection_volume_reference(cube, cube) == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_offset_along_z(self):
        p = Box3D(0, 0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 0, 10.5, 1, 1, 1, 0.0)
        assert intersection_volume_reference(p, g) == pytest.approx(0.5, abs=1e-12)

    def test_no_vertical_overlap(self):
        p = Box3D(0, 0.0, 10, 1, 1, 1, 0.0)
        g = Box3D(0, 2.0, 10, 1, 1, 1, 0.0)
        assert intersection_volume_reference(p, g) == 0.0

    def test_box_volume(self):
        box = Box3D(1, 2, 3, 2, 3, 4, 0.7)
        assert box_volume_reference(box) == pytest.approx(24.0, rel=1e-12)


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
        assert box_volume_reference(flat) == 0.0
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
                               r"at \(0\.0, 1e\+17, 10\.0\) \(footprint area "
                               r"4\.0, vertical extent 0\.0 from height 1\.5\)$"):
                iogt3d(p, g)
        assert iogt3d(g, Box3D(0, 0, 10, 2, 1.5, 2, 0.0)) == 0.0

    def test_zero_ground_truth_footprint_area_raises(self):
        # 1 +- 5e-18 == 1.0, so all four vertices lie on x = 1 and the
        # shoelace sum is exactly 0; the height is not what vanished
        g = Box3D(1.0, 0, 10, 1e-17, 1.5, 2, 0.0)
        with pytest.raises(ValueError, match=r"^ground-truth volume is 0\.0 "
                           r"at \(1\.0, 0\.0, 10\.0\) \(footprint area 0\.0, "
                           r"vertical extent 1\.5 from height 1\.5\)$"):
            iogt3d(Box3D(0, 0, 10, 2, 1.5, 2, 0.0), g)

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_bounds(self, p, g):
        assert 0.0 <= iogt3d(p, g) <= 1.0

    def test_footprint_slack_but_exact_heights(self):
        # the clip's half-plane slack covers a prediction 4e-10 m too short;
        # the vertical intervals have no slack
        g = Box3D(0, 0, 10, 2, 1.5, 2, 0)
        shorter = Box3D(0, 0, 10, 2 - 4e-10, 1.5, 2, 0)
        lower = Box3D(0, 0, 10, 2, 1.5 - 4e-10, 2, 0)
        for measure in (iogt3d, lambda p, g: iogt3d_batch([p], [g])[0]):
            assert measure(shorter, g) == 1.0
            assert measure(lower, g) == 0.9999999997333333
        assert iogt_loss(shorter, g) == 0.0
        assert iogt_loss(lower, g) > 0.0

    @given(boxes(), boxes())
    @settings(max_examples=150)
    def test_containment_iff_full_ratio(self, p, g):
        value = iogt3d(p, g)
        volume = box_volume_reference(g)
        contained = abs(intersection_volume_reference(p, g) - volume) <= 1e-9 * volume
        assert (abs(value - 1.0) <= 1e-9) == contained


def _outcome(measure, *boxes_):
    """The measure's value, or the type and text of its ValueError."""
    try:
        return measure(*boxes_)
    except ValueError as exc:
        return type(exc), str(exc)


def _exact(outcome):
    """An outcome that equals another only when their types agree and a
    float has the same bits."""
    return type(outcome), outcome.hex() if isinstance(outcome, float) else outcome


def _thin(box, sides):
    """The box with each named side shrunk to at most EPS_GEOM."""
    return box._replace(**{side: EPS_GEOM / 3 for side in sides})


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
        p = g._replace(length=g.length * draw(finite(1, 2)),
                       height=g.height * draw(finite(1, 2)),
                       width=g.width * draw(finite(1, 2)))
    if draw(st.booleans()):
        gap = (g.height + p.height) / 2 + draw(finite(0, 2))
        p = p._replace(center_y=g.center_y + draw(st.sampled_from((-gap, gap))))
    thin_sides = st.sampled_from(((),) * 4 + (("length",), ("width",), ("length", "width")))
    return _thin(p, draw(thin_sides)), _thin(g, draw(thin_sides))


class TestOverlapAgainstReference:
    """Each measure clips footprints in arrays; the reference clips vertex
    lists and projects a box afresh for every factor. Values are Python
    floats with the same bits, and the same ValueError is raised in the same
    order, including when the prediction is never projected."""

    MEASURES = ((iogt3d, iogt3d_reference), (iou3d, iou3d_reference))

    def check(self, p, g):
        for measure, reference in self.MEASURES:
            assert _exact(_outcome(measure, p, g)) == _exact(_outcome(reference, p, g))
            assert _exact(_outcome(measure, g, p)) == _exact(_outcome(reference, g, p))
        forward, backward = _outcome(iou3d, p, g), _outcome(iou3d, g, p)
        if isinstance(forward, float) and isinstance(backward, float):
            assert _exact(forward) == _exact(backward)

    @given(overlap_pairs())
    @settings(max_examples=400)
    def test_matches_reference(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("p_sides, g_sides", [
        ((), ("length",)), (("width",), ()), (("width",), ("length",)),
        (("length", "width"), ("width",))])
    @pytest.mark.parametrize("center_y", [0.3, 5.0])
    def test_thin_boxes_raise_as_reference(self, p_sides, g_sides, center_y):
        # A side at most EPS_GEOM raises nothing: the pair is scored as the
        # reference scores it. A sliver's overlap is the share of its long
        # side inside the other footprint; two slivers cross in no area.
        g = _thin(Box3D(0.2, 0.0, 9.0, 1.8, 1.5, 4.2, 0.4), g_sides)
        p = _thin(Box3D(0.5, center_y, 9.3, 2.0, 1.6, 4.5, 0.5), p_sides)
        self.check(p, g)
        vertical = max(0.0, min(center_y + 0.8, 0.75) - max(center_y - 0.8, -0.75))
        if not p_sides and g_sides == ("length",):
            expected = _sliver_share(g, p) * vertical / g.height
        elif p_sides == ("width",) and not g_sides:
            expected = (_sliver_share(p, g) * p.length * p.width * vertical
                        / box_volume_reference(g))
        else:
            expected = 0.0
        assert iogt3d(p, g) == pytest.approx(expected, rel=1e-3, abs=0.0)


def _sliver_share(sliver, box):
    """The share of a sliver's long side that lies inside the footprint of
    ``box``, from 10,001 points along it."""
    a, b, _, d = project_bev(sliver).vertices
    end = b if math.dist(a, b) > math.dist(a, d) else d
    t = np.linspace(0.0, 1.0, 10_001)[:, None]
    xz = np.array(a) + t * (np.array(end) - np.array(a))
    points = np.stack([xz[:, 0], np.full(len(t), box.center_y), xz[:, 1]], axis=1)
    return points_in_box(points, box).mean()


def assert_batch_matches_reference(pairs):
    """``iogt3d_batch`` against ``iogt3d_reference`` pair by pair: the same
    float64 bits for every pair that does not raise, the same error for
    every pair that does, from the batch and from ``iogt3d``, and for the
    whole batch the error of its first such pair."""
    expected = [_outcome(iogt3d_reference, p, g) for p, g in pairs]
    scored = [i for i, value in enumerate(expected) if isinstance(value, float)]
    values = iogt3d_batch([pairs[i][0] for i in scored],
                          [pairs[i][1] for i in scored])
    assert values.dtype == np.float64
    assert values.tobytes() == np.array([expected[i] for i in scored],
                                        dtype=np.float64).tobytes()
    errors = [value for value in expected if not isinstance(value, float)]
    if errors:
        whole = _outcome(iogt3d_batch, [p for p, _ in pairs], [g for _, g in pairs])
        assert isinstance(whole, tuple) and whole == errors[0]
    for (p, g), value in zip(pairs, expected):
        if not isinstance(value, float):
            assert _outcome(iogt3d_batch, [p], [g]) == value
            assert _outcome(iogt3d, p, g) == value


# At overflow scale: clamping the crossing parameter with np.minimum and
# np.maximum keeps a NaN that Python's min and max drop, and reads 0.0 on
# this pair where the reference reads 1.0.
OVERFLOW_PAIR = (
    Box3D(3.708513582821271e+156, 0.0, -1.0235567660606691e+156,
          4.02046377966548e+156, 1.0, 3.1240723233058217e+156, -2.6493865948092647),
    Box3D(1.1174764418204777e+156, 0.0, 1.98670721811444e+156,
          7.740747470861453e+156, 1.0, 6.259342908031175e+156, -1.21939699846706))

BOX_LIST = [Box3D(0.3 * i, 0.1 * i, 10 + 0.2 * i, 2 + 0.1 * i, 1.5, 2, 0.2 * i)
            for i in range(14)]


def clip_emission_order(subject, clip):
    """``_clip_convex``'s emission order written out for one subject and one
    clip polygon: the vertices of the clip."""
    output = list(subject)
    for i in range(len(clip)):
        (ax, az), (bx, bz) = clip[i], clip[(i + 1) % len(clip)]
        ex, ez = bx - ax, bz - az
        slack = -EPS_GEOM * max(abs(ex), abs(ez))
        emitted = []
        for k, (qx, qz) in enumerate(output):
            px, pz = output[k - 1]
            point_in = ex * (qz - az) - ez * (qx - ax) >= slack
            prev_in = ex * (pz - az) - ez * (px - ax) >= slack
            if point_in != prev_in:
                den = ex * (qz - pz) - ez * (qx - px)
                num = ez * (px - ax) - ex * (pz - az)
                t = min(1.0, max(0.0, num / den if den != 0.0 else 0.5))
                emitted.append((px + t * (qx - px), pz + t * (qz - pz)))
            if point_in:
                emitted.append((qx, qz))
        output = emitted
    return output


class TestIogt3dBatch:
    """The kernel against the scalar ``iogt3d_reference``, bit for bit and
    error for error."""

    @given(st.lists(overlap_pairs(), max_size=30))
    @settings(max_examples=150)
    def test_overlap_pairs(self, pairs):
        assert_batch_matches_reference(pairs)

    @pytest.mark.parametrize("p_sides, g_sides", [
        ((), ("length",)), (("width",), ()), (("width",), ("length",)),
        (("length", "width"), ("width",))])
    @pytest.mark.parametrize("center_y", [0.3, 5.0])
    def test_thin_boxes(self, p_sides, g_sides, center_y):
        g = _thin(Box3D(0.2, 0.0, 9.0, 1.8, 1.5, 4.2, 0.4), g_sides)
        p = _thin(Box3D(0.5, center_y, 9.3, 2.0, 1.6, 4.5, 0.5), p_sides)
        assert_batch_matches_reference([(p, g), (g, p), (g, g)])

    @given(st.lists(thin_pairs(), min_size=1, max_size=30))
    @settings(max_examples=150)
    def test_thin_sides_down_to_1e_16(self, pairs):
        assert_batch_matches_reference(pairs)

    @pytest.mark.parametrize("side", [1e-16, 1e-13, 1e-10, 1e-8])
    def test_sliver_of_each_side(self, side):
        # each side of either box at a sliver's width: a thin footprint is
        # scored as iogt3d scores it, and a ground-truth height that rounds
        # to nothing against center_y 0.3 raises as it does
        g = Box3D(0.2, 0.0, 9.0, 1.8, 1.5, 4.2, 0.4)
        p = Box3D(0.5, 0.3, 9.3, 2.0, 1.6, 4.5, 0.5)
        pairs = [(a._replace(**{name: side}), b)
                 for name in ("length", "height", "width")
                 for a, b in ((p, g), (g, p), (p, p))]
        pairs += [(b, a) for a, b in pairs]
        assert_batch_matches_reference(pairs)

    def test_hand_cases(self):
        g = Box3D(0, 0, 10, 2, 1.5, 2, 0)
        cases = [
            (Box3D(0, 0, 10, 3, 2, 3, 0), g),  # containment
            (g, Box3D(0, 0, 10, 3, 2, 3, 0)),  # contained
            (g, g),
            (Box3D(2, 0, 10, 2, 1.5, 2, 0), g),  # touching along an edge
            (Box3D(2, 0, 12, 2, 1.5, 2, 0), g),  # sharing one vertex
            (Box3D(1, 0, 11, 2, 1.5, 2, math.pi / 4), g),  # centred on g's corner
            (Box3D(0, 1.5, 10, 2, 1.5, 2, 0), g),  # touching vertically
            (Box3D(0, 3.0, 10, 2, 1.5, 2, 0), g),  # vertically disjoint
            (Box3D(0, 0.75, 10.5, 2, 1.5, 2, 0.3), g),
            (Box3D(4, 0, 10, 1, 1, 1, 0), g),  # disjoint
        ]
        assert_batch_matches_reference(cases)
        values = iogt3d_batch([p for p, _ in cases], [g for _, g in cases])
        assert values[:3].tolist() == [1.0, 1 / 3, 1.0]
        assert values[[3, 4, 6, 7, 9]].tolist() == [0.0] * 5

    def test_zero_volume_ground_truth(self):
        flat = Box3D(0, 1e17, 10, 2, 1.5, 2, 0.0)
        ahead = Box3D(0, 0, 10, 2, 1.5, 2, 0.0)
        assert_batch_matches_reference([(ahead, ahead), (ahead, flat), (flat, ahead)])

    def test_footprint_not_finite(self):
        # a corner past the float limit: iogt3d raises on the ground truth's
        # footprint, and on the prediction's only when the heights overlap
        overflow = Box3D(0.0, 0.0, 1.74e308, 1e307, 1.0, 1e307, 0.3)
        ahead = Box3D(0, 0, 10, 2, 1.5, 2, 0.0)
        above = ahead._replace(center_y=5.0)
        pairs = [(ahead, ahead), (ahead, overflow), (overflow, ahead), (overflow, above)]
        assert [type(_outcome(iogt3d_reference, p, g)) for p, g in pairs] == [
            float, tuple, tuple, float]
        assert_batch_matches_reference(pairs)

    @given(st.lists(overflow_pairs(), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_overflow_scale(self, pairs):
        assert_batch_matches_reference(pairs)

    def test_overflow_scale_nan_crossing(self):
        assert iogt3d(*OVERFLOW_PAIR) == iogt3d_reference(*OVERFLOW_PAIR) == 1.0
        assert_batch_matches_reference([OVERFLOW_PAIR])

    @pytest.mark.parametrize("p, g", [
        (Box3D(3.2499999985857864, 0, 0.2500000014142135, 0.5, 1, 1.0, 2.356194490192345),
         Box3D(3.25, 0, 0.25, 0.5, 1, 1.0, 2.356194490192345)),
        (Box3D(-3.2499999985857864, 0, 0.5000000014142135, 2.5, 1, 0.5, 2.356194490192345),
         Box3D(-3.25, 0, 0.5, 2.5, 1, 0.5, 2.356194490192345)),
    ])
    def test_crossing_with_zero_denominator(self, p, g):
        # a side of g parallel to one of p's, about EPS_GEOM outside it: the
        # clip takes a crossing point on a segment parallel to the edge
        assert iogt3d(p, g) < 1.0
        assert_batch_matches_reference([(p, g)])

    def test_vertex_exactly_at_the_slack(self):
        # p's 1 m near edge lies on z = 0, so its slack is EPS_GEOM metres:
        # g's near corners at z = -EPS_GEOM count as inside, one ulp farther
        # they do not
        p = Box3D(0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0)
        at = Box3D(0.0, 0.0, -EPS_GEOM + 2.0 ** -30, 0.5, 1.0, 2.0 ** -29, 0.0)
        past = Box3D(0.0, 0.0, at.center_z - 2.0 ** -82, 0.5, 1.0, 2.0 ** -29, 0.0)
        assert project_bev(at).vertices[2].z == -EPS_GEOM
        assert project_bev(past).vertices[2].z == math.nextafter(-EPS_GEOM, -1.0)
        assert iogt3d(p, at) == 1.0
        assert iogt3d(p, past) < 0.5
        assert_batch_matches_reference([(p, at), (p, past)])

    def test_slack_past_a_short_side_is_in_metres(self):
        # p, 1.9e-9 m wide, lies inside g; its short sides admit no more
        # than EPS_GEOM metres of g past them, so the overlap is Vol(p)
        p = Box3D(0.0, 0.0, 8e-9 + 2.0 ** -30, 0.125, 1.0, 2.0 ** -29, 0.0)
        g = Box3D(0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0)
        expected = box_volume_reference(p) / box_volume_reference(g)
        assert iogt3d(p, g) == pytest.approx(expected, rel=1e-8)
        assert iogt3d_batch([p], [g])[0] == iogt3d(p, g)
        assert iou3d(p, g) == pytest.approx(expected, rel=1e-8)

    def test_batch_longer_than_two_chunks(self, monkeypatch):
        # chunks of 7 pairs, so that a few frames span more than two
        monkeypatch.setattr(geometry, "BATCH_CAP", 7)
        cap = geometry.BATCH_CAP
        frames = generate_synthetic(SyntheticSpec(
            seed=7, frames=8, objects_min=2, objects_max=8, depth_bias=0.2,
            lateral_noise=0.1, size_noise=0.05, yaw_noise=0.05))
        matched, _, _ = matched_pairs(frames, ProtocolConfig())
        pairs = [(m.detection.box, m.annotation.box)
                 for key in sorted(matched) for m in matched[key]]
        assert len(pairs) > 2 * cap
        expected = [iogt3d_reference(p, g) for p, g in pairs]

        def no_scalar_fallback(*args):
            raise AssertionError("well-formed pairs must not reach iogt3d")

        with monkeypatch.context() as patch:
            patch.setattr(geometry, "iogt3d", no_scalar_fallback)
            values = iogt3d_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert values.tobytes() == np.array(expected).tobytes()

        # a thin ground truth is scored; of two zero volumes, the first one's
        # error is raised
        thin = _thin(pairs[0][1], ("length",))
        sliver = Box3D(1.0, 0, 10, 1e-17, 1.5, 2, 0.0)
        flat = Box3D(0, 1e17, 10, 2, 1.5, 2, 0.0)
        pairs.insert(2 * cap + 3, (pairs[0][0], flat))
        pairs.insert(cap + 1, (pairs[0][0], sliver))
        pairs.insert(5, (pairs[0][0], thin))
        with pytest.raises(ValueError, match=r"^ground-truth volume is 0\.0 "
                           r"at \(1\.0, 0\.0, 10\.0\) \(footprint area 0\.0,"):
            iogt3d_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert_batch_matches_reference(pairs)

    def test_production_cap_matches_chunks_of_7(self, monkeypatch):
        # more than two chunks at the production cap give the bits of
        # chunks of 7 pairs, which the test above checks against the
        # reference
        rng = np.random.default_rng(31)
        n = 2 * BATCH_CAP + 5
        gts = np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-1, 1, n),
                               rng.uniform(4, 20, n), rng.uniform(0.5, 5, (n, 3)),
                               rng.uniform(-math.pi, math.pi, n)])
        preds = gts + rng.normal(0.0, [0.3, 0.1, 0.3, 0.1, 0.1, 0.1, 0.1], (n, 7))
        values = iogt3d_batch(preds, gts)
        assert 0.0 < values.mean() < 1.0
        monkeypatch.setattr(geometry, "BATCH_CAP", 7)
        assert values.tobytes() == iogt3d_batch(preds, gts).tobytes()

    def test_clip_rows_against_clip_convex(self):
        # arbitrary quadrilaterals, non-convex ones included, clipped by a
        # rotated rectangle; a few keep more than 8 vertices
        rng = np.random.default_rng(5)
        subject = rng.integers(-3, 4, size=(2000, 2, 4)).astype(float)
        clip = np.array(project_bev(Box3D(0.5, 0, 0.25, 2.5, 1, 2, 0.3)).vertices).T
        with np.errstate(all="ignore"):
            x, z, count = geometry._clip_rows(
                subject[:, 0].T, subject[:, 1].T, np.tile(clip[0], (2000, 1)).T,
                np.tile(clip[1], (2000, 1)).T)
        assert 0 < (count > 8).sum() < 100
        for row in range(len(subject)):
            expected = _clip_convex(subject[row].T.tolist(), clip.T.tolist())
            got = np.stack([x[:, row], z[:, row]], axis=1)[:count[row]]
            assert got.tolist() == [list(v) for v in expected]

    @staticmethod
    def assert_clip_rows_in_emission_order(subject, clip):
        """``_clip_rows`` of (n, 2, 4) subjects and clips: each pair's
        vertices are those ``clip_emission_order`` emits, never 1 or 2 of
        them, and its ``_shoelace_rows`` area is their ``shoelace_area``, bit
        for bit. Returns the slot-major arrays and the counts."""
        with np.errstate(all="ignore"):
            x, z, count = geometry._clip_rows(
                subject[:, 0].T, subject[:, 1].T, clip[:, 0].T, clip[:, 1].T)
            area = geometry._shoelace_rows(x, z, count)
        expected = []
        for col in range(len(subject)):
            vertices = clip_emission_order(subject[col].T.tolist(),
                                           clip[col].T.tolist())
            assert count[col] == len(vertices)
            got = np.stack([x[:, col], z[:, col]], axis=1)[:count[col]]
            assert got.tobytes() == np.array(vertices).reshape(-1, 2).tobytes()
            expected.append(shoelace_area(vertices))
        assert area.tobytes() == np.array(expected).tobytes()
        assert not np.isin(count, (1, 2)).any()
        return x, z, count

    def test_clip_rows_compaction_against_emission_order(self):
        # random subjects and clips, some with more than 8 vertices, then
        # four hand-made pairs: a disjoint pair, a square clipped by a
        # diamond to an octagon, a crossed subject that emits more than 8
        # vertices at some edge and keeps them all, and a subject side
        # parallel to the clip's first edge that rounding puts across it:
        # its crossing has den == 0.0, and so the parameter 0.5
        rng = np.random.default_rng(21)

        def quads(*hand):
            return np.concatenate([rng.integers(-3, 4, size=(1500, 2, 4)).astype(float),
                                   rng.uniform(-3, 3, size=(500, 2, 4)), hand])

        square = [[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]]
        diamond = [[1.25, 0.0, -1.25, 0.0], [0.0, 1.25, 0.0, -1.25]]
        disjoint = [[10.0, 11.0, 11.0, 10.0], [10.0, 10.0, 11.0, 11.0]]
        crossed = [[-3.0, 3.0, -2.0, 2.0], [3.0, 0.0, 0.0, -3.0]]
        # (1 - az) - 1 rounds to above -EPS_GEOM, -az is below it
        az = EPS_GEOM * (1 + 2.0 ** -40)
        parallel = [[0.0, 1.0, 0.0, -0.5], [0.0, 1.0, 2.0, 1.0]]
        tilted = [[0.0, 4.0, 0.0, -4.0], [az, 4 + az, 8 + az, 4 + az]]
        x, z, count = self.assert_clip_rows_in_emission_order(
            quads(disjoint, square, crossed, parallel),
            quads(square, diamond, square, tilted))
        assert count[-4:].tolist() == [0, 8, 9, 5]
        assert (x[1, -1], z[1, -1]) == (0.5, 0.5)
        assert 0 < (count > 8).sum() < 100

    def test_clip_rows_widen_only_for_a_clip_of_more_than_8_vertices(self):
        # the crossed subject emits 9 vertices at the square's last edge: the
        # arrays widen to hold them all, and stay 8 wide without it
        square = [[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]]
        crossed = [[-3.0, 3.0, -2.0, 2.0], [3.0, 0.0, 0.0, -3.0]]
        diamond = [[1.25, 0.0, -1.25, 0.0], [0.0, 1.25, 0.0, -1.25]]
        for subjects, counts in (([diamond, crossed], [8, 9]),
                                 ([diamond, diamond], [8, 8])):
            x, z, count = self.assert_clip_rows_in_emission_order(
                np.array(subjects), np.array([square, square]))
            assert count.tolist() == counts
            assert x.shape == z.shape == (max(counts), 2)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="^2 predictions but 1 ground truths$"):
            iogt3d_batch(BOX_LIST[:2], BOX_LIST[:1])

    def test_empty_batch(self):
        values = iogt3d_batch([], [])
        assert values.shape == (0,) and values.dtype == np.float64


def hypot_bits(x, z):
    """The bits of ``geometry.hypot`` of ``x`` and ``z`` and of
    ``math.hypot`` of each pair, checking that the inputs are not changed."""
    before = x.tobytes(), z.tobytes()
    got = geometry.hypot(x, z)
    assert (x.tobytes(), z.tobytes()) == before
    expected = np.array(list(map(math.hypot, x.ravel().tolist(), z.ravel().tolist())))
    return got.view(np.int64), expected.reshape(x.shape).view(np.int64)


class TestHypot:
    """``geometry.hypot`` against ``math.hypot``, bit for bit: on this
    interpreter in arrays where ``_HYPOT_IN_ARRAYS`` says so (CPython 3.11),
    and by ``map_math`` elsewhere."""

    @staticmethod
    def sample(rng, size):
        """Pairs over the exponent range: uniform, log-normal, raw bit
        patterns (NaN, infinities and subnormals among them), exponents
        drawn from the whole range with the smaller operand up to 2**-60 of
        the larger, and near-ties around (3, 4), whose exact hypot is 5."""
        sign = rng.choice([-1.0, 1.0], size=(2, size))
        bits = rng.integers(-2 ** 63, 2 ** 63, size=(2, size), dtype=np.int64)
        scale = rng.integers(-1074, 1024, size=size)
        ties = rng.integers(-64, 65, size=(2, size)) * 2.0 ** -50
        families = [
            rng.uniform(-100.0, 100.0, size=(2, size)),
            sign * rng.lognormal(0.0, 20.0, size=(2, size)),
            bits.view(np.float64),
            sign * np.ldexp(rng.uniform(0.5, 1.0, size=(2, size)),
                            [scale, scale - rng.integers(0, 61, size=size)]),
            [3.0 + ties[0], 4.0 + ties[1]],
        ]
        x, z = np.concatenate(families, axis=1)
        return x, z

    def test_seeded_sample_bit_for_bit(self):
        x, z = self.sample(np.random.default_rng(2024), 64_000)
        assert len(x) == 320_000
        got, expected = hypot_bits(x, z)
        assert (got == expected).all()
        # the sample reaches both paths: most pairs in arrays, some by math
        normal = (np.maximum(abs(x), abs(z)) >= 2.0 ** -1022) & (
            np.maximum(abs(x), abs(z)) < 2.0 ** 1021)
        assert 0.9 < normal.mean() < 1.0

    def test_edge_grid_bit_for_bit(self):
        tiny = 2.0 ** -1022
        huge = 2.0 ** 1021
        big = 1.7976931348623157e308
        values = [0.0, 5e-324, 2.5e-320, math.nextafter(tiny, 0.0), tiny,
                  math.nextafter(tiny, 1.0), 1e-300, 0.5, 1.0, 3.0, 4.0, 5.0,
                  math.nextafter(huge, 0.0), huge, 2.0 ** 1022, big / 2,
                  math.nextafter(big, 0.0), big, math.inf, math.nan]
        values += [-v for v in values]
        x, z = np.array(list(itertools.product(values, repeat=2))).T
        got, expected = hypot_bits(x, z)
        assert (got == expected).all()
        # two dimensions, with pairs of both paths
        got, expected = hypot_bits(x.reshape(40, -1), z.reshape(40, -1))
        assert got.shape == (40, 40) and (got == expected).all()

    @pytest.mark.parametrize("x, z", [([0.0], [0.0]), ([-0.0, 0.0], [0.0, -0.0]),
                                      ([], []), ([1e308, math.nan], [1e308, math.inf])])
    def test_no_floating_point_warning(self, x, z):
        with np.errstate(all="raise"):
            got, expected = hypot_bits(np.array(x), np.array(z))
        assert (got == expected).all()

    def test_map_math_where_arrays_are_not_checked(self, monkeypatch):
        # on an interpreter whose math.hypot the array form has not been
        # checked against, every pair goes to math.hypot
        calls = []
        map_math = geometry.map_math
        monkeypatch.setattr(geometry, "_HYPOT_IN_ARRAYS", False)
        monkeypatch.setattr(geometry, "map_math",
                            lambda fn, *arrays: calls.append(fn) or map_math(fn, *arrays))
        x, z = self.sample(np.random.default_rng(7), 100)
        got, expected = hypot_bits(x, z)
        assert (got == expected).all()
        assert calls == [math.hypot]


class TestPairBatches:
    """The one driver of both batch kernels, with a stand-in chunk that
    records the slices it is given."""

    @staticmethod
    def recording_chunk(calls):
        def chunk(preds, gts):
            calls.append((list(preds), list(gts)))
            return (np.array(preds, dtype=np.float64),
                    np.array(gts, dtype=np.int8))
        return chunk

    def test_lengths_must_agree(self):
        calls = []
        with pytest.raises(ValueError, match="^2 predictions but 1 ground truths$"):
            geometry.pair_batches(self.recording_chunk(calls), [1, 2], [3])
        assert calls == []

    @pytest.mark.parametrize("n", [1, BATCH_CAP - 1, BATCH_CAP, BATCH_CAP + 1,
                                   2 * BATCH_CAP + 3])
    def test_slices_of_at_most_cap_pairs_in_order(self, n):
        calls = []
        preds, gts = list(range(n)), [i % 100 for i in range(n)]
        values, codes = geometry.pair_batches(self.recording_chunk(calls), preds, gts)
        assert len(calls) == -(-n // BATCH_CAP)
        assert all(0 < len(p) == len(g) <= BATCH_CAP for p, g in calls)
        assert [i for p, _ in calls for i in p] == preds
        assert [i for _, g in calls for i in g] == gts
        assert values.tolist() == preds and codes.tolist() == gts
        assert values.dtype == np.float64 and codes.dtype == np.int8

    def test_rows_are_gathered_one_slice_at_a_time(self, monkeypatch):
        # the pairs (preds[i], gts[j]) for the rows (i, j), in row order
        monkeypatch.setattr(geometry, "BATCH_CAP", 7)
        calls = []
        preds, gts = np.arange(100, 140), np.arange(200, 230)
        det = np.random.default_rng(3).integers(0, 40, 23)
        ann = np.random.default_rng(4).integers(0, 30, 23)
        values, codes = geometry.pair_batches(
            self.recording_chunk(calls), preds, gts, (det, ann))
        assert [len(p) for p, _ in calls] == [7, 7, 7, 2]
        assert [i for p, _ in calls for i in p] == preds[det].tolist()
        assert [j for _, g in calls for j in g] == gts[ann].tolist()
        with pytest.raises(ValueError, match="^23 predictions but 22 ground truths$"):
            geometry.pair_batches(self.recording_chunk(calls), preds, gts,
                                  (det, ann[:-1]))
        values, codes = geometry.pair_batches(
            self.recording_chunk(calls), preds, gts, (det[:0], ann[:0]))
        assert calls[-1] == ([], []) and values.shape == codes.shape == (0,)

    def test_no_pairs_calls_the_chunk_once(self):
        calls = []
        values, codes = geometry.pair_batches(self.recording_chunk(calls), [], [])
        assert calls == [([], [])]
        assert values.shape == codes.shape == (0,)
        assert values.dtype == np.float64 and codes.dtype == np.int8

    def test_warnings_off_inside_the_chunk_only(self):
        def chunk(preds, gts):
            return (np.array(preds) / np.array(gts),)

        with np.errstate(all="raise"):
            (values,) = geometry.pair_batches(chunk, [1.0, 0.0], [0.0, 0.0])
            assert values[0] == math.inf and math.isnan(values[1])
            with pytest.raises(FloatingPointError):
                np.array([1.0]) / np.array([0.0])


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
    @pytest.mark.parametrize("vertices, area", [
        (((0, 0), (2, 0), (0.5, 0.5), (0, 2)), 1.0),  # reflex
        (((0, 0), (0, 1), (1, 1), (1, 0)), 1.0),  # clockwise
        (((0, 0), (1, 0), (1, 0), (0, 1)), 0.5),  # repeated vertex
        (((1, 9), (1, 9), (1, 11), (1, 11)), 0.0),  # a box side of 0 m
    ], ids=["reflex", "clockwise", "repeated", "sliver"])
    def test_accepts_any_finite_vertices(self, vertices, area):
        assert shoelace_area(BevPolygon(vertices).vertices) == area

    def test_rejects_fewer_than_three_vertices(self):
        with pytest.raises(ValueError, match="^polygon needs at least 3 vertices$"):
            BevPolygon(((0, 0), (1, 0)))

    def test_rect_rejects_bounds_out_of_order(self):
        with pytest.raises(ValueError, match="^rectangle bounds out of order"):
            Rect2D(0.0, 1.0, 1.0, 0.5)

    def test_shoelace(self):
        assert shoelace_area([(0, 0), (2, 0), (2, 1), (0, 1)]) == 2.0

    def test_segment_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Segment2D(Point2(1, 1), Point2(1, 1))

    @pytest.mark.parametrize("build", [
        lambda: Rect2D(10**400, 0, 1, 1), lambda: Rect2D("1", 0, 1, 1),
        lambda: Rect2D(0, math.nan, 1, 1),
        lambda: Segment2D((math.inf, 0), (1, 1)),
        lambda: Segment2D((0, 0), (1, math.nan)),
        lambda: Segment2D((10**400, 0), (1, 1)),
        lambda: BevPolygon(((10**400, 0), (1, 0), (1, 1))),
        lambda: BevPolygon(((0, 0), ("1", 0), (1, 1)))],
        ids=["rect-huge-int", "rect-string", "rect-nan", "segment-inf",
             "segment-nan", "segment-huge-int", "polygon-huge-int",
             "polygon-string"])
    def test_non_finite_number_is_a_value_error(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_numbers_are_stored_as_floats(self):
        rect = Rect2D(0, 0, 1, True)
        segment = Segment2D((0, 0), (1, 1))
        polygon = BevPolygon(((0, 0), (1, 0), (1, 1)))
        assert repr(rect) == ("Rect2D(min_u=0.0, min_v=0.0, max_u=1.0, "
                              "max_v=1.0)")
        assert repr((segment.a, segment.b)) == (
            "(Point2(x=0.0, z=0.0), Point2(x=1.0, z=1.0))")
        assert polygon.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        assert all(type(v) is float for p in polygon.vertices for v in p)
