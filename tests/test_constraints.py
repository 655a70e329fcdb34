import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import hull_contains
from strategies import boxes, finite, frontal_boxes, frontal_pairs, thin_pairs
from usc import (EPS_DEPTH, EPS_GEOM, BevPolygon, Box3D, Point2, ProtocolConfig,
                 Rect2D, SyntheticSpec, adr, azimuth, bev_constraint,
                 box_corners, distance_ratio_geomean, generate_synthetic,
                 iogt_pv, project_bev, project_pv_rect, pv_constraint,
                 representative_points, usc_score)
from usc import constraints, geometry
from usc.geometry import BATCH_CAP, map_math
from usc.constraints import EXCLUSION_REASONS, usc_batch
from usc.errors import BehindCamera, BehindVehicle, DegenerateGroundTruth
from usc.evaluation import matched_pairs


AHEAD = Box3D(0.0, 0.0, 10.0, 4.5, 1.7, 1.9, 0.0)
BEHIND = Box3D(0.0, 0.0, 0.5, 4.5, 1.7, 1.9, 0.0)
#: 1.8 mm wide and 1e13 m off, so all four footprint vertices share one
#: bearing: the footprint has no vehicle-facing side
FAR = Box3D(8881733906860.004, 0.0, 4065451049573.2236, 1.4485064961420586,
            808.5728874333704, 0.0018175574008870465, 2.7123276880465355)


def rect(min_u, min_v, max_u, max_v):
    return Rect2D(min_u, min_v, max_u, max_v)


@st.composite
def grid_rects(draw, min_side_mm=1):
    # millimeter-grid coordinates keep containment decisions away from
    # floating-point boundaries
    u0 = draw(st.integers(-50_000, 50_000)) * 1e-3
    v0 = draw(st.integers(-50_000, 50_000)) * 1e-3
    du = draw(st.integers(min_side_mm, 60_000)) * 1e-3
    dv = draw(st.integers(min_side_mm, 60_000)) * 1e-3
    return rect(u0, v0, u0 + du, v0 + dv)


class TestIogtPv:
    def test_containment_saturates(self):
        assert iogt_pv(rect(-1, -1, 3, 3), rect(0, 0, 2, 2)) == 1.0

    def test_half_overlap(self):
        assert iogt_pv(rect(1, 0, 3, 2), rect(0, 0, 2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint(self):
        assert iogt_pv(rect(5, 5, 6, 6), rect(0, 0, 2, 2)) == 0.0

    def test_degenerate_ground_truth(self):
        with pytest.raises(DegenerateGroundTruth):
            iogt_pv(rect(0, 0, 1, 1), rect(0, 0, 0, 0))

    @given(grid_rects(), grid_rects())
    @settings(max_examples=300)
    def test_bounds(self, p, g):
        assert 0.0 <= iogt_pv(p, g) <= 1.0


class TestPvConstraint:
    def test_identical_rectangles(self):
        g = rect(0, 0, 2, 2)
        assert pv_constraint(g, g) is True

    def test_shifted_exposes_strip(self):
        g = rect(0, 0, 2, 2)
        assert pv_constraint(rect(0.1, 0, 2.1, 2), g) is False

    def test_slightly_expanded(self):
        g = rect(0, 0, 2, 2)
        assert pv_constraint(rect(-0.01, -0.01, 2.01, 2.01), g) is True

    @given(grid_rects(), grid_rects())
    @settings(max_examples=500)
    def test_equivalent_to_full_iogt(self, p, g):
        assert pv_constraint(p, g) == (abs(iogt_pv(p, g) - 1.0) <= 1e-12)


class TestPvScaleInvariance:
    """Why PV rectangles live on the normalized image plane with no focal
    length: a camera scale multiplies both rectangles by one factor, and
    neither PV measure depends on it. Powers of two scale exactly in binary
    floating point, so the measures must agree bit for bit."""

    @given(grid_rects(min_side_mm=1000), grid_rects(min_side_mm=1000),
           st.integers(-20, 20))
    @settings(max_examples=300)
    def test_common_power_of_two_scale(self, p, g, k):
        # sides of at least 1 keep the scaled ground-truth area (>= 2**-40)
        # far above the degenerate threshold EPS_GEOM**2
        def scaled(r):
            return rect(*(math.ldexp(c, k)
                          for c in (r.min_u, r.min_v, r.max_u, r.max_v)))

        assert iogt_pv(scaled(p), scaled(g)).hex() == iogt_pv(p, g).hex()
        assert pv_constraint(scaled(p), scaled(g)) == pv_constraint(p, g)


def poly(*pts):
    return BevPolygon(tuple(Point2(x, z) for x, z in pts))


class TestRepresentativePoints:
    def test_example_rectangle(self):
        rep = representative_points(poly((1, 9), (3, 9), (3, 11), (1, 11)))
        assert rep.closest == Point2(1, 9)
        assert rep.closest.norm() == pytest.approx(math.sqrt(82), abs=1e-12)
        assert rep.rightmost == Point2(3, 9)
        assert azimuth(rep.rightmost) == pytest.approx(0.32175, abs=1e-4)
        assert rep.leftmost == Point2(1, 11)
        assert azimuth(rep.leftmost) == pytest.approx(0.0907, abs=1e-4)

    def test_tie_breaks_lexicographically(self):
        rep = representative_points(poly((-1, 9), (1, 9), (1, 11), (-1, 11)))
        assert rep.closest == Point2(-1, 9)

    def test_vertex_behind_vehicle(self):
        with pytest.raises(BehindVehicle):
            representative_points(poly((1, -1), (3, -1), (3, 1), (1, 1)))

    def test_origin_inside(self):
        with pytest.raises(BehindVehicle):
            representative_points(poly((1, -1), (1, 1), (-1, 1), (-1, -1)))

    def test_vertex_within_eps_geom_of_vehicle(self):
        with pytest.raises(BehindVehicle):
            representative_points(poly((0, EPS_GEOM / 2), (1, 1), (0, 2), (-1, 1)))

    def test_vertex_past_eps_geom_ahead_of_vehicle(self):
        rep = representative_points(poly((0, 2 * EPS_GEOM), (1, 1), (0, 2), (-1, 1)))
        assert rep.closest == Point2(0, 2 * EPS_GEOM)

    @given(frontal_boxes())
    @settings(max_examples=300)
    def test_azimuth_ordering_and_vertex_membership(self, box):
        footprint = project_bev(box)
        rep = representative_points(footprint)
        assert rep.closest in footprint.vertices
        assert rep.rightmost in footprint.vertices
        assert rep.leftmost in footprint.vertices
        assert azimuth(rep.leftmost) <= azimuth(rep.closest) <= azimuth(rep.rightmost)
        for v in footprint.vertices:
            assert rep.closest.norm() <= v.norm() + 1e-12


class TestBevConstraint:
    def test_coincident_boxes_fail_by_overlap(self):
        g = project_bev(Box3D(2, 0, 10, 2, 1, 2, 0.0))
        assert bev_constraint(g, g) is False

    def test_translated_toward_vehicle_passes(self):
        g_box = Box3D(2, 0, 10, 2, 1, 2, 0.0)
        r = math.hypot(2, 10)
        p_box = Box3D(2 - 2 / r, 0, 10 - 10 / r, 2, 1, 2, 0.0)
        assert bev_constraint(project_bev(p_box), project_bev(g_box)) is True

    def test_farther_prediction_fails(self):
        g_box = Box3D(0, 0, 10, 2, 1, 2, 0.0)
        p_box = Box3D(0, 0, 11.5, 2, 1, 2, 0.0)
        assert bev_constraint(project_bev(p_box), project_bev(g_box)) is False

    @pytest.mark.parametrize("p_box, g_box", [(FAR, AHEAD), (AHEAD, FAR)],
                             ids=["far-prediction", "far-ground-truth"])
    def test_footprint_on_one_bearing(self, p_box, g_box):
        # FAR has no facing side, and AHEAD's closest vertex is also its
        # leftmost, so one facing side is left and nothing can cross
        p, g = project_bev(p_box), project_bev(g_box)
        nearer = (representative_points(p).closest.norm()
                  <= representative_points(g).closest.norm())
        assert bev_constraint(p, g) is nearer

    def test_nearer_but_crossing_sides_fails(self):
        g_box = Box3D(0, 0, 10, 4, 1, 2, 0.0)
        # nearer but rotated heavily: its facing sides cut across the truth's
        p_box = Box3D(0.4, 0, 9.6, 4, 1, 0.6, 1.2)
        p, g = project_bev(p_box), project_bev(g_box)
        rep_p = representative_points(p)
        rep_g = representative_points(g)
        assume_crossing = rep_p.closest.norm() <= rep_g.closest.norm()
        assert assume_crossing  # construction keeps the distance test passing
        assert bev_constraint(p, g) is False


class TestAdr:
    def test_saturates_when_prediction_closer(self):
        g = project_bev(Box3D(0, 0, 10, 2, 1, 2, 0.0))
        p = project_bev(Box3D(0, 0, 9.0, 2, 1, 2, 0.0))
        assert adr(p, g) == 1.0

    def test_identity(self):
        g = project_bev(Box3D(1, 0, 12, 3, 1, 2, 0.4))
        assert adr(g, g) == 1.0

    def test_hand_ratio_arithmetic(self):
        value = distance_ratio_geomean((10.0, 10.0, 10.0), (8.0, 12.0, 10.0))
        assert value == pytest.approx((10.0 / 12.0) ** (1.0 / 3.0), abs=1e-12)
        assert value == pytest.approx(0.9410, abs=1e-4)

    def test_ground_truth_at_origin(self):
        g = poly((0, 1e-12), (1, 1e-12), (1, 1), (0, 1))
        p = poly((0, 5), (1, 5), (1, 6), (0, 6))
        with pytest.raises(BehindVehicle):
            adr(p, g)

    @given(frontal_pairs())
    @settings(max_examples=300)
    def test_in_unit_interval(self, pair):
        p_box, g_box = pair
        value = adr(project_bev(p_box), project_bev(g_box))
        assert 0.0 < value <= 1.0

    @given(frontal_pairs())
    @settings(max_examples=150)
    def test_radial_scaling_weakly_decreases(self, pair):
        p_box, g_box = pair
        g = project_bev(g_box)
        base = project_bev(p_box)
        previous = None
        for step in range(20):
            k = 1.0 + step * (1.5 / 19)
            scaled = BevPolygon(tuple(Point2(v.x * k, v.z * k) for v in base.vertices))
            value = adr(scaled, g)
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value

    @given(frontal_pairs())
    @settings(max_examples=100)
    def test_tail_scales_inversely(self, pair):
        p_box, g_box = pair
        g = project_bev(g_box)
        base = project_bev(p_box)
        # beyond saturation every ratio is g/(k*p): adr ~ 1/k
        k1, k2 = 40.0, 80.0
        s1 = BevPolygon(tuple(Point2(v.x * k1, v.z * k1) for v in base.vertices))
        s2 = BevPolygon(tuple(Point2(v.x * k2, v.z * k2) for v in base.vertices))
        assert adr(s1, g) / adr(s2, g) == pytest.approx(k2 / k1, rel=1e-9)


class TestRotationInvariance:
    def test_common_rotation_preserves_outputs(self):
        rng = random.Random(424242)
        for _ in range(200):
            r = rng.uniform(5, 15)
            az = rng.uniform(-0.35, 0.35)
            g_box = Box3D(r * math.sin(az), 0, r * math.cos(az),
                          rng.uniform(0.5, 3), 1.5, rng.uniform(0.5, 3),
                          rng.uniform(-math.pi, math.pi))
            p_box = Box3D(g_box.center_x + rng.uniform(-0.8, 0.8), 0,
                          g_box.center_z + rng.uniform(-0.8, 0.8),
                          g_box.length * rng.uniform(0.8, 1.3), 1.5,
                          g_box.width * rng.uniform(0.8, 1.3),
                          g_box.yaw + rng.uniform(-0.4, 0.4))
            if min(v.z for v in project_bev(p_box).vertices) <= 0.3:
                continue
            angle = rng.uniform(-0.1, 0.1)

            def rotated(box):
                c, s = math.cos(angle), math.sin(angle)
                x = box.center_x * c + box.center_z * s
                z = -box.center_x * s + box.center_z * c
                return Box3D(x, box.center_y, z, box.length, box.height,
                             box.width, box.yaw + angle)

            rp, rg = rotated(p_box), rotated(g_box)
            if min(v.z for v in project_bev(rp).vertices) <= 0.1:
                continue
            p, g = project_bev(p_box), project_bev(g_box)
            assert abs(adr(project_bev(rp), project_bev(rg)) - adr(p, g)) < 1e-9
            assert bev_constraint(project_bev(rp), project_bev(rg)) == bev_constraint(p, g)


class TestUscVerdict:
    def test_enclosing_and_nearer_prediction(self):
        g = Box3D(0, 0, 10, 2, 1.5, 2, 0.0)
        # scaled x1.5 about the near-bottom corner, nudged toward the vehicle
        p = Box3D(0.5, 0.375, 10.2, 3, 2.25, 3, 0.0)
        assert usc_score(p, g).verdict is True

    def test_prediction_strictly_behind(self):
        g = Box3D(0, 0, 10, 2, 1.5, 2, 0.0)
        p = Box3D(0, 0, 12.5, 2, 1.5, 2, 0.0)
        assert usc_score(p, g).verdict is False

    def test_lateral_offset_exposes_truth(self):
        g = Box3D(0, 0, 10, 2, 1.5, 2, 0.0)
        p = Box3D(1.2, 0, 10, 2, 1.5, 2, 0.0)
        assert usc_score(p, g).verdict is False

    def test_identity_is_locked_false(self):
        # regression: coincident facing sides overlap, so the BEV check fails
        g = Box3D(0.5, 0, 9, 2.2, 1.4, 1.8, 0.2)
        assert usc_score(g, g).verdict is False


class TestUscScore:
    def test_identity_scores_one(self):
        g = Box3D(0.5, 0, 9, 2.2, 1.4, 1.8, 0.2)
        breakdown = usc_score(g, g)
        assert breakdown.iogt_pv == 1.0
        assert breakdown.adr == 1.0
        assert breakdown.usc == 1.0
        assert breakdown.verdict is False

    def test_perfect_coverage_scores_one(self):
        g = Box3D(0, 0, 10, 2, 1.5, 4, 0.0)
        blue = Box3D(0, 0, 9.4, 2, 1.5, 4, 0.0)
        breakdown = usc_score(blue, g)
        assert breakdown.usc == 1.0
        assert breakdown.verdict is True

    def test_partial_coverage_product(self):
        g = Box3D(0, 0, 10, 2, 1.5, 4, 0.0)
        red = Box3D(0, 0, 10.6, 2, 1.5, 4, 0.0)
        breakdown = usc_score(red, g)
        assert 0.0 < breakdown.usc < 1.0
        assert breakdown.usc == breakdown.iogt_pv * breakdown.adr

    @given(frontal_pairs())
    @settings(max_examples=300)
    def test_breakdown_invariants(self, pair):
        p_box, g_box = pair
        breakdown = usc_score(p_box, g_box)
        assert breakdown.verdict == (breakdown.pv_constraint and breakdown.bev_constraint)
        assert breakdown.usc == breakdown.iogt_pv * breakdown.adr
        assert 0.0 <= breakdown.usc <= 1.0


class TestViewCoverageOracle:
    """Ray-casting ground truth for the coverage notion the constraints
    approximate: a covering prediction intercepts every ray that reaches
    the object, an exposing one does not."""

    def test_covering_versus_exposing_prediction(self):
        from oracles import silhouette_iogt, view_coverage_fraction
        g = Box3D(0.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0)
        covering = Box3D(0.0, 0.0, 9.4, 2.0, 1.5, 4.0, 0.0)
        exposing = Box3D(0.0, 0.0, 10.6, 2.0, 1.5, 4.0, 0.0)
        rays = np.random.default_rng(17).random((4000, 3))
        assert usc_score(covering, g).verdict is True
        assert view_coverage_fraction(covering, g, rays) == 1.0
        assert silhouette_iogt(covering, g) == 1.0
        assert usc_score(exposing, g).verdict is False
        assert view_coverage_fraction(exposing, g, rays) < 1.0
        assert silhouette_iogt(exposing, g) < 1.0

    def test_passing_verdict_is_a_rectangle_relaxation(self):
        # The PV check compares bounding rectangles of the projected corners,
        # not the silhouettes: this prediction passes with USC 1.0 while part
        # of the ground truth's silhouette lies outside its own.
        from oracles import silhouette_iogt, view_coverage_fraction
        g = Box3D(-1.5076, -0.0651, 5.9306, 1.9944, 1.2712, 1.4039, 2.2126)
        p = Box3D(-1.4908, 0.0038, 5.6067, 2.4373, 1.3445, 1.3987, 2.4238)
        breakdown = usc_score(p, g)
        assert breakdown.verdict is True
        assert breakdown.usc == 1.0
        assert silhouette_iogt(p, g) < 0.997
        assert silhouette_iogt(g, g) == 1.0
        rays = np.random.default_rng(0).random((20_000, 3))
        assert view_coverage_fraction(p, g, rays) < 1.0


def pv_points(box):
    """Each corner's (u, v): the floats ``project_pv_rect`` bounds."""
    return [(c.x / c.z, c.y / c.z) for c in box_corners(box)]


@st.composite
def grown_pairs(draw):
    """A frontal ground truth and a prediction grown from it by 0-40% per
    dimension, its center moved by up to 0.2 m and its yaw by up to 0.1."""
    g = draw(frontal_boxes())
    p = Box3D(g.center_x + draw(finite(-0.2, 0.2)),
              g.center_y + draw(finite(-0.2, 0.2)),
              g.center_z + draw(finite(-0.2, 0.2)),
              g.length * draw(finite(1.0, 1.4)),
              g.height * draw(finite(1.0, 1.4)),
              g.width * draw(finite(1.0, 1.4)),
              g.yaw + draw(finite(-0.1, 0.1)))
    assume(p.center_z - math.hypot(p.length, p.width) / 2.0 > 0.3)
    return p, g


class TestHullImpliesPvConstraint:
    """The direction that does hold between the silhouettes and the PV
    rectangles: when every ground-truth corner's (u, v) lies in the convex
    hull of the prediction's, decided exactly on the same floats, the
    prediction's rectangle encloses the ground truth's. The converse fails
    (``test_passing_verdict_is_a_rectangle_relaxation``)."""

    @given(grown_pairs())
    @example((Box3D(0.3, 0.1, 8.0, 4.2, 1.6, 1.9, 0.4),
              Box3D(0.3, 0.1, 8.0, 4.2, 1.6, 1.9, 0.4)))
    @settings(max_examples=300, deadline=None)
    def test_corners_in_hull_pass_pv(self, pair):
        p, g = pair
        assume(hull_contains(pv_points(p), pv_points(g)))
        assert pv_constraint(project_pv_rect(p), project_pv_rect(g)) is True


def scalar_outcome(p, g):
    """(usc, reason code) of one pair through the scalar reference path."""
    try:
        return usc_score(p, g).usc, 0
    except EXCLUSION_REASONS as exc:
        return None, 1 + EXCLUSION_REASONS.index(type(exc))


def assert_batch_matches_scalar(pairs):
    """The kernel's values and reasons against ``usc_score`` pair by pair:
    the same float64 bits, with NaN for an excluded pair."""
    preds, gts = [p for p, _ in pairs], [g for _, g in pairs]
    usc, reason = usc_batch(preds, gts)
    assert usc.dtype == np.float64 and reason.dtype == np.int8
    expected = [scalar_outcome(p, g) for p, g in pairs]
    assert reason.tolist() == [code for _, code in expected]
    assert usc.tobytes() == np.array([math.nan if code else value
                                      for value, code in expected]).tobytes()
    return usc, reason


BEHIND_CAMERA = 1 + EXCLUSION_REASONS.index(BehindCamera)
DEGENERATE = 1 + EXCLUSION_REASONS.index(DegenerateGroundTruth)
#: PV bounds that overflow to infinity
HUGE = Box3D(1e308, 0.0, 0.6, 1.0, 1.0, 1.0, 0.0)
#: one footprint vertex overflows, the PV bounds stay finite
OVERFLOW = Box3D(0.0, 0.0, 1.74e308, 1e307, 1.0, 1e307, 0.3)


def no_scalar_fallback(*args):
    raise AssertionError("a pair with finite projections must not reach usc_score")


def atan2_ranked(monkeypatch):
    """A list that gets, for each call of ``usc_batch``'s chunk that ranks
    footprint vertices by atan2, the number of boxes it ranks so."""
    ranked = []

    def recording(fn, *arrays):
        if fn is math.atan2:
            ranked.append(arrays[0].shape[1])
        return map_math(fn, *arrays)

    monkeypatch.setattr(constraints, "map_math", recording)
    return ranked


#: footprint vertices (+-2**-39, 1) and (+-2**-39, 2): the extreme x / z
#: clear the runner-up by 2**-40, which is the margin itself, exactly
AT_MARGIN = Box3D(0.0, 0.0, 1.5, 2.0 ** -38, 1.0, 1.0, 0.0)


class TestUscScoreExclusions:
    @given(boxes(), boxes())
    @settings(max_examples=500)
    def test_only_behind_camera_or_degenerate_around_vehicle(self, p, g):
        try:
            usc_score(p, g)
        except (BehindCamera, DegenerateGroundTruth):
            pass

    @given(boxes(center=3.0, dim_min=1e-3), boxes(center=3.0, dim_min=1e-3))
    @settings(max_examples=500)
    def test_only_behind_camera_or_degenerate_near_camera_plane(self, p, g):
        try:
            usc_score(p, g)
        except (BehindCamera, DegenerateGroundTruth):
            pass


class TestUscBatch:
    """The kernel against ``usc_score``, pair by pair: equal values, equal
    reasons."""

    @given(st.lists(st.tuples(boxes(), boxes()), max_size=40))
    @settings(max_examples=150)
    def test_pairs_around_vehicle(self, pairs):
        assert_batch_matches_scalar(pairs)

    @given(st.lists(frontal_pairs(), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_frontal_pairs(self, pairs):
        assert_batch_matches_scalar(pairs)

    @given(st.lists(thin_pairs(), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_thin_sides_down_to_1e_16(self, pairs):
        assert_batch_matches_scalar(pairs)

    @pytest.mark.parametrize("side", [1e-16, 1e-13, 1e-10, 1e-8])
    def test_sliver_of_each_side(self, monkeypatch, side):
        # every pair is scored, a sliver on either side included, and the
        # kernel decides each one alone
        g = Box3D(0.2, 0.0, 9.0, 1.8, 1.5, 4.2, 0.4)
        p = Box3D(0.5, 0.3, 8.3, 2.0, 1.6, 4.5, 0.5)
        pairs = [(a._replace(**{name: side}), b)
                 for name in ("length", "height", "width")
                 for a, b in ((p, g), (g, p), (p, p))]
        pairs += [(b, a) for a, b in pairs]
        monkeypatch.setattr(constraints, "usc_score", no_scalar_fallback)
        _, reason = assert_batch_matches_scalar(pairs)
        assert not reason.any()

    def test_behind_camera_on_either_side(self):
        _, reason = assert_batch_matches_scalar(
            [(BEHIND, AHEAD), (AHEAD, BEHIND), (BEHIND, BEHIND), (AHEAD, AHEAD)])
        assert reason.tolist() == [BEHIND_CAMERA] * 3 + [0]

    def test_corner_at_depth_limit(self):
        at_limit = Box3D(0.0, 0.0, 2 * EPS_DEPTH, 1.0, 1.0, 2 * EPS_DEPTH, 0.0)
        below = Box3D(0.0, 0.0, math.nextafter(2 * EPS_DEPTH, 0.0), 1.0, 1.0,
                      2 * EPS_DEPTH, 0.0)
        assert min(c.z for c in box_corners(at_limit)) == EPS_DEPTH
        assert min(c.z for c in box_corners(below)) < EPS_DEPTH
        _, reason = assert_batch_matches_scalar(
            [(at_limit, at_limit), (below, at_limit), (AHEAD, below)])
        assert reason.tolist() == [0, BEHIND_CAMERA, BEHIND_CAMERA]

    def test_degenerate_ground_truth(self):
        # behind the camera takes precedence, as usc_score checks it first
        flat = Box3D(0.0, 0.0, 10.0, 4.5, 1e-20, 1.9, 0.0)
        _, reason = assert_batch_matches_scalar(
            [(AHEAD, flat), (flat, AHEAD), (BEHIND, flat)])
        assert reason.tolist() == [DEGENERATE, 0, BEHIND_CAMERA]

    def test_ground_truth_area_at_the_limit(self):
        # near face at z = 8, a power of two, so each PV side is exact: the
        # rectangle's area is EPS_GEOM * EPS_GEOM itself, which is degenerate,
        # and one ulp more of length is not
        limit = EPS_GEOM * EPS_GEOM
        at = Box3D(0.0, 0.0, 9.0, limit * 2.0 ** 33, 2.0 ** -27, 2.0, 0.0)
        above = at._replace(length=math.nextafter(at.length, 1.0))
        for g, degenerate in ((at, True), (above, False)):
            rect = project_pv_rect(g)
            area = (rect.max_u - rect.min_u) * (rect.max_v - rect.min_v)
            assert (area == limit) == degenerate and area >= limit
        _, reason = assert_batch_matches_scalar([(AHEAD, at), (AHEAD, above)])
        assert reason.tolist() == [DEGENERATE, 0]

    def test_closest_distance_tie(self):
        # yaw 0 on the z axis: the two near corners are equally close
        g = Box3D(0.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0)
        p = Box3D(0.0, 0.0, 9.5, 2.2, 1.5, 4.0, 0.0)
        assert_batch_matches_scalar([(p, g), (g, p), (g, g)])

    @pytest.mark.parametrize("g", [
        # left side on x = 0
        Box3D(1.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0),
        # right side on x = 0
        Box3D(-1.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0),
        # right side on a ray at negative x: farther vertex has smaller x
        Box3D(-4.857748172469975, 0.0, 11.410966857241545, 4.0, 1.5, 2.0,
              -1.892546881191539),
    ])
    def test_footprint_edge_along_a_ray(self, g):
        bearings = sorted(azimuth(v) for v in project_bev(g).vertices)
        assert bearings[0] == bearings[1] or bearings[2] == bearings[3]
        nearer = Box3D(g.center_x * 0.95, 0.0, g.center_z * 0.95, g.length,
                       g.height, g.width, g.yaw)
        farther = Box3D(g.center_x, 0.0, g.center_z + 0.4, g.length,
                        g.height, g.width, g.yaw)
        assert_batch_matches_scalar([(g, nearer), (nearer, g), (g, farther),
                                     (farther, g), (g, g)])

    @pytest.mark.parametrize("box, by_atan2", [
        # the left side on x = 0: an exact bearing tie, broken by (x, z)
        (Box3D(1.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0), True),
        # a side on a ray at negative x, whose x / z differ by rounding only
        (Box3D(-4.857748172469975, 0.0, 11.410966857241545, 4.0, 1.5, 2.0,
               -1.892546881191539), True),
        # 1.7e-15 m wide: two vertices whose x / z differ in the last bit
        # share one atan2 bearing, so (x, z) decides
        (Box3D(-0.020837542265228493, 0.8294598742721822, 2.5144808002705896,
               3.5083325711704734, 4.055517014285078, 1.702691171839057e-15,
               0.8074644763568419), True),
        # symmetric about the z axis: the two near vertices tie in distance
        (Box3D(0.0, 0.0, 10.0, 2.0, 1.5, 4.0, 0.0), False),
        # straddling x = 0, turned
        (Box3D(0.4, 0.0, 9.0, 3.0, 1.5, 1.8, 0.7), False),
        # the bearing gap at the margin, one ulp inside it and one ulp outside
        (AT_MARGIN, True),
        (AT_MARGIN._replace(length=math.nextafter(AT_MARGIN.length, 0.0)), True),
        (AT_MARGIN._replace(length=math.nextafter(AT_MARGIN.length, 1.0)), False),
        # behind the camera, with a length that halves to 0: two vertices at
        # (0, 0), whose x / z is NaN
        (Box3D(0.0, 0.0, -1.0, 5e-324, 1.0, 2.0, 0.0), True),
    ])
    def test_rank_of_each_footprint(self, monkeypatch, box, by_atan2):
        # a box whose extreme x / z is within the margin of the runner-up
        # ranks its vertices by atan2, any other by x / z; both give
        # usc_score's bits
        if box is AT_MARGIN:
            # U*U vanishes against 1, so the margin is 2**-40, as each gap is
            u = sorted(v.x / v.z for v in project_bev(box).vertices)
            assert u[3] - u[2] == u[1] - u[0] == 2.0 ** -40
            assert 1.0 + u[3] * u[3] == 1.0
        ranked = atan2_ranked(monkeypatch)
        assert_batch_matches_scalar([(box, AHEAD), (AHEAD, box), (box, box)])
        assert ranked == ([4] if by_atan2 else [])

    def test_synthetic_pairs_rank_by_x_over_z(self, monkeypatch):
        # the fast rank is the one that runs on realistic data
        frames = generate_synthetic(SyntheticSpec(
            seed=1, frames=500, objects_min=2, objects_max=8, depth_bias=0.2,
            lateral_noise=0.1, size_noise=0.05, yaw_noise=0.05, miss_rate=0.1,
            fp_rate=0.2))
        matched, _, _ = matched_pairs(frames, ProtocolConfig())
        pairs = [(m.detection.box, m.annotation.box)
                 for key in sorted(matched) for m in matched[key]]
        assert len(pairs) > 2 * BATCH_CAP
        ranked = atan2_ranked(monkeypatch)
        _, reason = usc_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert ranked == [] and not reason.any()

    def test_value_error_parity(self):
        # the first of two pairs that raise gives the error
        for p, later in ((HUGE, OVERFLOW), (OVERFLOW, HUGE)):
            with pytest.raises(ValueError) as scalar:
                usc_score(p, AHEAD)
            with pytest.raises(ValueError) as batch:
                usc_batch([AHEAD, BEHIND, p, later], [AHEAD, AHEAD, AHEAD, AHEAD])
            assert str(batch.value) == str(scalar.value)

    def test_footprint_on_one_bearing(self, monkeypatch):
        # usc_score scores or excludes such a pair, and the kernel decides
        # it alone, bit for bit
        pairs = [(FAR, AHEAD), (AHEAD, FAR), (FAR, FAR)]
        expected = [scalar_outcome(p, g) for p, g in pairs]
        assert expected == [(0.0, 0), (None, DEGENERATE), (None, DEGENERATE)]
        monkeypatch.setattr(constraints, "usc_score", no_scalar_fallback)
        usc, reason = usc_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert reason.tolist() == [0, DEGENERATE, DEGENERATE]
        assert usc[:1].tobytes() == np.array([expected[0][0]]).tobytes()
        assert np.isnan(usc[1:]).all()

    def test_routed_pairs_are_scored_by_usc_score(self, monkeypatch):
        # only a pair with a projection that is not finite goes through
        # usc_score, which excludes it when a box is behind the camera
        flat = Box3D(0.0, 0.0, 10.0, 4.5, 1e-20, 1.9, 0.0)
        nearer = Box3D(0.5, 0.0, 9.5, 4.8, 1.9, 2.1, 0.1)
        pairs = [(AHEAD, AHEAD), (BEHIND, HUGE), (AHEAD, flat), (OVERFLOW, BEHIND),
                 (nearer, AHEAD), (BEHIND, AHEAD)]
        calls = []

        def counted(p, g):
            calls.append((p, g))
            return usc_score(p, g)

        monkeypatch.setattr(constraints, "usc_score", counted)
        _, reason = assert_batch_matches_scalar(pairs)
        assert calls == [pairs[1], pairs[3]]
        assert reason.tolist() == [0, BEHIND_CAMERA, DEGENERATE, BEHIND_CAMERA, 0,
                                   BEHIND_CAMERA]

    def test_unexpected_usc_error_propagates(self, monkeypatch):
        def behind_vehicle(p, g):
            raise BehindVehicle("stand-in")

        monkeypatch.setattr(constraints, "usc_score", behind_vehicle)
        for p, g in ((HUGE, AHEAD), (AHEAD, OVERFLOW)):
            with pytest.raises(BehindVehicle, match="^stand-in$"):
                usc_batch([AHEAD, p], [AHEAD, g])

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="^2 predictions but 1 ground truths$"):
            usc_batch([AHEAD, AHEAD], [AHEAD])

    def test_empty_batch(self):
        usc, reason = usc_batch([], [])
        assert usc.shape == reason.shape == (0,)
        assert usc.dtype == np.float64 and reason.dtype == np.int8

    def test_batch_longer_than_cap(self, monkeypatch):
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
        pairs.insert(cap + 1, (BEHIND, AHEAD))
        expected = [scalar_outcome(p, g) for p, g in pairs]
        monkeypatch.setattr(constraints, "usc_score", no_scalar_fallback)
        usc, reason = usc_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert reason.tolist() == [code for _, code in expected]
        assert all(usc[i] == value for i, (value, code) in enumerate(expected)
                   if code == 0)
