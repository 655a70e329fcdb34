import math
import random

import pytest
from hypothesis import given, settings

from strategies import boxes, frontal_pairs
from usc import Box3D, LossConfig, iogt_loss, safety_loss, smooth_l1


class TestSmoothL1:
    def test_zero_at_identity(self):
        box = Box3D(1, 2, 3, 2, 1, 1.5, 0.4)
        assert smooth_l1(box, box) == 0.0

    def test_quadratic_branch(self):
        p = (0.5, 0, 0, 1, 1, 1, 0)
        g = (0.0, 0, 0, 1, 1, 1, 0)
        assert smooth_l1(p, g, beta=1.0) == pytest.approx(0.125, abs=1e-12)

    def test_linear_branch(self):
        p = (2.0, 0, 0, 1, 1, 1, 0)
        g = (0.0, 0, 0, 1, 1, 1, 0)
        assert smooth_l1(p, g, beta=1.0) == pytest.approx(1.5, abs=1e-12)

    def test_yaw_residual_wraps(self):
        p = (0, 0, 0, 1, 1, 1, math.pi - 0.1)
        g = (0, 0, 0, 1, 1, 1, -math.pi + 0.1)
        # raw residual 2*pi - 0.2 wraps to -0.2
        assert smooth_l1(p, g, beta=1.0) == pytest.approx(0.5 * 0.2 ** 2, abs=1e-12)
        unwrapped = smooth_l1(p, g, beta=1.0, wrap_yaw=False)
        assert unwrapped == pytest.approx(2 * math.pi - 0.2 - 0.5, abs=1e-12)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            smooth_l1((1, 2, 3), (1, 2, 3))

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_nonnegative_and_symmetric_in_magnitude(self, p, g):
        assert smooth_l1(p, g) >= 0.0
        assert smooth_l1(p, g) == pytest.approx(smooth_l1(g, p), abs=1e-12)


class TestIogtLoss:
    def test_zero_when_prediction_contains_truth(self):
        g = Box3D(0.2, -0.1, 8, 1.4, 1.2, 2.0, 0.3)
        p = Box3D(0.2, -0.1, 8, 2.1, 1.8, 3.0, 0.3)
        assert iogt_loss(p, g) == 0.0

    def test_one_when_disjoint(self):
        p = Box3D(0, 0, 5, 1, 1, 1, 0)
        g = Box3D(5, 0, 5, 1, 1, 1, 0)
        assert iogt_loss(p, g) == 1.0

    def test_half_covered(self):
        p = Box3D(0, 0, 10, 1, 1, 1, 0)
        g = Box3D(0, 0, 10.5, 1, 1, 1, 0)
        assert iogt_loss(p, g) == pytest.approx(0.5, abs=1e-12)

    def test_exact_zero_on_random_containment_pairs(self):
        rng = random.Random(90210)
        for _ in range(100):
            g = Box3D(rng.uniform(-5, 5), rng.uniform(-1, 1), rng.uniform(5, 15),
                      rng.uniform(0.4, 3), rng.uniform(0.5, 2), rng.uniform(0.4, 3),
                      rng.uniform(-math.pi, math.pi))
            scale = rng.uniform(1.05, 2.0)
            p = Box3D(g.center_x, g.center_y, g.center_z, g.length * scale,
                      g.height * scale, g.width * scale, g.yaw)
            assert iogt_loss(p, g) == 0.0


class TestLossConfig:
    def test_defaults(self):
        config = LossConfig()
        assert config.blend_lambda == 0.8
        assert config.smooth_l1_beta == 1.0
        assert config.yaw_wrapping is True

    def test_rejects_lambda_outside_open_interval(self):
        for bad in (0.0, 1.0, 1.3, -0.1):
            with pytest.raises(ValueError):
                LossConfig(blend_lambda=bad)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            LossConfig(smooth_l1_beta=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, bad):
        with pytest.raises(ValueError, match="^smooth_l1_beta must be positive and finite"):
            LossConfig(smooth_l1_beta=bad)

    def test_rejects_nan_lambda(self):
        with pytest.raises(ValueError, match="^lambda must be in"):
            LossConfig(blend_lambda=math.nan)


class TestSafetyLoss:
    def test_zero_at_identity(self):
        box = Box3D(1, 0, 9, 2, 1.5, 1.8, -0.7)
        assert safety_loss(box, box) == 0.0

    def test_blend_arithmetic(self):
        # engineered pair: accuracy term 0.2, enclosure term 0.5
        lam = 0.8
        value = lam * 0.2 + (1 - lam) * 0.5
        assert value == pytest.approx(0.26, abs=1e-12)

    def test_matches_component_blend(self):
        p = Box3D(0.3, 0, 10, 1.2, 1.1, 1.4, 0.2)
        g = Box3D(0.0, 0, 10.3, 1.0, 1.0, 1.2, 0.0)
        config = LossConfig(blend_lambda=0.8)
        expected = 0.8 * smooth_l1(p, g) + 0.2 * iogt_loss(p, g)
        assert safety_loss(p, g, config) == pytest.approx(expected, abs=1e-15)

    @given(frontal_pairs())
    @settings(max_examples=200)
    def test_convex_sandwich(self, pair):
        p, g = pair
        config = LossConfig(blend_lambda=0.8)
        blended = safety_loss(p, g, config)
        accuracy = smooth_l1(p, g, config.smooth_l1_beta)
        assert blended >= 0.8 * accuracy - 1e-12
        assert blended <= 0.8 * accuracy + 0.2 + 1e-12

    def test_lambda_near_one_recovers_accuracy_term(self):
        p = Box3D(0.3, 0, 10, 1.2, 1.1, 1.4, 0.2)
        g = Box3D(0.0, 0, 10.3, 1.0, 1.0, 1.2, 0.0)
        config = LossConfig(blend_lambda=0.999)
        assert abs(safety_loss(p, g, config) - smooth_l1(p, g)) <= (1 - 0.999) * 1.0 + 1e-9

    def test_continuity_under_small_perturbations(self):
        # finite-difference smoke test away from wrap/containment boundaries
        p = Box3D(0.3, 0.1, 10, 1.2, 1.1, 1.4, 0.2)
        g = Box3D(0.0, 0.0, 10.3, 1.0, 1.0, 1.2, 0.0)
        base = safety_loss(p, g)
        eps = 1e-6
        for index in range(7):
            params = list(p)
            params[index] += eps
            shifted = safety_loss(Box3D(*params), g)
            assert abs(shifted - base) <= 100 * eps
