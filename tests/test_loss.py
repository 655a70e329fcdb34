import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import iogt3d_reference
from strategies import boxes, finite, frontal_pairs, overflow_pairs
from usc import (Box3D, LossConfig, iogt3d, iogt_loss, iou3d, safety_loss,
                 safety_loss_batch, smooth_l1)
from usc import geometry
from usc.geometry import BATCH_CAP


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


@pytest.mark.parametrize("measure", [iogt3d, iou3d, iogt_loss, safety_loss,
                                     smooth_l1])
def test_one_pair_values_are_python_floats(measure):
    # a numpy float would show as np.float64(...) in an error's !r
    p = Box3D(0.3, 0, 10, 1.2, 1.1, 1.4, 0.2)
    g = Box3D(0.0, 0, 10.3, 1.0, 1.0, 1.2, 0.0)
    for pair in ((p, g), (g, g), (Box3D(5, 0, 10, 1, 1, 1, 0), g)):
        assert type(measure(*pair)) is float


def _iogt_loss_reference(p, g):
    return 1.0 - iogt3d_reference(p, g)


def _outcome(measure, *args):
    """The measure's value, or the type and text of its ValueError."""
    try:
        return measure(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_batch_matches_scalar(pairs, config=LossConfig()):
    """``safety_loss_batch`` against the one-pair functions, with the IoGT
    loss from ``iogt3d_reference``: the same float64 bits in each of its
    arrays for every pair on which the reference does not raise, and for the
    whole batch the error of its first pair that does."""
    enclosure = [_outcome(_iogt_loss_reference, p, g) for p, g in pairs]
    scored = [pair for pair, value in zip(pairs, enclosure)
              if isinstance(value, float)]
    beta, wrap = config.smooth_l1_beta, config.yaw_wrapping
    expected = ([smooth_l1(p, g, beta, wrap) for p, g in scored],
                [value for value in enclosure if isinstance(value, float)],
                [safety_loss(p, g, config) for p, g in scored])
    arrays = safety_loss_batch([p for p, _ in scored], [g for _, g in scored], config)
    assert len(arrays) == 3
    for array, values in zip(arrays, expected):
        assert array.dtype == np.float64
        assert array.tobytes() == np.array(values, dtype=np.float64).tobytes()
    errors = [value for value in enclosure if not isinstance(value, float)]
    if errors:
        whole = _outcome(safety_loss_batch, [p for p, _ in pairs],
                         [g for _, g in pairs], config)
        assert isinstance(whole, tuple) and whole == errors[0]


@st.composite
def huge_boxes(draw):
    """Boxes with centres and sizes at 1e308, whose residuals, Huber terms
    and corners overflow."""
    value = st.sampled_from((1e308, -1e308, 0.0, 1.0))
    size = st.sampled_from((1e308, 1.0))
    return Box3D(draw(value), draw(value), draw(value), draw(size), draw(size),
                 draw(size), draw(finite(-math.pi, math.pi)))


def loss_configs():
    return st.builds(
        LossConfig,
        blend_lambda=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        smooth_l1_beta=st.sampled_from((5e-324, 1.0, 1e308)) | finite(1e-3, 10.0),
        yaw_wrapping=st.booleans())


def _with(box, index, value):
    values = list(box)
    values[index] = value
    return Box3D(*values)


#: the yaw index of the 7-tuple, and a ground truth whose values leave room
#: for a residual of 1.0 on every field
YAW = 6
BASE = Box3D(0.5, 0.0, 10.0, 2.0, 1.5, 1.8, 0.25)


class TestSafetyLossBatch:
    """The array pass against ``smooth_l1``, ``1 - iogt3d_reference`` and
    ``safety_loss``, bit for bit and error for error."""

    @given(st.lists(st.tuples(boxes(), boxes()) | overflow_pairs()
                    | st.tuples(huge_boxes(), huge_boxes() | boxes()), max_size=30),
           loss_configs())
    @settings(max_examples=150)
    def test_against_scalar(self, pairs, config):
        assert_batch_matches_scalar(pairs, config)

    @pytest.mark.parametrize("wrapping", [True, False])
    def test_yaw_residuals_at_the_wrap(self, wrapping):
        pi, half = math.pi, math.pi / 2
        yaws = [(half, -half), (pi, -2.0 ** -50), (-half, half),
                (-half, half + 2.0 ** -50), (math.nextafter(-pi, 0.0), pi),
                (pi, math.nextafter(-pi, 0.0))]
        residuals = [p - g for p, g in yaws]
        assert residuals[0] == pi and residuals[2] == -pi
        assert residuals[1] > pi and residuals[3] < -pi
        pairs = [(_with(BASE, YAW, p), _with(BASE, YAW, g)) for p, g in yaws]
        assert_batch_matches_scalar(pairs, LossConfig(yaw_wrapping=wrapping))

    @pytest.mark.parametrize("beta", [5e-324, 1.0, 1e308])
    def test_residuals_at_beta(self, beta):
        # each field's residual at beta, an ulp either side, negated, and at
        # r = 1.5 * sqrt(beta), where r * r overflows at beta = 1e308 and
        # 0.5 * r * r does not, wherever the box takes it; a pair whose clip
        # cannot be scored still checks the error
        pairs = []
        for index, base in enumerate(BASE):
            for delta in (beta, -beta, math.nextafter(beta, 0.0),
                          math.nextafter(beta, math.inf), 1.5 * math.sqrt(beta)):
                if math.isfinite(base + delta) and (index < 3 or base + delta > 0.0):
                    pairs.append((_with(BASE, index, base + delta), BASE))
        assert any(p[i] - g[i] == beta for p, g in pairs for i in range(7)
                   if isinstance(_outcome(iogt_loss, p, g), float))
        assert_batch_matches_scalar(pairs, LossConfig(smooth_l1_beta=beta,
                                                      yaw_wrapping=False))

    @staticmethod
    def random_pairs(seed, n):
        rng = random.Random(seed)

        def box():
            return Box3D(rng.uniform(-5, 5), rng.uniform(-1, 1), rng.uniform(5, 15),
                         rng.uniform(0.4, 3), rng.uniform(0.5, 2), rng.uniform(0.4, 3),
                         rng.uniform(-math.pi, math.pi))

        return [(box(), box()) for _ in range(n)]

    def test_batch_longer_than_two_chunks(self, monkeypatch):
        # chunks of 7 pairs
        monkeypatch.setattr(geometry, "BATCH_CAP", 7)
        cap = geometry.BATCH_CAP
        pairs = self.random_pairs(2209, 2 * cap + 7)
        assert_batch_matches_scalar(pairs)
        # a thin ground truth is scored; of two zero volumes, the first one's
        # error is raised
        flat = Box3D(0, 1e17, 10, 2, 1.5, 2, 0.0)
        sliver = Box3D(1.0, 0, 10, 1e-17, 1.5, 2, 0.0)
        thin = BASE._replace(length=1e-10)
        pairs.insert(2 * cap + 3, (BASE, flat))
        pairs.insert(cap + 1, (BASE, sliver))
        pairs.insert(5, (BASE, thin))
        with pytest.raises(ValueError, match=r"^ground-truth volume is 0\.0 "
                           r"at \(1\.0, 0\.0, 10\.0\) \(footprint area 0\.0,"):
            safety_loss_batch([p for p, _ in pairs], [g for _, g in pairs])
        assert_batch_matches_scalar(pairs)

    def test_production_cap_matches_chunks_of_7(self, monkeypatch):
        # more than two chunks at the production cap give the bits of
        # chunks of 7 pairs, which the test above checks against the
        # scalar functions
        pairs = self.random_pairs(2210, 2 * BATCH_CAP + 7)
        # half the ground truths are their predictions moved a little
        pairs[::2] = [(p, p._replace(center_x=p.center_x + 0.3, yaw=p.yaw / 2))
                      for p, _ in pairs[::2]]
        preds, gts = [p for p, _ in pairs], [g for _, g in pairs]
        columns = safety_loss_batch(preds, gts)
        assert 0.0 < columns[1].mean() < 1.0
        monkeypatch.setattr(geometry, "BATCH_CAP", 7)
        assert [c.tobytes() for c in columns] == [
            c.tobytes() for c in safety_loss_batch(preds, gts)]

    def test_no_pairs(self):
        arrays = safety_loss_batch([], [])
        assert len(arrays) == 3
        assert all(a.shape == (0,) and a.dtype == np.float64 for a in arrays)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="^2 predictions but 1 ground truths$"):
            safety_loss_batch([BASE, BASE], [BASE])
