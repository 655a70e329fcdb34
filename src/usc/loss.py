"""Safety-oriented loss values on matched box pairs.

Three values are defined for offline scoring: a Huber-style kernel on the
raw 7-tuple parameters (``smooth_l1``), an enclosure term derived from 3D
IoGT (``iogt_loss``), and their convex blend (``safety_loss``). No gradients
are provided.

``safety_loss_batch`` computes all three for many pairs in float64 arrays,
a bounded chunk at a time; ``usc loss`` runs it once per class. Each batch
value equals, bit for bit, what the one-pair function gives. Of those, only
``smooth_l1`` is an independent scalar: ``iogt_loss`` and ``safety_loss``
read IoGT from ``iogt3d``, the one-pair call of the kernel that the batch
runs, ``iogt3d_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import (Box3D, box_array, iogt3d, iogt3d_batch, map_math,
                       pair_batches, wrap_angle)

#: Index of the yaw parameter inside the 7-tuple.
_YAW_INDEX = 6


@dataclass(frozen=True)
class LossConfig:
    """Blend weight and kernel settings.

    blend_lambda weighs the accuracy term against the enclosure term and
    must lie strictly inside (0, 1); smooth_l1_beta must be finite and
    positive.
    """

    blend_lambda: float = 0.8
    smooth_l1_beta: float = 1.0
    yaw_wrapping: bool = True

    def __post_init__(self):
        if not (0.0 < self.blend_lambda < 1.0):
            raise ValueError(f"lambda must be in (0, 1), got {self.blend_lambda}")
        if not 0.0 < self.smooth_l1_beta < math.inf:
            raise ValueError("smooth_l1_beta must be positive and finite, "
                             f"got {self.smooth_l1_beta}")

    def blend(self, accuracy: float, enclosure: float) -> float:
        """Convex blend of an accuracy term and an enclosure term."""
        lam = self.blend_lambda
        return lam * accuracy + (1.0 - lam) * enclosure


def _huber(residual: float, beta: float) -> float:
    r = abs(residual)
    if r < beta:
        return 0.5 * r * r / beta
    return r - 0.5 * beta


def smooth_l1(p, g, beta: float = 1.0, wrap_yaw: bool = True) -> float:
    """Smooth-L1 distance between two box 7-tuples.

    Accepts Box3D values or plain 7-sequences (x, y, z, l, h, w, yaw). The
    yaw residual is wrapped to (-pi, pi] unless wrap_yaw is disabled.
    """
    pt, gt = tuple(p), tuple(g)
    if len(pt) != 7 or len(gt) != 7:
        raise ValueError("expected 7-tuples of box parameters")
    total = 0.0
    for i, (pv, gv) in enumerate(zip(pt, gt)):
        residual = pv - gv
        if i == _YAW_INDEX and wrap_yaw:
            residual = wrap_angle(residual)
        total += _huber(residual, beta)
    return total


def iogt_loss(p: Box3D, g: Box3D) -> float:
    """Enclosure loss ``1 - IoGT3D``; zero when the prediction contains the
    ground truth, and also when the ground truth's footprint sticks out of
    the prediction's within the clip's slack, at most EPS_GEOM metres (see
    ``iogt3d``)."""
    return 1.0 - iogt3d(p, g)


def safety_loss(p: Box3D, g: Box3D, config: LossConfig = LossConfig()) -> float:
    """Convex blend of the accuracy and enclosure terms."""
    accuracy = smooth_l1(p, g, config.smooth_l1_beta, config.yaw_wrapping)
    return config.blend(accuracy, iogt_loss(p, g))


def safety_loss_batch(preds, gts, config: LossConfig = LossConfig()
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``smooth_l1``, ``iogt_loss`` and ``safety_loss`` of many prediction /
    ground-truth pairs, given as ``box_array`` takes them, as three float64
    arrays, run by ``pair_batches``.

    Every value equals, bit for bit, what the one-pair function gives for
    that pair: the arithmetic is theirs, in the same order, and only a yaw
    residual outside (-pi, pi] goes through ``wrap_angle``. The first pair
    on which ``iogt3d_batch`` raises raises the same error here.
    """
    def chunk(p_boxes, g_boxes):
        residual = (p_boxes - g_boxes).T
        if config.yaw_wrapping:
            yaw = residual[_YAW_INDEX]
            wrap = (yaw <= -math.pi) | (yaw > math.pi)
            if wrap.any():
                yaw[wrap] = map_math(wrap_angle, yaw[wrap])
        beta = config.smooth_l1_beta
        r = abs(residual)
        huber = np.where(r < beta, 0.5 * r * r / beta, r - 0.5 * beta)
        accuracy = np.zeros(len(p_boxes))
        for row in huber:
            accuracy += row
        enclosure = 1.0 - iogt3d_batch(p_boxes, g_boxes)
        return accuracy, enclosure, config.blend(accuracy, enclosure)

    return pair_batches(chunk, box_array(preds), box_array(gts))
