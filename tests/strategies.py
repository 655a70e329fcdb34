"""Shared hypothesis strategies: boxes, and arbitrary JSON for the input
files."""

import copy
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
from hypothesis import assume, strategies as st

from usc import (Box3D, LossConfig, ProtocolConfig, SyntheticSpec, evaluate,
                 generate_synthetic, report_to_dict)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def reals(lo, hi):
    """Real numbers in [lo, hi] of each type the value types convert to
    float: float, numpy.float64, Fraction, int and bool."""
    floats = finite(lo, hi)
    return (floats | floats.map(np.float64) | floats.map(Fraction)
            | st.integers(math.ceil(lo), math.floor(hi))
            | st.booleans().filter(lambda b: lo <= b <= hi))


@st.composite
def boxes(draw, center=20.0, dim_min=0.1, dim_max=5.0, number=finite):
    """Arbitrary valid boxes anywhere around the vehicle, each parameter
    drawn from ``number(lo, hi)``."""
    return Box3D(
        draw(number(-center, center)),
        draw(number(-3.0, 3.0)),
        draw(number(-center, center)),
        draw(number(dim_min, dim_max)),
        draw(number(dim_min, dim_max)),
        draw(number(dim_min, dim_max)),
        draw(number(-math.pi, math.pi)),
    )


@st.composite
def overflow_boxes(draw, scale=None):
    """Boxes whose BEV coordinates and sizes lie between 1e150 and 1e307,
    where the clip's products overflow to infinity and NaN, 1 m tall at
    heights that overlap, touch or miss each other."""
    if scale is None:
        scale = 10.0 ** draw(finite(150, 307))
    return Box3D(scale * draw(finite(-1, 1)), draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                 scale * draw(finite(-1, 1)), scale * draw(finite(0.01, 1)), 1.0,
                 scale * draw(finite(0.01, 1)), draw(finite(-math.pi, math.pi)))


@st.composite
def overflow_pairs(draw):
    scale = 10.0 ** draw(finite(150, 307))
    return draw(overflow_boxes(scale)), draw(overflow_boxes(scale))


@st.composite
def frontal_boxes(draw, range_min=4.0, range_max=19.0):
    """Boxes whose footprint sits fully ahead of the vehicle.

    The placement mirrors the synthetic generator: modest azimuth, clear of
    the origin, so both projections and the representative points are
    defined.
    """
    r = draw(finite(range_min, range_max))
    az = draw(finite(-0.5, 0.5))
    length = draw(finite(0.3, 4.0))
    height = draw(finite(0.5, 3.0))
    width = draw(finite(0.3, 4.0))
    yaw = draw(finite(-math.pi, math.pi))
    x, z = r * math.sin(az), r * math.cos(az)
    assume(z - math.hypot(length, width) / 2.0 > 0.3)
    return Box3D(x, draw(finite(-1.0, 1.0)), z, length, height, width, yaw)


@st.composite
def frontal_pairs(draw):
    """A frontal ground truth plus a bounded perturbation of it."""
    g = draw(frontal_boxes())
    p = Box3D(
        g.center_x + draw(finite(-1.0, 1.0)),
        g.center_y + draw(finite(-0.4, 0.4)),
        g.center_z + draw(finite(-1.0, 1.0)),
        g.length * draw(finite(0.6, 1.6)),
        g.height * draw(finite(0.6, 1.6)),
        g.width * draw(finite(0.6, 1.6)),
        g.yaw + draw(finite(-0.6, 0.6)),
    )
    assume(p.center_z - math.hypot(p.length, p.width) / 2.0 > 0.3)
    return p, g


@st.composite
def thinned(draw, box):
    """``box`` with each of its sides, independently, kept or made 1e-16 to
    1e-8 m long (log-uniform)."""
    thin = finite(-16.0, -8.0).map(lambda exponent: 10.0 ** exponent)
    return box._replace(**{side: draw(thin) for side in ("length", "height", "width")
                           if draw(st.booleans())})


@st.composite
def thin_pairs(draw):
    """A frontal pair or two boxes around the vehicle, either box with
    sides down to 1e-16 m (``thinned``)."""
    p, g = draw(frontal_pairs() | st.tuples(boxes(), boxes()))
    return draw(thinned(p)), draw(thinned(g))


# --- input documents ----------------------------------------------------------

JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
               | st.floats() | st.text(max_size=4))


def json_values():
    """Arbitrary parsed JSON, huge integers, NaN and infinity included."""
    return JSON_LEAVES | st.recursive(
        JSON_LEAVES,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=6)


#: a config's keys: the fields of both configs, ``lambda`` naming ``blend_lambda``
CONFIG_KEYS = [f.name for f in fields(ProtocolConfig)] + [
    "lambda" if f.name == "blend_lambda" else f.name for f in fields(LossConfig)]
SPEC_KEYS = [f.name for f in fields(SyntheticSpec)]
#: one valid dataset line, whose prediction matches its ground truth
FRAME = {
    "frame_id": "f-1",
    "ground_truths": [{"class": "car", "center": [0.5, 0.0, 9.0],
                       "size": [4.2, 1.6, 1.9], "yaw": 0.31,
                       "velocity": [1.25, -0.5], "attribute": "moving"}],
    "predictions": [{"class": "car", "center": [0.52, 0.0, 9.1],
                     "size": [4.1, 1.6, 1.8], "yaw": 0.3, "score": 0.87}],
}
#: one valid report document
REPORT = report_to_dict(evaluate(
    generate_synthetic(SyntheticSpec(seed=8, frames=4, miss_rate=0.2,
                                     fp_rate=0.2)), ProtocolConfig()))


def node_paths(node, prefix=()):
    """Every path into a parsed JSON document, the root's included."""
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def replaced(document, path, value):
    """A copy of a parsed JSON document with the node at ``path`` replaced."""
    if not path:
        return value
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document
