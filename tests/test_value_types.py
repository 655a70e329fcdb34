"""The validated tuple value types. ``Box3D``, ``Annotation`` and
``Detection`` check their values however an instance is built: by call,
``_make``, ``_replace``, ``copy`` or ``pickle``, and store their numbers as
floats. None of them, nor ``MatchedPair``, has a ``__dict__`` or takes an
assignment, and a box is otherwise a plain 7-tuple."""

import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from usc import (Annotation, Box3D, Detection, MatchedPair, smooth_l1,
                 tp_error_means)

from oracles import (reference_annotation_values, reference_box_values,
                     reference_detection_values, reference_tp_error_means)
from strategies import finite

BOX = Box3D(0.5, -0.25, 10.0, 4.0, 1.5, 1.8, 0.1)
ANN = Annotation("car", BOX, (1.0, 0.5), "moving")
DET = Detection("car", BOX, 0.9, (1.0, 0.5), "moving")
PAIR = MatchedPair(DET, ANN, 0.0)

#: (a valid value, one of its fields, a value the constructor rejects there)
INVALID = [(BOX, "length", -1), (BOX, "center_x", math.nan),
           (BOX, "center_x", "1"), (ANN, "class_name", ""),
           (ANN, "class_name", 5), (ANN, "class_name", ["car"]),
           (DET, "class_name", ""), (DET, "score", 1.5), (DET, "score", "0.5"),
           (ANN, "velocity", "12"), (ANN, "velocity", ["1", "2"]),
           (ANN, "attribute", 5), (DET, "attribute", 5)]
INVALID_IDS = ["length", "nan-center", "string-center", "annotation-class",
               "int-class", "list-class", "detection-class", "score",
               "string-score", "string-velocity", "string-list-velocity",
               "annotation-attribute", "detection-attribute"]


def rejected(value, field, bad):
    """The values of ``value`` with ``field`` set to ``bad``, and the exact
    message of the ValueError the constructor raises on them."""
    values = list(value)
    values[value._fields.index(field)] = bad
    with pytest.raises(ValueError) as exc:
        type(value)(*values)
    return values, f"^{re.escape(str(exc.value))}$"


def forged(value, values):
    """An instance of ``value``'s type holding ``values`` unchecked."""
    return tuple.__new__(type(value), values)


@pytest.mark.parametrize("value, field, bad", INVALID, ids=INVALID_IDS)
class TestEveryConstructionValidates:
    def test_make(self, value, field, bad):
        values, message = rejected(value, field, bad)
        with pytest.raises(ValueError, match=message):
            type(value)._make(values)

    def test_replace(self, value, field, bad):
        _, message = rejected(value, field, bad)
        with pytest.raises(ValueError, match=message):
            value._replace(**{field: bad})

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copy(self, value, field, bad, duplicate):
        values, message = rejected(value, field, bad)
        with pytest.raises(ValueError, match=message):
            duplicate(forged(value, values))

    def test_pickle_round_trip(self, value, field, bad):
        values, message = rejected(value, field, bad)
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged(value, values)))


@pytest.mark.parametrize("value", [BOX, ANN, DET, PAIR],
                         ids=["box", "annotation", "detection", "pair"])
class TestTupleTraps:
    def test_copies_and_round_trips_are_equal_and_of_the_type(self, value):
        for other in (copy.copy(value), copy.deepcopy(value), value._replace(),
                      type(value)._make(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value) and other == value

    def test_no_field_can_be_assigned(self, value):
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")


def test_replace_wraps_yaw_and_normalizes_velocity():
    assert BOX._replace(yaw=3 * math.pi) == Box3D(*BOX[:6], 3 * math.pi)
    assert BOX._replace(yaw=3 * math.pi).yaw == pytest.approx(math.pi)
    assert ANN._replace(velocity=[2, 0]).velocity == (2.0, 0.0)
    with pytest.raises(ValueError, match="^velocity must be two finite numbers"):
        DET._replace(velocity=(1, 2, 3))


def test_box_is_its_plain_seven_tuple():
    values = (0.5, -0.25, 10.0, 4.0, 1.5, 1.8, 0.1)
    assert BOX == values and hash(BOX) == hash(values)
    x, y, z, length, height, width, yaw = BOX
    assert (x, y, z, length, height, width, yaw) == (
        BOX.center_x, BOX.center_y, BOX.center_z, BOX.length, BOX.height,
        BOX.width, BOX.yaw)
    shifted = BOX._replace(center_z=9.0)
    assert shifted < BOX and sorted([BOX, shifted]) == [shifted, BOX]
    assert repr(BOX) == ("Box3D(center_x=0.5, center_y=-0.25, center_z=10.0, "
                         "length=4.0, height=1.5, width=1.8, yaw=0.1)")


#: a prediction and a ground truth whose lengths are ints no float holds
INT_PRED = (0, 0, 10, 2**53 + 1, 1, 1, 0)
INT_GT = (0, 0, 10, 2**53 + 3, 1, 1, 0)


class TestNumbersAreStoredAsFloats:
    """The scalar paths and the array paths, which round every value to
    float64, compute with the same numbers."""

    def test_box_rounds_an_int_to_its_float(self):
        box = Box3D(*INT_PRED)
        assert box == tuple(map(float, INT_PRED)) and box.length == 2.0**53
        assert all(type(v) is float for v in box)

    def test_tp_errors_agree_with_the_oracle(self):
        pairs = [MatchedPair(Detection("car", Box3D(*INT_PRED), True),
                             Annotation("car", Box3D(*INT_GT)), 0.0)]
        assert (tp_error_means(pairs, ["ASE"])
                == reference_tp_error_means(pairs, ["ASE"]))
        assert type(pairs[0].detection.score) is float

    def test_smooth_l1_of_int_and_float_built_boxes_agree(self):
        floats = Box3D(*map(float, INT_PRED)), Box3D(*map(float, INT_GT))
        assert smooth_l1(Box3D(*INT_PRED), Box3D(*INT_GT)) == smooth_l1(*floats)


#: any value a caller may pass where a number goes: every float (-0.0,
#: subnormals, infinities and NaN among them), ints a float cannot hold or
#: that overflow it, bools, numpy floats, fractions and strings
ANY_NUMBER = (st.floats() | st.floats().map(np.float64)
              | finite(-10.0, 10.0).map(Fraction) | st.integers(-3, 3)
              | st.sampled_from([-0.0, 5e-324, -5e-324, 2**53 + 1, 10**400,
                                 -10**400, True, False, "1", "nan"]))


@st.composite
def box_values(draw):
    """Seven values of a valid float box, a few of them, maybe none, replaced
    by ``ANY_NUMBER``; some yaws lie outside (-pi, pi]."""
    values = ([draw(finite(-50.0, 50.0)) for _ in range(3)]
              + [draw(finite(1e-3, 10.0)) for _ in range(3)]
              + [draw(finite(-10.0, 10.0))])
    for index in draw(st.lists(st.integers(0, 6), max_size=7)):
        values[index] = draw(ANY_NUMBER)
    return values


def same_outcome(build, reference, *args):
    """``build(*args)`` stores what ``reference(*args)`` gives, or both raise
    ValueError with the same message. Stored values are compared by ``repr``,
    which tells -0.0 from 0.0 and a float from an int, a numpy float or a
    fraction."""
    try:
        expected = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build(*args)
        assert str(raised.value) == str(exc)
        return
    assert repr(tuple(build(*args))) == repr(expected)


class TestConstructorsAgainstTheirRule:
    """Whichever branch a constructor takes, it stores what its rule, written
    plainly in ``tests/oracles.py``, stores, or raises what the rule raises."""

    @given(box_values())
    @example([0.0, -0.0, 5e-324, 1.0, 1.0, 1.0, math.pi])
    @example([0.0, 0.0, 10.0, 1.0, 1.0, 1.0, -math.pi])
    @example([1e308, 1e308, 0.0, 1.0, 1.0, 1.0, 0.0])
    @example([0.0, 0.0, 10.0, 1.0, -0.0, 1.0, 0.0])
    @example([0.0, 0.0, 10.0, 1.0, 1.0, 1.0, math.nan])
    @example([0.0, 0.0, 10.0, 2**53 + 1, 1.0, 1.0, 0.0])
    def test_box(self, values):
        same_outcome(Box3D._make, reference_box_values, values)

    # "car", no velocity and no attribute come up often, so that scores of
    # every kind meet the shortcut
    @given(st.just("car") | st.sampled_from(["", 5, None]),
           ANY_NUMBER | finite(0.0, 1.0),
           st.none() | st.tuples(ANY_NUMBER, ANY_NUMBER) | st.just("12"),
           st.none() | st.sampled_from(["moving", 5]))
    @example("car", 0.5, None, None)
    @example("car", -0.5, None, None)
    @example("car", 1, None, None)
    @example("car", -0.0, None, None)
    @example("car", 5e-324, None, None)
    @example("car", math.nan, None, None)
    @example("car", np.float64(0.5), None, None)
    @example("car", True, None, None)
    @example("car", 0.5, (1, -0.0), "moving")
    def test_detection_and_annotation(self, class_name, score, velocity,
                                      attribute):
        same_outcome(Detection, reference_detection_values, class_name, BOX,
                     score, velocity, attribute)
        same_outcome(Annotation, reference_annotation_values, class_name, BOX,
                     velocity, attribute)
