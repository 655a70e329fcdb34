"""Datasets as columns, and the value types of their objects.

An ``Annotation`` (ground truth) or ``Detection`` (prediction) is a validated
tuple, like ``Box3D``; a ``FrameRecord`` holds one frame's lists of them.

A ``Dataset`` holds a whole dataset as arrays instead: for its ground truths
and for its predictions one ``Objects`` value, a row per object in frame
order, with the boxes as an (n, 7) float64 array, class codes into the
dataset's class names, frame offsets, the scores of the predictions, and the
optional velocities and attributes. Every value in it has passed the value
types' rules. It is an immutable sequence of ``FrameRecord`` values, each
built when it is indexed; it equals, and has the ``repr`` of, the list of
those records. ``DatasetBuilder`` builds one frame by frame, from records
or from the decoded JSON lines of a dataset file, whose shape it checks as
it appends their values and whose value rules it checks a block at a time;
``as_dataset`` turns any other sequence of frames into one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import Box3D, finite_floats, map_math, wrap_angle


def _checked_velocity(class_name, velocity, attribute):
    """The velocity of an ``Annotation`` or ``Detection`` as two floats, or
    None; ValueError unless the class label is a non-empty string, the velocity
    None or two finite real numbers, and the attribute None or a string."""
    if not isinstance(class_name, str) or not class_name:
        raise ValueError("class_name must be a non-empty string")
    if velocity is not None:
        values = finite_floats(velocity)
        if values is None or len(values) != 2:
            raise ValueError(f"velocity must be two finite numbers, got {velocity!r}")
        velocity = values
    if attribute is not None and not isinstance(attribute, str):
        raise ValueError(f"attribute must be a string, got {attribute!r}")
    return velocity


class _AnnotationFields(NamedTuple):
    class_name: str
    box: Box3D
    velocity: Optional[Tuple[float, float]] = None
    attribute: Optional[str] = None


class Annotation(_AnnotationFields):
    """Ground-truth object: class label plus box, with optional velocity
    (vx, vz in m/s) and attribute label.

    A validated tuple, like ``Box3D``: a non-empty string class label, a
    velocity of two finite real numbers stored as floats, a string attribute.
    """

    __slots__ = ()

    def __new__(cls, class_name, box, velocity=None, attribute=None):
        velocity = _checked_velocity(class_name, velocity, attribute)
        return tuple.__new__(cls, (class_name, box, velocity, attribute))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _DetectionFields(NamedTuple):
    class_name: str
    box: Box3D
    score: float
    velocity: Optional[Tuple[float, float]] = None
    attribute: Optional[str] = None


class Detection(_DetectionFields):
    """Predicted object with a confidence score in [0, 1].

    A validated tuple, like ``Annotation``, whose score is stored as a float.
    """

    __slots__ = ()

    def __new__(cls, class_name, box, score, velocity=None, attribute=None):
        velocity = _checked_velocity(class_name, velocity, attribute)
        value = finite_floats((score,))
        if value is None or not 0.0 <= value[0] <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")
        return tuple.__new__(cls, (class_name, box, value[0], velocity, attribute))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@dataclass
class FrameRecord:
    """One frame's ground truths and predictions."""

    frame_id: str
    ground_truths: List[Annotation]
    predictions: List[Detection]


class Objects(NamedTuple):
    """One side of a ``Dataset``, its ground truths or its predictions: one
    row per object, in frame order."""

    #: (n, 7) float64: each object's box, as the 7-tuple of its ``Box3D``
    boxes: np.ndarray
    #: (n,) int64: each object's class, as an index into the class names
    classes: np.ndarray
    #: (frames + 1,) int64: frame f holds rows offsets[f] to offsets[f + 1]
    offsets: np.ndarray
    #: (n,) float64 scores of predictions; None for ground truths
    scores: Optional[np.ndarray]
    #: (n, 2) float64 velocities, NaN for none; None when no object has one
    velocities: Optional[np.ndarray]
    #: (n,) object array of attributes or None; None when no object has one
    attributes: Optional[np.ndarray]

    def frame_of(self, row: int) -> int:
        """The index of the frame that holds ``row``."""
        return int(np.searchsorted(self.offsets, row, side="right")) - 1

    def take(self, frames, codes: Optional[np.ndarray] = None) -> "Objects":
        """The objects of the given frames, in that order, -1 standing for an
        empty frame; ``codes``, if given, maps each class code to a new one."""
        frames = np.asarray(frames, dtype=np.int64)
        starts = self.offsets[frames]
        counts = np.where(frames >= 0, self.offsets[frames + 1] - starts, 0)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        classes = self.classes[rows]
        return Objects(self.boxes[rows], classes if codes is None else codes[classes],
                       offsets, *(None if column is None else column[rows] for column in
                                  (self.scores, self.velocities, self.attributes)))


class Dataset(Sequence):
    """A dataset as columns (see the module docstring): an immutable
    sequence of ``FrameRecord`` values, equal to the list of them."""

    __slots__ = ("frame_ids", "class_names", "ground_truths", "predictions")

    def __init__(self, frame_ids: Tuple[str, ...], class_names: Tuple[str, ...],
                 ground_truths: Objects, predictions: Objects):
        for objects in (ground_truths, predictions):
            for column in objects:
                if isinstance(column, np.ndarray):
                    column.flags.writeable = False
        self.frame_ids = frame_ids
        self.class_names = class_names
        self.ground_truths = ground_truths
        self.predictions = predictions

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        frame = range(len(self))[index]
        return FrameRecord(self.frame_ids[frame],
                           self._records(self.ground_truths, frame),
                           self._records(self.predictions, frame))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (list, Dataset)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def _records(self, objects: Objects, frame: int) -> list:
        lo, hi = objects.offsets[frame:frame + 2].tolist()
        rows, count = slice(lo, hi), hi - lo
        names = [self.class_names[code] for code in objects.classes[rows].tolist()]
        boxes = [Box3D(*box) for box in objects.boxes[rows].tolist()]
        velocities = attributes = [None] * count
        if objects.velocities is not None:
            velocities = [None if math.isnan(vx) else (vx, vz)
                          for vx, vz in objects.velocities[rows].tolist()]
        if objects.attributes is not None:
            attributes = objects.attributes[rows].tolist()
        if objects.scores is None:
            return list(map(Annotation, names, boxes, velocities, attributes))
        return list(map(Detection, names, boxes, objects.scores[rows].tolist(),
                        velocities, attributes))


def _floats(values) -> Optional[Tuple[float, ...]]:
    """JSON numbers as floats; None if one is a bool, not a number, or an
    int beyond the float range."""
    if not all(type(v) is float or type(v) is int for v in values):
        return None
    try:
        return tuple(map(float, values))
    except OverflowError:
        return None


class _ObjectLists:
    """One side's objects, its ground truths or its predictions, as a
    ``DatasetBuilder`` collects them: the unchecked ones in Python lists,
    the checked ones in blocks of arrays."""

    def __init__(self, with_score: bool):
        #: the seven box values of each unchecked object
        self.values: List[float] = []
        #: the class code of each unchecked object
        self.classes: List[int] = []
        #: the score of each unchecked object; None for ground truths
        self.scores: Optional[List[float]] = [] if with_score else None
        #: per frame, the number of rows up to its end
        self.ends: List[int] = []
        #: the rows of the objects with a velocity, in order, and their vx, vz
        self.velocity_rows: List[int] = []
        self.velocities: List[float] = []
        #: the rows of the objects with an attribute, in order, and those
        self.attribute_rows: List[int] = []
        self.attributes: List[str] = []
        #: (boxes, classes, scores) arrays of the checked objects
        self.blocks: List[tuple] = []
        self.checked = 0

    def add_records(self, objects, codes: Dict[str, int]) -> None:
        """Append ``Annotation`` or ``Detection`` values."""
        for obj in objects:
            row = self.checked + len(self.classes)
            if obj.velocity is not None:
                self.velocity_rows.append(row)
                self.velocities += obj.velocity
            if obj.attribute is not None:
                self.attribute_rows.append(row)
                self.attributes.append(obj.attribute)
            self.values += obj.box
            self.classes.append(codes.setdefault(obj.class_name, len(codes)))
            if self.scores is not None:
                self.scores.append(obj.score)

    def add_plain(self, objects: list, codes: Dict[str, int]) -> bool:
        """Append decoded JSON objects while each has their shape: a dict
        with a non-empty string class, a center and a size of three numbers
        and a number yaw, for a prediction a number score, and an optional
        velocity of two finite numbers and string attribute, a number never
        being a bool; False at the first that does not. ``check`` checks the
        other value rules."""
        values, classes, scores = self.values, self.classes, self.scores
        for obj in objects:
            if type(obj) is not dict:
                return False
            center, size, name = obj.get("center"), obj.get("size"), obj.get("class")
            if (type(center) is not list or len(center) != 3 or type(size) is not list
                    or len(size) != 3 or type(name) is not str or not name):
                return False
            box = x, y, z, length, height, width, yaw = (*center, *size, obj.get("yaw"))
            if not (float is type(x) is type(y) is type(z) is type(length)
                    is type(height) is type(width) is type(yaw)):
                box = _floats(box)
                if box is None:
                    return False
            velocity, attribute = obj.get("velocity"), obj.get("attribute")
            if velocity is not None:
                if type(velocity) is not list or len(velocity) != 2:
                    return False
                vx, vz = velocity
                if not (float is type(vx) is type(vz)):
                    vx, vz = _floats(velocity) or (math.nan, math.nan)
                if not (math.isfinite(vx) and math.isfinite(vz)):
                    return False
                self.velocity_rows.append(self.checked + len(classes))
                self.velocities += (vx, vz)
            if attribute is not None:
                if type(attribute) is not str:
                    return False
                self.attribute_rows.append(self.checked + len(classes))
                self.attributes.append(attribute)
            if scores is not None:
                score = obj.get("score")
                if type(score) is not float:
                    score = _floats((score,))
                    if score is None:
                        return False
                    score = score[0]
                scores.append(score)
            values += box
            code = codes.get(name)
            if code is None:
                code = codes[name] = len(codes)
            classes.append(code)
        return True

    def truncate(self, count: int) -> None:
        """Drop the unchecked objects after the first ``count``."""
        del self.values[7 * count:], self.classes[count:]
        if self.scores is not None:
            del self.scores[count:]
        kept = bisect_left(self.velocity_rows, self.checked + count)
        del self.velocity_rows[kept:], self.velocities[2 * kept:]
        kept = bisect_left(self.attribute_rows, self.checked + count)
        del self.attribute_rows[kept:], self.attributes[kept:]

    def end_frame(self) -> None:
        self.ends.append(self.checked + len(self.classes))

    def check(self) -> Optional[int]:
        """Move the unchecked objects into a new block, checked as
        ``DatasetBuilder.check`` says; the frame of the first that breaks a
        rule, or None."""
        boxes = np.fromiter(self.values, np.float64, len(self.values)).reshape(-1, 7)
        scores = np.array(self.scores or (), dtype=np.float64)
        bad = ~(np.isfinite(boxes).all(axis=1) & (boxes[:, 3:6] > 0.0).all(axis=1))
        if self.scores is not None:
            bad |= ~((scores >= 0.0) & (scores <= 1.0))
            self.scores = []
        fault = None
        if bad.any():
            fault = bisect_right(self.ends, self.checked + int(np.argmax(bad)))
        else:
            yaw = boxes[:, 6]
            wrap = (yaw <= -math.pi) | (yaw > math.pi)
            if wrap.any():
                yaw[wrap] = map_math(wrap_angle, yaw[wrap])
        self.blocks.append((boxes, np.array(self.classes, dtype=np.int64), scores))
        self.checked += len(self.classes)
        self.values, self.classes = [], []
        return fault

    def columns(self) -> Objects:
        boxes, classes, scores = (np.concatenate(parts) for parts in zip(*self.blocks))
        velocities = attributes = None
        if self.velocity_rows:
            velocities = np.full((self.checked, 2), np.nan)
            velocities[self.velocity_rows] = np.reshape(self.velocities, (-1, 2))
        if self.attribute_rows:
            attributes = np.full(self.checked, None, dtype=object)
            attributes[self.attribute_rows] = self.attributes
        return Objects(boxes, classes, np.array([0, *self.ends], dtype=np.int64),
                       None if self.scores is None else scores, velocities, attributes)


class DatasetBuilder:
    """Builds a ``Dataset`` frame by frame, from ``FrameRecord`` values
    (``add_frame``) or from the decoded JSON lines of a dataset file
    (``add_plain_frame``). The value rules of the objects of JSON lines run
    later, at once for all those added since the last ``check``."""

    def __init__(self):
        self.frame_ids: List[str] = []
        #: class name -> class code, in order of first appearance
        self.class_codes: Dict[str, int] = {}
        self._sides = (_ObjectLists(with_score=False), _ObjectLists(with_score=True))

    @property
    def unchecked(self) -> int:
        """The number of objects added since the last ``check``."""
        gts, preds = self._sides
        return len(gts.classes) + len(preds.classes)

    def add_frame(self, record: FrameRecord) -> None:
        gts, preds = self._sides
        gts.add_records(record.ground_truths, self.class_codes)
        preds.add_records(record.predictions, self.class_codes)
        self._end_frame(record.frame_id)

    def add_plain_frame(self, obj) -> bool:
        """Add one decoded JSON line's frame if it has the shape of one: a
        dict with a non-empty string ``frame_id`` and lists of ground truths
        and predictions, each object of the shape ``_ObjectLists.add_plain``
        takes. Else add nothing and return False."""
        if type(obj) is not dict:
            return False
        frame_id = obj.get("frame_id")
        gt_objects, pred_objects = obj.get("ground_truths", []), obj.get("predictions", [])
        if (type(frame_id) is not str or not frame_id or type(gt_objects) is not list
                or type(pred_objects) is not list):
            return False
        gts, preds = self._sides
        counts = len(gts.classes), len(preds.classes)
        if (gts.add_plain(gt_objects, self.class_codes)
                and preds.add_plain(pred_objects, self.class_codes)):
            self._end_frame(frame_id)
            return True
        gts.truncate(counts[0])
        preds.truncate(counts[1])
        return False

    def _end_frame(self, frame_id: str) -> None:
        self.frame_ids.append(frame_id)
        gts, preds = self._sides
        gts.end_frame()
        preds.end_frame()

    def check(self) -> Optional[int]:
        """Apply the value rules of ``Box3D`` and ``Detection`` at once to
        the objects added since the last check: finite values, positive sizes
        and a score in [0, 1]; if a side's objects pass, ``wrap_angle`` on
        each of their yaws outside (-pi, pi]. Returns the index of the first
        frame with an object that breaks a rule, or None."""
        faults = [fault for fault in (side.check() for side in self._sides)
                  if fault is not None]
        return min(faults) if faults else None

    def build(self) -> Dataset:
        """The ``Dataset`` of the frames added; ValueError if an object
        added since the last ``check`` breaks a value rule."""
        if self.check() is not None:
            raise ValueError("an object breaks the value rules")
        return Dataset(tuple(self.frame_ids), tuple(self.class_codes),
                       *(side.columns() for side in self._sides))


def as_dataset(frames) -> Dataset:
    """``frames`` as a ``Dataset``: a Dataset as it is, any other iterable of
    ``FrameRecord`` values by their values."""
    if isinstance(frames, Dataset):
        return frames
    builder = DatasetBuilder()
    for frame in frames:
        builder.add_frame(frame)
    return builder.build()
